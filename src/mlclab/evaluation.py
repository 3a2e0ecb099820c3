"""Multi-label prediction metrics and representation-quality metrics.

Zero-division convention for Macro-F1: a label with no true positives, no
false positives, and no false negatives contributes F1 = 0, not 1. This is
the strict convention; it keeps the macro average sensitive to tail labels
that are never predicted. Conventions differ across libraries, so callers
comparing against other tooling should check this first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import as_matrix, row_normalize


def _prediction_metrics(pred, truth) -> tuple[float, float, float]:
    """Micro-F1, macro-F1 and the Hamming fraction from one set of per-label
    true-positive, false-positive and false-negative counts, after one check
    that pred and truth are binary 2-D matrices of the same shape."""
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.shape != t.shape or p.ndim != 2:
        raise DomainError(f"pred shape {p.shape} and truth shape {t.shape} must match and be 2-D")
    p_one, t_one = p == 1, t == 1
    if not ((p_one | (p == 0)).all() and (t_one | (t == 0)).all()):
        raise DomainError("pred and truth must be binary")
    tp = np.count_nonzero(p_one & t_one, axis=0)
    fp = np.count_nonzero(p_one, axis=0) - tp
    fn = np.count_nonzero(t_one, axis=0) - tp
    tp_all, fp_all, fn_all = int(tp.sum()), int(fp.sum()), int(fn.sum())
    denom = 2 * tp_all + fp_all + fn_all
    label_denom = 2 * tp + fp + fn
    label_f1 = np.where(label_denom > 0, 2.0 * tp / np.maximum(label_denom, 1), 0.0)
    return (2.0 * tp_all / denom if denom else 0.0,
            float(label_f1.mean()),
            float(np.true_divide(fp_all + fn_all, p.size)))


def micro_f1(pred, truth) -> float:
    """F1 pooled over every (instance, label) cell: 2TP / (2TP + FP + FN),
    0 when the denominator is 0."""
    return _prediction_metrics(pred, truth)[0]


def macro_f1(pred, truth) -> float:
    """Per-label F1 averaged uniformly over all labels; empty labels (no
    positives in truth or prediction) contribute 0 under the strict
    convention documented in the module docstring."""
    return _prediction_metrics(pred, truth)[1]


def hamming(pred, truth) -> float:
    """Fraction of mismatched cells. Multiply by 1000 for table-style
    reporting (see MetricsReport.hamming_x1000)."""
    return _prediction_metrics(pred, truth)[2]


def mean_average_precision(scores, truth) -> float | None:
    """Label-wise average precision over instance rankings, averaged over
    labels with at least one positive; None when no label has positives.

    For each label, instances are ranked by descending score (ties broken by
    ascending instance index) and AP is the mean of precision-at-hit over the
    label's positives. Any strictly monotone transform of the scores leaves
    the result unchanged. truth must be binary, as in compute_report.
    """
    s = as_matrix(scores, "scores")
    t = np.asarray(truth)
    if t.shape != s.shape:
        raise DomainError(f"truth shape {t.shape} != scores shape {s.shape}")
    positive = t == 1
    if not (positive | (t == 0)).all():
        raise DomainError("truth must be binary")
    n, big_l = s.shape
    aps = []
    for j in range(big_l):
        pos = positive[:, j]
        n_pos = int(pos.sum())
        if n_pos == 0:
            continue
        order = np.argsort(-s[:, j], kind="stable")
        hits = pos[order]
        ranks = np.nonzero(hits)[0] + 1
        precisions = np.arange(1, n_pos + 1) / ranks
        aps.append(float(precisions.mean()))
    if not aps:
        return None
    return float(np.mean(aps))


def alignment(features, labels) -> float | None:
    """Mean squared distance between unit-normalized features of instances
    with exactly matching label sets; None when no exact-match pair exists.

    Rows are grouped by label set; a group of k rows with mean mu holds
    k * sum_i |f_i - mu|^2 of squared distance over its k(k-1)/2 pairs, so no
    pairwise array is built. The groups are the distinct rows of the labels
    packed to bytes, in the rows' lexicographic order: one stable sort puts
    each group's rows together, in their original order, and the group sums
    are segment sums over the sorted rows."""
    f = row_normalize(as_matrix(features, "features"), "features")
    y = np.asarray(labels)
    if y.shape[0] != f.shape[0]:
        raise DomainError("features and labels must agree on instance count")
    if y.ndim != 2 or not ((y == 0) | (y == 1)).all():
        raise DomainError("labels must be a binary 2-D matrix")
    n = f.shape[0]
    if n < 2:
        return None
    # one opaque key per row: bytes compare in the same order as the bits;
    # with no label columns every row has the same, empty, label set
    packed = np.packbits(y != 0, axis=1) if y.shape[1] else np.zeros((n, 1), np.uint8)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    k = np.diff(starts, append=n)
    n_pairs = int(np.sum(k * (k - 1) // 2))
    if n_pairs == 0:
        return None
    f = f[order]
    f -= np.repeat(np.add.reduceat(f, starts, axis=0) / k[:, None], k, axis=0)
    spread = np.add.reduceat(np.sum(f * f, axis=1), starts)
    return float(np.dot(k, spread) / n_pairs)


_GRAM_BLOCK = 256


def uniformity(features) -> float | None:
    """Log of the mean Gaussian-kernel value exp(-2 d^2) over all distinct
    pairs of unit-normalized features; None for fewer than two instances.
    Bounded in [-8, 0] on the unit sphere. The summand is symmetric, so
    ordered and unordered pair conventions give the same value; distinct
    unordered pairs are used.

    With u_a = exp(-2 |a|^2), each term is the product
    exp(-2 |a - b|^2) = u_a u_b exp(4 a.b), so the sum over pairs is the
    quadratic form u^T E u of E = exp(4 F F^T) restricted to j > i. One block
    of rows at a time: one product of the doubled rows 2F (the factor 4 is
    exact), one exponential in place, the diagonal block's lower triangle
    and diagonal zeroed, and two matrix-vector products. No squared distance
    is formed, so none can round below 0 and need a clamp; the product of
    three exponentials can still land an ulp outside the bound, so the log
    is clamped to [-8, 0]."""
    f = as_matrix(features, "features")
    n = f.shape[0]
    if n < 2:
        return None
    f = row_normalize(f, "features")
    f *= 2.0
    u = np.exp(-0.5 * np.einsum("ij,ij->i", f, f))
    # the diagonal and the strict lower triangle of a square diagonal block
    lower = np.tri(min(n, _GRAM_BLOCK), dtype=bool)
    total = 0.0
    for start in range(0, n, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, n)
        # pairs (i, j) with j > i: columns from the block's first row on
        e = f[start:stop] @ f[start:].T
        np.exp(e, out=e)
        m = stop - start
        e[:, :m][lower[:m, :m]] = 0.0
        total += float(u[start:stop] @ (e @ u[start:]))
    return min(max(float(np.log(total / (n * (n - 1) // 2))), -8.0), 0.0)


@dataclass
class MetricsReport:
    """Bundle of prediction and representation metrics.

    hamming_x1000 is the raw Hamming fraction scaled by 1000 (table
    convention); prr, map, align, and uniform are omitted from the JSON when
    undefined.
    """

    micro_f1: float
    macro_f1: float
    hamming: float
    map: float | None = None
    align: float | None = None
    uniform: float | None = None
    prr: float | None = None

    @property
    def hamming_x1000(self) -> float:
        return 1000.0 * self.hamming

    def to_dict(self) -> dict:
        d = {
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "hamming_x1000": self.hamming_x1000,
        }
        for key, val in (
            ("map", self.map),
            ("align", self.align),
            ("uniform", self.uniform),
            ("prr", self.prr),
        ):
            if val is not None:
                d[key] = val
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def compute_report(
    pred,
    truth,
    scores=None,
    features=None,
    labels=None,
    prr_value: float | None = None,
) -> MetricsReport:
    """Assemble a MetricsReport from predictions plus optional ranking scores
    and representation features. pred and truth are checked once, and the
    F1 scores and the Hamming fraction come from one set of counts."""
    micro, macro, ham = _prediction_metrics(pred, truth)
    report = MetricsReport(micro_f1=micro, macro_f1=macro, hamming=ham)
    if scores is not None:
        report.map = mean_average_precision(scores, truth)
    if features is not None and labels is not None:
        report.align = alignment(features, labels)
        report.uniform = uniformity(features)
    report.prr = prr_value
    return report
