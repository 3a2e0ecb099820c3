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


def _check_binary_pair(pred, truth):
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.shape != t.shape or p.ndim != 2:
        raise DomainError(f"pred shape {p.shape} and truth shape {t.shape} must match and be 2-D")
    if not np.isin(p, (0, 1)).all() or not np.isin(t, (0, 1)).all():
        raise DomainError("pred and truth must be binary")
    return p.astype(np.int64), t.astype(np.int64)


def _label_counts(pred, truth):
    """Per-label true-positive, false-positive and false-negative counts."""
    p, t = _check_binary_pair(pred, truth)
    tp = np.sum(p & t, axis=0)
    return tp, np.sum(p, axis=0) - tp, np.sum(t, axis=0) - tp


def micro_f1(pred, truth) -> float:
    """F1 pooled over every (instance, label) cell: 2TP / (2TP + FP + FN),
    0 when the denominator is 0."""
    tp, fp, fn = (int(c.sum()) for c in _label_counts(pred, truth))
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def macro_f1(pred, truth) -> float:
    """Per-label F1 averaged uniformly over all labels; empty labels (no
    positives in truth or prediction) contribute 0 under the strict
    convention documented in the module docstring."""
    tp, fp, fn = _label_counts(pred, truth)
    denom = 2 * tp + fp + fn
    scores = np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 0.0)
    return float(scores.mean())


def hamming(pred, truth) -> float:
    """Fraction of mismatched cells. Multiply by 1000 for table-style
    reporting (see MetricsReport.hamming_x1000)."""
    p, t = _check_binary_pair(pred, truth)
    return float(np.mean(p != t))


def mean_average_precision(scores, truth) -> float | None:
    """Label-wise average precision over instance rankings, averaged over
    labels with at least one positive; None when no label has positives.

    For each label, instances are ranked by descending score (ties broken by
    ascending instance index) and AP is the mean of precision-at-hit over the
    label's positives. Any strictly monotone transform of the scores leaves
    the result unchanged.
    """
    s = as_matrix(scores, "scores")
    t = np.asarray(truth)
    if t.shape != s.shape:
        raise DomainError(f"truth shape {t.shape} != scores shape {s.shape}")
    n, big_l = s.shape
    aps = []
    for j in range(big_l):
        pos = t[:, j] == 1
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
    packed to bytes, numbered in the rows' lexicographic order."""
    f = row_normalize(as_matrix(features, "features"), "features")
    y = np.asarray(labels)
    if y.shape[0] != f.shape[0]:
        raise DomainError("features and labels must agree on instance count")
    if y.ndim != 2 or not ((y == 0) | (y == 1)).all():
        raise DomainError("labels must be a binary 2-D matrix")
    # one opaque key per row: bytes compare in the same order as the bits
    packed = np.packbits(y != 0, axis=1)
    _, group = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                         return_inverse=True)
    k = np.bincount(group)
    n_pairs = int(np.sum(k * (k - 1) // 2))
    if n_pairs == 0:
        return None
    sums = np.zeros((k.size, f.shape[1]))
    np.add.at(sums, group, f)
    centered = f - (sums / k[:, None])[group]
    spread = np.bincount(group, weights=np.sum(centered * centered, axis=1))
    return float(np.dot(k, spread) / n_pairs)


_GRAM_BLOCK = 256


def uniformity(features) -> float | None:
    """Log of the mean Gaussian-kernel value exp(-2 d^2) over all distinct
    pairs of unit-normalized features; None for fewer than two instances.
    Bounded in [-8, 0] on the unit sphere. The summand is symmetric, so
    ordered and unordered pair conventions give the same value; distinct
    unordered pairs are used. Squared distances come from the Gram matrix,
    |a - b|^2 = |a|^2 + |b|^2 - 2 a.b, one block of rows at a time."""
    f = as_matrix(features, "features")
    n = f.shape[0]
    if n < 2:
        return None
    f = row_normalize(f, "features")
    sq_norm = np.sum(f * f, axis=1)
    total = 0.0
    for start in range(0, n, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, n)
        # pairs (i, j) with j > i: columns from the block's first row on; in
        # the square block on the diagonal, the strict upper triangle only
        sq = sq_norm[start:stop, None] + sq_norm[None, start:]
        gram = f[start:stop] @ f[start:].T
        gram *= 2.0
        sq -= gram
        np.maximum(sq, 0.0, out=sq)
        sq *= -2.0
        np.exp(sq, out=sq)
        sq[:, :stop - start][np.tri(stop - start, dtype=bool)] = 0.0
        total += float(np.sum(sq))
    return float(np.log(total / (n * (n - 1) // 2)))


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
    and representation features."""
    report = MetricsReport(
        micro_f1=micro_f1(pred, truth),
        macro_f1=macro_f1(pred, truth),
        hamming=hamming(pred, truth),
    )
    if scores is not None:
        report.map = mean_average_precision(scores, truth)
    if features is not None and labels is not None:
        report.align = alignment(features, labels)
        report.uniform = uniformity(features)
    report.prr = prr_value
    return report
