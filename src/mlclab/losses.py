"""The loss zoo: contrastive losses over instance embeddings and label
prototypes, plus the logit-based baselines (binary cross-entropy, asymmetric,
ZLPR).

Every contrastive loss is an instance of one generalized engine: per anchor,
positives with nonnegative weights and a tempered-cosine softmax over the
pool (batch, prototypes, or both) minus the anchor. A loss states only its
positive coefficients, outer weights, pool layout and (msc) denominator
log-multipliers. Each id's positive pairs are one row of data (the instance
pair weight, the normalization scope, whether the prototypes are in the
pool, and msc's beta), which one builder, _build_spec, turns into that
LossSpec. The engine returns the value
with exact gradients for the embeddings and prototypes, taken through the
cosine normalization and checked against the finite-difference oracle.

Per-anchor terms are accumulated with numpy reductions in fixed order
(anchor-major, index-ascending), so results are bit-reproducible.

Loss selection by string identifier:
  bce | asy | zlpr | base | proto | mulsupcon | msc | reg | reg-noreg |
  supcon | supcon-reg
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .datamodel import ContrastiveBatch
from .errors import ConfigError, DomainError
from .numerics import (
    _cosine_backward,
    _cosine_forward,
    _inverse_norms,
    _require_live_rows,
    _softmax_rows,
    as_matrix,
    require_finite_floats,
    sigmoid,
    tempered_cosine_backward,
)

LOGIT_LOSS_IDS = ("bce", "asy", "zlpr")


@dataclass
class LossConfig:
    """Scalar knobs shared by the loss zoo; every float must be finite.

    tau is the softmax temperature applied inside the cosine similarity;
    alpha the shared-label overlap exponent of the reg losses (0 weights each
    label's positives uniformly); beta the down-weight on instance negatives
    in the prototype denominator of the MSC loss; gamma_pos / gamma_neg /
    margin parametrize the asymmetric logit loss.
    """

    tau: float = 0.1
    alpha: float = 0.0
    beta: float = 1.0
    gamma_pos: float = 0.0
    gamma_neg: float = 1.0
    margin: float = 0.0
    proto_denominator: str = "prototypes"

    def __post_init__(self):
        require_finite_floats(self)
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be nonnegative, got {self.alpha}")
        if self.beta < 0:
            # beta = 0 is the masking limit: instance negatives leave the denominator
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if self.gamma_pos < 0 or self.gamma_neg < 0:
            raise ConfigError("gamma_pos and gamma_neg must be nonnegative")
        if not (0 <= self.margin < 1):
            raise ConfigError(f"margin must be in [0, 1), got {self.margin}")
        if self.proto_denominator not in ("prototypes", "batch+prototypes"):
            raise ConfigError(
                f"proto_denominator must be 'prototypes' or 'batch+prototypes', "
                f"got {self.proto_denominator!r}"
            )


@dataclass
class GradientBundle:
    """One engine run: the loss value, its exact gradients, the LossSpec it
    ran (spec, what the labels decide) and the forward's softmax (sigma, 0
    off the denominator and gradient-opaque).

    gate_anchor / gate_pool / gate_value list, for every positive pair in
    anchor-major index-ascending order, the gate coefficient
    (-lam_norm + sigma). combined_coeff holds the final per-positive
    coefficient on the similarity (host term plus any regularizer term,
    before the outer weight), which the clamp invariant constrains to
    min(0, gate) when the regularizer is on; it is None when the bundle was
    made without gradients.

    The four gate arrays are built from spec and sigma when first read and
    then kept, so a training step that reads none of them pays nothing for
    them; a value-only bundle (compute_gradients=False) still has the gate
    arrays. prr_counts() needs none of them.
    """

    loss_value: float
    d_z: np.ndarray | None
    d_prototypes: np.ndarray | None
    spec: LossSpec
    sigma: np.ndarray = field(repr=False)
    # d loss / d s before the outer weight; None without gradients
    d_s: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def _positive_index(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.spec.positive_mask)

    @property
    def gate_anchor(self) -> np.ndarray:
        return self._positive_index[0]

    @property
    def gate_pool(self) -> np.ndarray:
        return self._positive_index[1]

    @cached_property
    def gate_value(self) -> np.ndarray:
        return (-self.spec.lam_norm + self.sigma)[self._positive_index]

    @cached_property
    def combined_coeff(self) -> np.ndarray | None:
        if self.d_s is None:
            return None
        return self.d_s[self._positive_index]

    def prr_counts(self) -> tuple[int, int]:
        """(open gates, positive pairs): prr(gate_value) is their quotient. -a +
        b > 0 exactly when b > a (IEEE subtraction with gradual underflow is
        zero only for equal operands), so counting needs no gate array."""
        positive_mask = self.spec.positive_mask
        return (int(np.count_nonzero(positive_mask & (self.sigma > self.spec.lam_norm))),
                int(np.count_nonzero(positive_mask)))


@dataclass
class RegTermResult:
    """Forward value and gradients contributed by the gate regularizer."""

    value_per_anchor: np.ndarray   # (n,) not yet scaled by the outer weights
    d_z: np.ndarray
    d_prototypes: np.ndarray | None


@dataclass
class LogitLossResult:
    """Value and gradient of a logit-based loss."""

    loss_value: float
    d_logits: np.ndarray


def prr(gate_values) -> float | None:
    """Positive regularization ratio: fraction of positive pairs whose gate
    coefficient is strictly positive. None when there are no positive pairs."""
    g = np.asarray(gate_values, dtype=np.float64)
    if g.size == 0:
        return None
    return float(np.mean(g > 0.0))


def _raw_pool(batch: ContrastiveBatch, include_batch: bool, include_prototypes: bool):
    """The anchors' inverse norms, the pool's raw rows (batch, then
    prototypes) as one fresh array with their inverse norms, and how many
    pool rows are batch rows. The pool is a copy, so it never aliases the
    anchors (see _cosine_forward); the batch rows' inverse norms are the
    anchors' own."""
    if include_prototypes and batch.prototypes is None:
        raise ConfigError("this loss requires prototypes, but the batch has none")
    if not (include_batch or include_prototypes):
        raise ConfigError("pool must include the batch, the prototypes, or both")
    z_inv = _inverse_norms(batch.z, "embeddings")
    parts, invs = ([batch.z], [z_inv]) if include_batch else ([], [])
    if include_prototypes:
        parts.append(batch.prototypes)
        invs.append(_inverse_norms(batch.prototypes, "prototypes"))
    return z_inv, np.concatenate(parts), np.concatenate(invs), (batch.n if include_batch else 0)


def _open_gates(positive_mask: np.ndarray, lam_norm: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """max(0, -lam_norm + sigma) on the positive pairs, 0 elsewhere."""
    gates = sigma - lam_norm
    np.maximum(gates, 0.0, out=gates)
    gates *= positive_mask
    return gates


def reg_term(batch: ContrastiveBatch, spec: LossSpec, sigma: np.ndarray,
             cfg: LossConfig) -> RegTermResult:
    """Gate regularizer for the positive pairs of spec at softmax scores sigma.

    For each positive pair (i, k) with normalized weight L = lam_norm[i, k]
    and softmax score sigma[i, k], the gate is max(0, -L + sigma). The
    forward contribution is -sum(gate * similarity); the gate itself is a
    constant for gradient purposes (sigma and lam_norm are detached), so each
    open gate subtracts exactly its coefficient from the host gradient and a
    positive pair can never push with a net repulsive coefficient.

    The engine folds this term into its own single backward pass; this
    standalone form is the reference the engine is tested against. Its value
    takes the engine's forward on the same pool, so the two agree bit for
    bit; its gradient takes the public backward, with the anchor and pool
    sides apart.
    """
    z_inv, pool, pool_inv, n_batch = _raw_pool(batch, spec.include_batch, spec.include_prototypes)
    s = _cosine_forward(batch.z, z_inv, pool, pool_inv, cfg.tau)
    gates = _open_gates(spec.positive_mask, spec.lam_norm, sigma)
    value_per_anchor = -np.einsum("ij,ij->i", gates, s)
    upstream = -spec.outer[:, None] * gates
    d_anchor, d_pool = tempered_cosine_backward(batch.z, pool, cfg.tau, upstream)
    d_z = d_anchor
    if spec.include_batch:
        d_z = d_z + d_pool[:n_batch]
    d_prototypes = None
    if spec.include_prototypes:
        d_prototypes = d_pool[n_batch:]
    return RegTermResult(
        value_per_anchor=value_per_anchor,
        d_z=d_z,
        d_prototypes=d_prototypes,
    )


@dataclass(frozen=True)
class LossSpec:
    """The data that defines one contrastive loss for the engine: every
    input it reads, stated once by _build_spec from the labels and the
    config.

    The pool is the batch (include_batch) followed by the prototypes
    (include_prototypes). coeff[i, k] is the forward coefficient of positive
    pair (i, k) on that pool, outer the per-anchor weights, positive_mask
    coeff > 0, total each anchor's positive mass T_i and lam_norm coeff / T_i
    (coeff where T_i is 0). denominator is (mask, shift): the denominator
    set, and what the engine adds to the logits before its softmax, -inf off
    the set and any log-multipliers on it (None when it would add nothing).
    gated adds the gate regularizer. A caller that varies only the
    embeddings or the prototypes (the finite-difference oracle) runs one
    spec through the engine again.
    """

    coeff: np.ndarray
    outer: np.ndarray
    include_batch: bool
    include_prototypes: bool
    positive_mask: np.ndarray
    total: np.ndarray
    lam_norm: np.ndarray
    denominator: tuple[np.ndarray, np.ndarray | None]
    gated: bool


def _run_engine(
    batch: ContrastiveBatch,
    spec: LossSpec,
    cfg: LossConfig,
    compute_gradients: bool = True,
) -> GradientBundle:
    """Shared forward/backward for every contrastive loss.

    Rows of coeff may sum to any positive total mass T_i (losses that
    normalize per anchor pass rows summing to 1). The per-anchor term is
    -sum_k coeff[i, k] * log( exp(s_ik) / sum_j g_ij exp(s_ij) ), summed over
    the denominator set, with log g_ij the denominator's shift, and the loss
    is sum_i outer_i * term_i. Anchors with zero positive mass contribute
    nothing (a removable singularity).

    With spec.gated, each positive pair adds -gate_ik * s_ik, where
    gate_ik = max(0, -lam_norm_ik + sigma_ik) is a detached constant. The
    cosine backward is linear in its upstream, so one backward on
    outer * (-coeff + T * sigma - gate) carries both terms.

    compute_gradients=False skips the backward pass: d_z, d_prototypes and
    combined_coeff come back as None, while the gate arrays and prr_counts()
    read the spec and sigma as usual. The finite-difference oracle and
    the PRR measurement use it.

    The engine checks nothing of the batch but rows whose norms the cosine
    kernels cannot scale (numerics._inverse_norms): its arrays come from the
    validating ContrastiveBatch constructor or, on the training and PRR
    paths, from the trusted one, where a non-finite embedding shows up as a
    non-finite loss.
    """
    z_inv, pool, pool_inv, _ = _raw_pool(batch, spec.include_batch, spec.include_prototypes)
    n, m = batch.n, pool.shape[0]
    coeff, outer = spec.coeff, spec.outer
    if coeff.shape != (n, m):
        raise DomainError(f"coeff shape {coeff.shape} != ({n}, {m})")

    s = _cosine_forward(batch.z, z_inv, pool, pool_inv, cfg.tau)
    shift = spec.denominator[1]
    # the masked logits, which the kernel turns into the softmax in place
    sigma = s.copy() if shift is None else s + shift
    lse = _softmax_rows(sigma)

    total = spec.total
    # -sum_k coeff_ik (s_ik - lse_i)
    per_anchor = lse * total - np.einsum("ij,ij->i", coeff, s)
    loss_value = float(np.dot(outer, per_anchor))
    gates = None
    if spec.gated:
        gates = _open_gates(spec.positive_mask, spec.lam_norm, sigma)
        loss_value += float(np.dot(outer, -np.einsum("ij,ij->i", gates, s)))

    if not compute_gradients:
        return GradientBundle(loss_value=loss_value, d_z=None, d_prototypes=None,
                              spec=spec, sigma=sigma)

    # d loss / d s per anchor: -coeff on the positive slot, plus T_i * sigma
    # over the denominator, minus the detached gate on the positive slot
    d_s = sigma * total[:, None]
    d_s -= coeff
    if gates is not None:
        d_s -= gates
    # with the batch in the pool, d_z carries the anchor and the pool side
    d_z, d_rest = _cosine_backward(batch.z, z_inv, pool, pool_inv, cfg.tau,
                                   outer[:, None] * d_s, s, shared=spec.include_batch)
    if spec.include_prototypes:
        d_prototypes = d_rest
    elif batch.prototypes is not None:
        d_prototypes = np.zeros_like(batch.prototypes)
    else:
        d_prototypes = None
    return GradientBundle(loss_value=loss_value, d_z=d_z, d_prototypes=d_prototypes,
                          spec=spec, sigma=sigma, d_s=d_s)


@lru_cache(maxsize=64)
def _denominator(n: int, m: int, include_batch: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The whole pool, minus the anchor itself when the batch is in it, as a
    mask and as the shift the engine adds to the logits (-inf on the
    diagonal; None without the batch). One read-only pair per shape, shared
    by every step of that shape."""
    mask = np.ones((n, m), dtype=bool)
    shift = None
    if include_batch:
        np.fill_diagonal(mask, False)
        shift = np.zeros((n, m))
        np.fill_diagonal(shift, -np.inf)
        shift.flags.writeable = False
    _require_live_rows(mask)
    mask.flags.writeable = False
    return mask, shift


def _jaccard(yf: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """|y_i & y_k| / |y_i | y_k|: every row carries a label, so the union is
    never empty."""
    inter = yf @ yf.T
    sizes = yf.sum(axis=1)
    return np.where(inter > 0, inter / (sizes[:, None] + sizes[None, :] - inter), 0.0)


def _uniform(yf: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """1 on every pair."""
    return np.ones((yf.shape[0], yf.shape[0]))


def _inverse_union(yf: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """1 / |y_i | y_k|, down-weighting pairs with many labels."""
    sizes = yf.sum(axis=1)
    return 1.0 / (sizes[:, None] + sizes[None, :] - yf @ yf.T)


def _overlap(yf: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """(|y_i & y_k| / |y_k|) ** alpha on pairs sharing a label; alpha = 0
    weights each label's carriers uniformly."""
    inter = yf @ yf.T
    return np.where(inter > 0, (inter / yf.sum(axis=1)) ** cfg.alpha, 0.0)


class _ContrastiveLoss(NamedTuple):
    """One contrastive loss id: its positive-pair definition, which
    _build_spec reads, and the facts the package asks of it."""

    # (yf, cfg) -> (n, n) weights of the instance pairs; None: no instance
    # positives, and the batch joins the pool only under
    # proto_denominator = "batch+prototypes"
    weight: Callable[[np.ndarray, LossConfig], np.ndarray] | None
    # how the weights are normalized: "anchor" over all of an anchor's
    # positives; "label" per anchor label, then averaged over the anchor's
    # labels; "pair" per label, each (instance, label) pair weighing one
    # over the batch's count of them
    scope: str
    prototypes: bool            # the label prototypes are in the pool
    host: str | None = None     # the unregularized id this one adds the gate regularizer to
    single_label: bool = False  # every row must carry exactly one label
    beta: bool = False          # log(beta) on the denominator's instance columns


# the gate regularizer is chosen by id: reg-noreg and supcon host reg and
# supcon-reg; supcon is mulsupcon on rows that carry exactly one label
# (SupCon, Khosla et al. 2020)
_CONTRASTIVE_LOSSES = {
    "base": _ContrastiveLoss(_jaccard, "anchor", False),
    "proto": _ContrastiveLoss(None, "label", True),
    "mulsupcon": _ContrastiveLoss(_uniform, "pair", False),
    "msc": _ContrastiveLoss(_inverse_union, "label", True, beta=True),
    "reg": _ContrastiveLoss(_overlap, "label", True, host="reg-noreg"),
    "reg-noreg": _ContrastiveLoss(_overlap, "label", True),
    "supcon": _ContrastiveLoss(_uniform, "pair", False, single_label=True),
    "supcon-reg": _ContrastiveLoss(_uniform, "pair", False, host="supcon", single_label=True),
}


def _build_spec(row: _ContrastiveLoss, batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """The LossSpec of a row on the batch's labels. The pool is the batch
    (weighted by row.weight, the anchor itself excluded), then the label
    prototypes, each anchor's own weighing one. Under the per-label scopes,
    label j of anchor i shares one unit of weight among the pool rows
    carrying j, and a label with no such row drops out; under "anchor",
    the anchor's positives share one unit and an anchor with none is
    skipped."""
    yf = batch.y.astype(np.float64)
    n, big_l = yf.shape
    include_batch = row.weight is not None or cfg.proto_denominator == "batch+prototypes"
    weights = []
    if include_batch:
        weights.append(np.zeros((n, n)) if row.weight is None else row.weight(yf, cfg))
    if row.prototypes:
        weights.append(yf)
    # one part is used as it is: each weight function returns a fresh array
    f = np.concatenate(weights, axis=1) if len(weights) > 1 else weights[0]
    if include_batch:
        np.fill_diagonal(f, 0.0)
    if row.scope == "anchor":
        total = f.sum(axis=1)
        coeff = np.where(total[:, None] > 0.0, f / np.where(total > 0, total, 1.0)[:, None], 0.0)
    else:
        # without instance positives, a label's prototype is its one carrier
        # and keeps its weight
        coeff = f
        if row.weight is not None:
            pool_y = np.concatenate([yf, np.eye(big_l)]) if row.prototypes else yf
            # norm[i, j]: the weight of label j's carriers in anchor i's pool
            norm = yf * (f @ pool_y)
            inner = np.where(norm > 0, yf / np.where(norm > 0, norm, 1.0), 0.0)
            coeff = f * (inner @ pool_y.T)
        if row.scope == "label":
            coeff = coeff / yf.sum(axis=1)[:, None]
    total = coeff.sum(axis=1)
    mask, shift = _denominator(n, coeff.shape[1], include_batch)
    if row.beta:
        # log(beta) on the instance columns; beta = 0 removes them
        shift = shift.copy()
        shift[:, :n] += np.log(cfg.beta) if cfg.beta > 0 else -np.inf
        mask = mask & (shift > -np.inf)
        _require_live_rows(mask)
    outer = 1.0 / (yf.sum() if row.scope == "pair" else n)
    return LossSpec(coeff=coeff, outer=np.full(n, outer), include_batch=include_batch,
                    include_prototypes=row.prototypes, positive_mask=coeff > 0.0, total=total,
                    lam_norm=coeff / np.where(total > 0.0, total, 1.0)[:, None],
                    denominator=(mask, shift), gated=row.host is not None)


CONTRASTIVE_LOSS_IDS = tuple(_CONTRASTIVE_LOSSES)
REGULARIZED_LOSS_IDS = tuple(k for k, row in _CONTRASTIVE_LOSSES.items() if row.host)
PROTOTYPE_LOSS_IDS = tuple(k for k, row in _CONTRASTIVE_LOSSES.items() if row.prototypes)
LOSS_IDS = LOGIT_LOSS_IDS + CONTRASTIVE_LOSS_IDS


# ---------------------------------------------------------------------------
# logit-based baselines
# ---------------------------------------------------------------------------

_PROB_FLOOR = 1e-12


def _check_logits(logits, y):
    x = as_matrix(logits, "logits")
    yb = np.asarray(y, dtype=np.float64)
    if yb.shape != x.shape:
        raise DomainError(f"labels shape {yb.shape} != logits shape {x.shape}")
    return x, yb


def loss_bce(logits, y) -> LogitLossResult:
    """Mean binary cross-entropy over all (instance, label) cells, with the
    probabilities clamped away from 0 and 1 before the logs."""
    x, yb = _check_logits(logits, y)
    n, big_l = x.shape
    p = sigmoid(x)
    p_lo = np.maximum(p, _PROB_FLOOR)
    p_hi = np.minimum(p, 1.0 - _PROB_FLOOR)
    value = -(yb * np.log(p_lo) + (1.0 - yb) * np.log(1.0 - p_hi)).sum() / (n * big_l)
    in_lo = p > _PROB_FLOOR
    in_hi = p < 1.0 - _PROB_FLOOR
    d = -(yb * (1.0 - p) * in_lo - (1.0 - yb) * p * in_hi) / (n * big_l)
    return LogitLossResult(loss_value=float(value), d_logits=d)


def loss_asymmetric(logits, y, cfg: LossConfig) -> LogitLossResult:
    """Asymmetric logit loss: the positive and negative terms get separate
    focusing exponents, and a hard margin shifts the probability before the
    negative term so easy negatives drop out entirely.

    With gamma_pos = gamma_neg = 0 and margin = 0 this is exactly loss_bce.
    At margin = 1 every shifted score clips to zero and the positive-label
    logs saturate at the probability floor (a flat, zero-gradient region).
    The clip kink at p = margin takes subgradient 0.
    """
    x, yb = _check_logits(logits, y)
    n, big_l = x.shape
    p = sigmoid(x)
    s = np.maximum(p - cfg.margin, 0.0)
    s_lo = np.maximum(s, _PROB_FLOOR)
    s_hi = np.minimum(s, 1.0 - _PROB_FLOOR)
    gp, gn = cfg.gamma_pos, cfg.gamma_neg

    pos_mod = (1.0 - s) ** gp
    neg_mod = s ** gn
    value = -(yb * pos_mod * np.log(s_lo) + (1.0 - yb) * neg_mod * np.log(1.0 - s_hi)).sum()
    value /= n * big_l

    # d/ds of each term; modulating-factor derivatives only when the exponent is live
    d_pos = pos_mod * (s > _PROB_FLOOR) / s_lo
    if gp > 0:
        d_pos = d_pos - gp * np.maximum(1.0 - s, _PROB_FLOOR) ** (gp - 1.0) * np.log(s_lo)
    d_neg = -neg_mod * (s < 1.0 - _PROB_FLOOR) / (1.0 - s_hi)
    if gn > 0:
        d_neg = d_neg + gn * np.maximum(s, _PROB_FLOOR) ** (gn - 1.0) * np.log(1.0 - s_hi)
    ds = yb * d_pos + (1.0 - yb) * d_neg
    d = -(ds * (p > cfg.margin) * p * (1.0 - p)) / (n * big_l)
    return LogitLossResult(loss_value=float(value), d_logits=d)


def loss_zlpr(logits, y) -> LogitLossResult:
    """Rank-based loss with a zero threshold: per instance,
    log(1 + sum over positives of exp(-s)) + log(1 + sum over negatives of
    exp(s)), averaged over the batch. Computed via log-sum-exp against an
    implicit zero logit, so it is stable for any score magnitude."""
    x, yb = _check_logits(logits, y)
    n = x.shape[0]
    pos_logits = np.where(yb == 1, -x, -np.inf)
    neg_logits = np.where(yb == 0, x, -np.inf)

    def lse_with_zero(a):
        rowmax = np.maximum(np.max(a, axis=1), 0.0)
        total = np.exp(-rowmax) + np.sum(np.exp(a - rowmax[:, None]), axis=1)
        return rowmax + np.log(total)

    a = lse_with_zero(pos_logits)
    b = lse_with_zero(neg_logits)
    value = float((a + b).sum() / n)
    d = (-np.exp(pos_logits - a[:, None]) + np.exp(neg_logits - b[:, None])) / n
    return LogitLossResult(loss_value=value, d_logits=d)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def needs_prototypes(loss_id: str) -> bool:
    return loss_id in PROTOTYPE_LOSS_IDS


def needs_single_label(loss_id: str) -> bool:
    return loss_id in _CONTRASTIVE_LOSSES and _CONTRASTIVE_LOSSES[loss_id].single_label


def host_loss_id(loss_id: str) -> str:
    """The unregularized id a regularized id adds the gate regularizer to;
    any other id is its own host."""
    row = _CONTRASTIVE_LOSSES.get(loss_id)
    return row.host if row is not None and row.host else loss_id


def is_contrastive(loss_id: str) -> bool:
    return loss_id in CONTRASTIVE_LOSS_IDS


def check_loss_id(loss_id: str) -> str:
    if loss_id not in LOSS_IDS:
        raise ConfigError(
            f"unknown loss id {loss_id!r}; valid ids: {' | '.join(LOSS_IDS)}"
        )
    return loss_id


def contrastive_spec(loss_id: str, batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """The spec of a contrastive loss id on the batch's labels. A
    single-label id on a row without exactly one label is a DomainError."""
    check_loss_id(loss_id)
    if loss_id not in _CONTRASTIVE_LOSSES:
        raise ConfigError(f"{loss_id!r} is not a contrastive loss id")
    row = _CONTRASTIVE_LOSSES[loss_id]
    if row.single_label and np.any(batch.y.sum(axis=1) != 1):
        raise DomainError(
            f"{loss_id} requires exactly one label per instance; "
            "use the multi-label losses for multi-label batches"
        )
    return _build_spec(row, batch, cfg)


def contrastive_loss(loss_id: str, batch: ContrastiveBatch, cfg: LossConfig,
                     compute_gradients: bool = True) -> GradientBundle:
    """Evaluate a contrastive loss by string identifier: build the id's spec
    (contrastive_spec) and run it through the engine once."""
    return _run_engine(batch, contrastive_spec(loss_id, batch, cfg), cfg, compute_gradients)


def logit_loss(loss_id: str, logits, y, cfg: LossConfig) -> LogitLossResult:
    """Evaluate a logit-based loss by string identifier."""
    check_loss_id(loss_id)
    if loss_id == "bce":
        return loss_bce(logits, y)
    if loss_id == "asy":
        return loss_asymmetric(logits, y, cfg)
    if loss_id == "zlpr":
        return loss_zlpr(logits, y)
    raise ConfigError(f"{loss_id!r} is not a logit loss id")
