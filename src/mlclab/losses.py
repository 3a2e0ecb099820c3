"""The loss zoo: contrastive losses over instance embeddings and label
prototypes, plus the logit-based baselines (binary cross-entropy, asymmetric,
ZLPR).

Every contrastive loss is an instance of one generalized engine: per anchor,
a set of positives with nonnegative attraction weights, a denominator set,
and a tempered-cosine softmax. The engine returns the loss value together
with exact analytic gradients with respect to the embeddings and (when used)
the prototypes, differentiated through the cosine normalization rather than
the dot-product shorthand. Gradients are verified against the central
finite-difference oracle in the verification module.

Per-anchor terms are accumulated with numpy reductions in fixed order
(anchor-major, index-ascending), so results are bit-reproducible.

Loss selection by string identifier:
  bce | asy | zlpr | base | proto | mulsupcon | msc | reg | reg-noreg |
  supcon | supcon-reg
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .datamodel import ContrastiveBatch
from .errors import ConfigError, DomainError
from .numerics import (
    as_matrix,
    masked_logsumexp,
    require_finite_floats,
    sigmoid,
    tempered_cosine_backward,
    tempered_cosine_matrix,
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
class PairStructure:
    """Intermediate of the contrastive engine.

    The pool is the concatenation of the batch embeddings (when
    include_batch) and the prototypes (when include_prototypes); anchors are
    always the batch instances. coeff holds the final forward coefficient of
    each positive pair; lam_norm is coeff normalized to sum to one per anchor
    (the quantity the regularizer gate compares against sigma); sigma holds
    the denominator softmax scores and is gradient-opaque.
    """

    include_batch: bool
    include_prototypes: bool
    n_batch_in_pool: int
    positive_mask: np.ndarray      # (n, m) bool
    denominator_mask: np.ndarray   # (n, m) bool, after any g-multiplier masking
    lam: np.ndarray                # (n, m) raw positive weights
    coeff: np.ndarray              # (n, m) final forward coefficients
    lam_norm: np.ndarray           # (n, m) coeff / (per-anchor total mass)
    sigma: np.ndarray              # (n, m) softmax scores, 0 off the denominator
    outer: np.ndarray              # (n,) per-anchor outer weights

    def negatives_mask(self) -> np.ndarray:
        return self.denominator_mask & ~self.positive_mask


@dataclass
class GradientBundle:
    """Loss value plus exact gradients and per-positive gate bookkeeping.

    gate_anchor / gate_pool / gate_value list, for every positive pair in
    anchor-major index-ascending order, the gate coefficient
    (-lam_norm + sigma). combined_coeff holds the final per-positive
    coefficient on the similarity (host term plus any regularizer term,
    before the outer weight), which the clamp invariant constrains to
    min(0, gate) when the regularizer is on.
    """

    loss_value: float
    d_z: np.ndarray | None
    d_prototypes: np.ndarray | None
    gate_anchor: np.ndarray
    gate_pool: np.ndarray
    gate_value: np.ndarray
    combined_coeff: np.ndarray
    structure: PairStructure


@dataclass
class RegTermResult:
    """Forward value and gradients contributed by the gate regularizer."""

    value_per_anchor: np.ndarray   # (n,) not yet scaled by the outer weights
    d_z: np.ndarray
    d_prototypes: np.ndarray | None
    gates: np.ndarray              # (n, m), zero off positive pairs


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


def _pool_embeddings(batch: ContrastiveBatch, include_batch: bool, include_prototypes: bool):
    parts = []
    if include_batch:
        parts.append(batch.z)
    if include_prototypes:
        if batch.prototypes is None:
            raise ConfigError("this loss requires prototypes, but the batch has none")
        parts.append(batch.prototypes)
    if not parts:
        raise ConfigError("pool must include the batch, the prototypes, or both")
    n_batch = batch.n if include_batch else 0
    return np.vstack(parts), n_batch


def reg_term(batch: ContrastiveBatch, structure: PairStructure, cfg: LossConfig) -> RegTermResult:
    """Gate regularizer for positive pairs.

    For each positive pair (i, k) with normalized weight L = lam_norm[i, k]
    and softmax score sigma[i, k], the gate is max(0, -L + sigma). The
    forward contribution is -sum(gate * similarity); the gate itself is a
    constant for gradient purposes (sigma and lam_norm are detached), so each
    open gate subtracts exactly its coefficient from the host gradient and a
    positive pair can never push with a net repulsive coefficient.

    The engine folds this term into its own single backward pass; this
    standalone form is the reference the engine is tested against.
    """
    pool, n_batch = _pool_embeddings(
        batch, structure.include_batch, structure.include_prototypes
    )
    s = tempered_cosine_matrix(batch.z, pool, cfg.tau)
    gates = np.where(
        structure.positive_mask,
        np.maximum(0.0, -structure.lam_norm + structure.sigma),
        0.0,
    )
    value_per_anchor = -np.sum(gates * np.where(structure.positive_mask, s, 0.0), axis=1)
    upstream = -structure.outer[:, None] * gates
    d_anchor, d_pool = tempered_cosine_backward(batch.z, pool, cfg.tau, upstream)
    d_z = d_anchor
    if structure.include_batch:
        d_z = d_z + d_pool[:n_batch]
    d_prototypes = None
    if structure.include_prototypes:
        d_prototypes = d_pool[n_batch:]
    return RegTermResult(
        value_per_anchor=value_per_anchor,
        d_z=d_z,
        d_prototypes=d_prototypes,
        gates=gates,
    )


@dataclass
class LossSpec:
    """The data that defines one contrastive loss for the engine.

    The pool is the batch (include_batch) followed by the prototypes
    (include_prototypes). coeff[i, k] is the forward coefficient of positive
    pair (i, k) on that pool, denom_mask the softmax support, and outer the
    per-anchor weights. log_g, when given, adds log-multipliers to the
    denominator logits (-inf removes an entry). lam is the raw positive
    weight matrix kept in the PairStructure (coeff when None).
    """

    coeff: np.ndarray
    denom_mask: np.ndarray
    outer: np.ndarray
    include_batch: bool
    include_prototypes: bool
    log_g: np.ndarray | None = None
    lam: np.ndarray | None = None


def _run_engine(
    batch: ContrastiveBatch,
    spec: LossSpec,
    cfg: LossConfig,
    regularized: bool,
    strict: bool = False,
    compute_gradients: bool = True,
) -> GradientBundle:
    """Shared forward/backward for every contrastive loss.

    Rows of coeff may sum to any positive total mass T_i (losses that
    normalize per anchor pass rows summing to 1). The per-anchor term is
    -sum_k coeff[i, k] * log( exp(s_ik) / sum_j g_ij exp(s_ij) ), summed over
    the denominator set, and the loss is sum_i outer_i * term_i. Anchors with
    zero positive mass contribute nothing (a removable singularity of the
    normalized form); strict mode turns them into a domain error.

    With regularized on, each positive pair adds -gate_ik * s_ik, where
    gate_ik = max(0, -lam_norm_ik + sigma_ik) is a detached constant. The
    cosine backward is linear in its upstream, so one backward on
    outer * (-coeff + T * sigma - gate) carries both terms.

    compute_gradients=False skips the backward pass and gate extraction
    (d_z and d_prototypes come back as None, gate arrays empty); the
    finite-difference oracle uses this to evaluate values cheaply.
    """
    pool, n_batch = _pool_embeddings(batch, spec.include_batch, spec.include_prototypes)
    n, m = batch.n, pool.shape[0]
    coeff, outer = spec.coeff, spec.outer
    if coeff.shape != (n, m):
        raise DomainError(f"coeff shape {coeff.shape} != ({n}, {m})")

    s = tempered_cosine_matrix(batch.z, pool, cfg.tau)
    if spec.log_g is None:
        den_logits = s
        eff_mask = spec.denom_mask
    else:
        with np.errstate(invalid="ignore"):
            den_logits = s + spec.log_g
        eff_mask = spec.denom_mask & (spec.log_g > -np.inf)

    lse = masked_logsumexp(den_logits, eff_mask)
    sigma = np.exp(np.where(eff_mask, den_logits - lse[:, None], -np.inf))
    log_p = s - lse[:, None]

    positive_mask = coeff > 0.0
    total = coeff.sum(axis=1)
    if strict and np.any(total <= 0.0):
        bad = int(np.nonzero(total <= 0.0)[0][0])
        raise DomainError(f"anchor {bad} has no positive pairs (strict mode)")
    safe_total = np.where(total > 0.0, total, 1.0)
    lam_norm = np.where(positive_mask, coeff / safe_total[:, None], 0.0)

    per_anchor = -np.sum(coeff * np.where(positive_mask, log_p, 0.0), axis=1)
    loss_value = float(np.dot(outer, per_anchor))
    gates = None
    if regularized:
        gates = np.where(positive_mask, np.maximum(0.0, -lam_norm + sigma), 0.0)
        loss_value += float(
            np.dot(outer, -np.sum(gates * np.where(positive_mask, s, 0.0), axis=1))
        )

    structure = PairStructure(
        include_batch=spec.include_batch,
        include_prototypes=spec.include_prototypes,
        n_batch_in_pool=n_batch,
        positive_mask=positive_mask,
        denominator_mask=eff_mask,
        lam=coeff if spec.lam is None else spec.lam,
        coeff=coeff,
        lam_norm=lam_norm,
        sigma=sigma,
        outer=outer,
    )

    if not compute_gradients:
        empty = np.empty(0)
        return GradientBundle(
            loss_value=loss_value,
            d_z=None,
            d_prototypes=None,
            gate_anchor=empty,
            gate_pool=empty,
            gate_value=empty,
            combined_coeff=empty,
            structure=structure,
        )

    # d loss / d s per anchor: -coeff on the positive slot, plus T_i * sigma
    # over the denominator, minus the detached gate on the positive slot
    d_s = -coeff + total[:, None] * sigma
    combined = np.where(positive_mask, d_s, 0.0)
    if gates is not None:
        d_s = d_s - gates
        combined = combined - gates
    d_anchor, d_pool = tempered_cosine_backward(batch.z, pool, cfg.tau, outer[:, None] * d_s)
    d_z = d_anchor
    if spec.include_batch:
        d_z = d_z + d_pool[:n_batch]
    if spec.include_prototypes:
        d_prototypes = d_pool[n_batch:]
    elif batch.prototypes is not None:
        d_prototypes = np.zeros_like(batch.prototypes)
    else:
        d_prototypes = None

    gi, gk = np.nonzero(positive_mask)
    return GradientBundle(
        loss_value=loss_value,
        d_z=d_z,
        d_prototypes=d_prototypes,
        gate_anchor=gi,
        gate_pool=gk,
        gate_value=(-lam_norm + sigma)[gi, gk],
        combined_coeff=combined[gi, gk],
        structure=structure,
    )


def _label_stats(y: np.ndarray):
    yf = y.astype(np.float64)
    sizes = yf.sum(axis=1)
    inter = yf @ yf.T
    union = sizes[:, None] + sizes[None, :] - inter
    return yf, sizes, inter, union


def _off_diagonal_mask(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def _denominator_mask(n: int, m: int, include_batch: bool) -> np.ndarray:
    """The whole pool, minus the anchor itself when the batch is in it."""
    mask = np.ones((n, m), dtype=bool)
    if include_batch:
        mask[:, :n] = _off_diagonal_mask(n)
    return mask


def _anchor_mean_spec(lam: np.ndarray, include_batch: bool, include_prototypes: bool) -> LossSpec:
    """Raw weights lam normalized to sum to one per anchor (the anchor itself
    excluded), with the per-anchor terms averaged over the batch."""
    n, m = lam.shape
    if include_batch:
        lam[:, :n][np.eye(n, dtype=bool)] = 0.0
    total = lam.sum(axis=1)
    coeff = np.where(total[:, None] > 0.0, lam / np.where(total > 0, total, 1.0)[:, None], 0.0)
    return LossSpec(
        coeff=coeff,
        denom_mask=_denominator_mask(n, m, include_batch),
        outer=np.full(n, 1.0 / n),
        include_batch=include_batch,
        include_prototypes=include_prototypes,
        lam=lam,
    )


def _spec_base(batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """Jaccard-weighted contrastive loss over batch instances.

    Positives of an anchor are the other instances sharing at least one
    label, weighted by Jaccard similarity of the label sets and normalized by
    their sum; the denominator is the rest of the batch. Anchors sharing no
    label with anyone are skipped.
    """
    _, _, inter, union = _label_stats(batch.y)
    with np.errstate(invalid="ignore", divide="ignore"):
        jac = np.where(inter > 0, inter / union, 0.0)
    return _anchor_mean_spec(jac, include_batch=True, include_prototypes=False)


def _spec_supcon(batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """Supervised contrastive loss for single-label batches; positives are
    the other instances of the anchor's class with uniform weights."""
    if np.any(batch.y.sum(axis=1) != 1):
        raise DomainError(
            "supcon requires exactly one label per instance; "
            "use the multi-label losses for multi-label batches"
        )
    yf = batch.y.astype(np.float64)
    return _anchor_mean_spec(yf @ yf.T, include_batch=True, include_prototypes=False)


def _spec_proto(batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """Prototype-anchored loss: each instance is attracted to the prototypes
    of its labels, uniformly weighted; the softmax runs over the prototype
    set (or over batch plus prototypes with proto_denominator set to
    "batch+prototypes"). Gradients flow to both embeddings and prototypes."""
    include_batch = cfg.proto_denominator == "batch+prototypes"
    n, big_l = batch.n, batch.n_labels
    m = n + big_l if include_batch else big_l
    lam = np.zeros((n, m))
    lam[:, m - big_l:] = batch.y
    return _anchor_mean_spec(lam, include_batch=include_batch, include_prototypes=True)


def _spec_mulsupcon(batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """Per-label contrastive loss: each (instance, label) pair acts as its
    own anchor with uniform weight over that label's other carriers, and the
    grand total is normalized by the number of (instance, label) pairs in the
    batch. Empty per-label positive sets drop out."""
    yf = batch.y.astype(np.float64)
    n = batch.n
    cnt = yf.sum(axis=0)
    invc = np.where(cnt > 1, 1.0 / np.maximum(cnt - 1.0, 1.0), 0.0)
    lam = (yf * invc[None, :]) @ yf.T
    lam[np.eye(n, dtype=bool)] = 0.0
    return LossSpec(
        coeff=lam,
        denom_mask=_denominator_mask(n, n, include_batch=True),
        outer=np.full(n, 1.0 / yf.sum()),
        include_batch=True,
        include_prototypes=False,
        lam=lam,
    )


def _spec_msc(batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """Frequency-reweighted contrastive loss with prototypes.

    For each anchor label, the positives are the other carriers of that label
    plus its prototype; instance pairs are weighted by the inverse size of
    the label union, prototypes by one, normalized per label. The softmax
    denominator spans batch plus prototypes (minus the anchor), with instance
    terms multiplied by beta; beta = 0 removes instance negatives entirely.
    """
    yf, sizes, inter, union = _label_stats(batch.y)
    n, big_l = batch.n, batch.n_labels
    off_diag = _off_diagonal_mask(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_inst = np.where(off_diag & (union > 0), 1.0 / union, 0.0)
    # per-(anchor, label) normalizer: carriers' f plus 1 for the prototype
    norm = yf * ((f_inst @ yf) + 1.0)
    inner = np.where(norm > 0, yf / np.where(norm > 0, norm, 1.0), 0.0)
    coeff_inst = f_inst * (inner @ yf.T) * (inter > 0) * off_diag
    coeff = np.hstack([coeff_inst, inner]) / sizes[:, None]

    log_g = np.zeros((n, n + big_l))
    with np.errstate(divide="ignore"):
        log_g[:, :n] = np.log(cfg.beta) if cfg.beta > 0 else -np.inf
    return LossSpec(
        coeff=coeff,
        denom_mask=_denominator_mask(n, n + big_l, include_batch=True),
        outer=np.full(n, 1.0 / n),
        include_batch=True,
        include_prototypes=True,
        log_g=log_g,
    )


def _spec_reg(batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """Multi-label contrastive loss with prototypes in the pool, the host of
    the gate regularizer.

    Positive structure follows the per-label scheme of mulsupcon, but the
    prototypes join the batch: each anchor label contributes its other
    carriers plus its prototype, weighted by the shared-label overlap ratio
    (|y_i & y_k| / |y_k|) ** alpha and normalized per label, with outer
    weight one over the anchor's label count. alpha = 0 weights each label's
    positives uniformly. The softmax denominator is batch plus prototypes
    minus the anchor.
    """
    yf = batch.y.astype(np.float64)
    sizes = yf.sum(axis=1)
    n, big_l = batch.n, batch.n_labels
    pool_y = np.vstack([yf, np.eye(big_l)])
    m = n + big_l
    self_cols = np.zeros((n, m), dtype=bool)
    self_cols[:, :n] = np.eye(n, dtype=bool)

    inter_pool = yf @ pool_y.T
    pool_sizes = pool_y.sum(axis=1)
    ratio = inter_pool / pool_sizes[None, :]
    f_pool = np.where(inter_pool > 0, ratio ** cfg.alpha, 0.0)
    f_pool[self_cols] = 0.0
    # per-(anchor, label) normalizer over that label's pool carriers
    norm = yf * (f_pool @ pool_y)
    inner = np.where(norm > 0, yf / np.where(norm > 0, norm, 1.0), 0.0)
    lam = f_pool * (inner @ pool_y.T)
    return LossSpec(
        coeff=lam / sizes[:, None],
        denom_mask=_denominator_mask(n, m, include_batch=True),
        outer=np.full(n, 1.0 / n),
        include_batch=True,
        include_prototypes=True,
        lam=lam,
    )


class _ContrastiveLoss(NamedTuple):
    """Everything the package knows about one contrastive loss id."""

    build: Callable[[ContrastiveBatch, LossConfig], LossSpec]
    host: str | None      # the unregularized id this one adds the gate regularizer to
    prototypes: bool      # the pool includes trainable label prototypes
    single_label: bool    # every row must carry exactly one label


# the gate regularizer is chosen by id: reg-noreg and supcon host reg and supcon-reg
_CONTRASTIVE_LOSSES = {
    "base": _ContrastiveLoss(_spec_base, None, False, False),
    "proto": _ContrastiveLoss(_spec_proto, None, True, False),
    "mulsupcon": _ContrastiveLoss(_spec_mulsupcon, None, False, False),
    "msc": _ContrastiveLoss(_spec_msc, None, True, False),
    "reg": _ContrastiveLoss(_spec_reg, "reg-noreg", True, False),
    "reg-noreg": _ContrastiveLoss(_spec_reg, None, True, False),
    "supcon": _ContrastiveLoss(_spec_supcon, None, False, True),
    "supcon-reg": _ContrastiveLoss(_spec_supcon, "supcon", False, True),
}
CONTRASTIVE_LOSS_IDS = tuple(_CONTRASTIVE_LOSSES)
REGULARIZED_LOSS_IDS = tuple(k for k, row in _CONTRASTIVE_LOSSES.items() if row.host)
PROTOTYPE_LOSS_IDS = tuple(k for k, row in _CONTRASTIVE_LOSSES.items() if row.prototypes)
LOSS_IDS = LOGIT_LOSS_IDS + CONTRASTIVE_LOSS_IDS


# guards 0/0 in the matrix form's weight normalization
_MATRIX_EPSILON = 1e-12


def loss_reg_matrix_value(batch: ContrastiveBatch, cfg: LossConfig, use_reg: bool = True) -> float:
    """Matrix-form value of the regularized loss at alpha = 0.

    Computes the same number as the reg loss (reg-noreg with use_reg off)
    via dense masked-softmax algebra on the joined pool: an (m, m, L)
    shared-label tensor yields the pair weights, a diagonal mask removes
    self-similarity, and the gate term is assembled from the detached
    scores. Used to cross-check the per-anchor summation; the epsilon guard
    in the weight normalization perturbs values by at most ~1e-12 relative.
    """
    if batch.prototypes is None:
        raise ConfigError("reg loss requires prototypes")
    if cfg.alpha > 0:
        raise ConfigError("matrix form covers alpha = 0 only")
    pool = np.vstack([batch.z, batch.prototypes])
    pool_y = np.vstack([batch.y.astype(np.float64), np.eye(batch.n_labels)])
    m = pool.shape[0]
    sim = tempered_cosine_matrix(pool, pool, cfg.tau)
    mask_d = _off_diagonal_mask(m)

    shared = np.einsum("ac,bc->abc", pool_y, pool_y)
    shared *= mask_d[:, :, None]
    norm = shared.sum(axis=1)
    lam = (shared / (norm[:, None, :] + _MATRIX_EPSILON)).sum(axis=2)
    lam_norm = lam / pool_y.sum(axis=1)[:, None]

    lse = masked_logsumexp(sim, mask_d)
    log_p = np.where(mask_d, sim - lse[:, None], 0.0)
    sigma = np.where(mask_d, np.exp(sim - lse[:, None]), 0.0)

    per_anchor = -(lam_norm * log_p).sum(axis=1)
    if use_reg:
        gates = np.maximum(-lam_norm + sigma, 0.0) * (lam_norm > 0)
        per_anchor = per_anchor - (gates * sim).sum(axis=1)
    n = batch.n
    return float(per_anchor[:n].sum() / n)


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


def contrastive_loss(loss_id: str, batch: ContrastiveBatch, cfg: LossConfig,
                     compute_gradients: bool = True, strict: bool = False) -> GradientBundle:
    """Evaluate a contrastive loss by string identifier: build the id's spec
    and run it through the engine once. strict turns an anchor without
    positive pairs into a DomainError."""
    check_loss_id(loss_id)
    if loss_id not in _CONTRASTIVE_LOSSES:
        raise ConfigError(f"{loss_id!r} is not a contrastive loss id")
    row = _CONTRASTIVE_LOSSES[loss_id]
    return _run_engine(batch, row.build(batch, cfg), cfg, row.host is not None,
                       strict=strict, compute_gradients=compute_gradients)


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
