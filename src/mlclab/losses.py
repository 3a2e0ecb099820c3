"""The loss zoo: contrastive losses over instance embeddings and label
prototypes, plus the logit-based baselines (binary cross-entropy, asymmetric,
ZLPR).

Every contrastive loss is an instance of one generalized engine: per anchor,
positives with nonnegative weights and a tempered-cosine softmax over the
pool (batch, prototypes, or both) minus the anchor. A loss states only its
positive coefficients, outer weights, pool layout and (msc) denominator
log-multipliers; mulsupcon, supcon, msc and reg build their per-label
positives with one function, _per_label_lam. The engine returns the value
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
    min(0, gate) when the regularizer is on; it is None when the bundle was
    made without gradients.

    The four gate arrays are built from the structure when first read and
    then kept, so a training step that reads none of them pays nothing for
    them; a value-only bundle (compute_gradients=False) still has the gate
    arrays. prr_counts() needs none of them.
    """

    loss_value: float
    d_z: np.ndarray | None
    d_prototypes: np.ndarray | None
    structure: PairStructure
    # d loss / d s before the outer weight; None without gradients
    d_s: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def _positive_index(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.structure.positive_mask)

    @property
    def gate_anchor(self) -> np.ndarray:
        return self._positive_index[0]

    @property
    def gate_pool(self) -> np.ndarray:
        return self._positive_index[1]

    @cached_property
    def gate_value(self) -> np.ndarray:
        st = self.structure
        return (-st.lam_norm + st.sigma)[self._positive_index]

    @cached_property
    def combined_coeff(self) -> np.ndarray | None:
        if self.d_s is None:
            return None
        return self.d_s[self._positive_index]

    def prr_counts(self) -> tuple[int, int]:
        """(open gates, positive pairs): prr(gate_value) is their quotient. -a +
        b > 0 exactly when b > a (IEEE subtraction with gradual underflow is
        zero only for equal operands), so counting needs no gate array."""
        st = self.structure
        return (int(np.count_nonzero(st.positive_mask & (st.sigma > st.lam_norm))),
                int(np.count_nonzero(st.positive_mask)))


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


def reg_term(batch: ContrastiveBatch, structure: PairStructure, cfg: LossConfig) -> RegTermResult:
    """Gate regularizer for positive pairs.

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
    z_inv, pool, pool_inv, n_batch = _raw_pool(batch, structure.include_batch,
                                               structure.include_prototypes)
    s = _cosine_forward(batch.z, z_inv, pool, pool_inv, cfg.tau)
    gates = _open_gates(structure.positive_mask, structure.lam_norm, structure.sigma)
    value_per_anchor = -np.einsum("ij,ij->i", gates, s)
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
    pair (i, k) on that pool and outer the per-anchor weights. log_g, when
    given, adds log-multipliers to the denominator logits (-inf removes an
    entry). lam is the raw positive weight matrix kept in the PairStructure
    (coeff when None).

    A spec depends only on the labels and the config, so it holds the
    engine's inputs that follow from them, each computed once when first
    read: the positive mask, the per-anchor mass, lam_norm and the
    denominator. A caller that varies only the embeddings or the prototypes
    (the finite-difference oracle) runs one spec through the engine again.
    """

    coeff: np.ndarray
    outer: np.ndarray
    include_batch: bool
    include_prototypes: bool
    log_g: np.ndarray | None = None
    lam: np.ndarray | None = None

    @cached_property
    def positive_mask(self) -> np.ndarray:
        # coeff is 0 off the positive pairs, so nothing re-masks by them
        return self.coeff > 0.0

    @cached_property
    def total(self) -> np.ndarray:
        """Each anchor's positive mass T_i."""
        return self.coeff.sum(axis=1)

    @cached_property
    def lam_norm(self) -> np.ndarray:
        return self.coeff / np.where(self.total > 0.0, self.total, 1.0)[:, None]

    @cached_property
    def denominator(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(mask, shift): the denominator set, and what the engine adds to the
        logits before its softmax, -inf off the set and log_g on it (None
        when it would add nothing). A row with no entry left is a
        DomainError."""
        n, m = self.coeff.shape
        mask, shift = _denominator(n, m, self.include_batch)
        if self.log_g is not None:
            mask = mask & (self.log_g > -np.inf)
            shift = self.log_g if shift is None else self.log_g + shift
            _require_live_rows(mask)
        return mask, shift


def _run_engine(
    batch: ContrastiveBatch,
    spec: LossSpec,
    cfg: LossConfig,
    regularized: bool,
    compute_gradients: bool = True,
) -> GradientBundle:
    """Shared forward/backward for every contrastive loss.

    Rows of coeff may sum to any positive total mass T_i (losses that
    normalize per anchor pass rows summing to 1). The per-anchor term is
    -sum_k coeff[i, k] * log( exp(s_ik) / sum_j g_ij exp(s_ij) ), summed over
    the denominator set (the pool minus the anchor, less any entry log_g
    removes), and the loss is sum_i outer_i * term_i. Anchors with zero
    positive mass contribute nothing (a removable singularity).

    With regularized on, each positive pair adds -gate_ik * s_ik, where
    gate_ik = max(0, -lam_norm_ik + sigma_ik) is a detached constant. The
    cosine backward is linear in its upstream, so one backward on
    outer * (-coeff + T * sigma - gate) carries both terms.

    compute_gradients=False skips the backward pass: d_z, d_prototypes and
    combined_coeff come back as None, while the gate arrays and prr_counts()
    read the forward's structure as usual. The finite-difference oracle and
    the PRR measurement use it.

    The engine checks nothing of the batch but rows whose norms the cosine
    kernels cannot scale (numerics._inverse_norms): its arrays come from the
    validating ContrastiveBatch constructor or, on the training and PRR
    paths, from the trusted one, where a non-finite embedding shows up as a
    non-finite loss.
    """
    z_inv, pool, pool_inv, n_batch = _raw_pool(batch, spec.include_batch,
                                               spec.include_prototypes)
    n, m = batch.n, pool.shape[0]
    coeff, outer = spec.coeff, spec.outer
    if coeff.shape != (n, m):
        raise DomainError(f"coeff shape {coeff.shape} != ({n}, {m})")

    s = _cosine_forward(batch.z, z_inv, pool, pool_inv, cfg.tau)
    mask, shift = spec.denominator
    # the masked logits, which the kernel turns into the softmax in place
    sigma = s.copy() if shift is None else s + shift
    lse = _softmax_rows(sigma)

    positive_mask, total, lam_norm = spec.positive_mask, spec.total, spec.lam_norm
    # -sum_k coeff_ik (s_ik - lse_i)
    per_anchor = lse * total - np.einsum("ij,ij->i", coeff, s)
    loss_value = float(np.dot(outer, per_anchor))
    gates = None
    if regularized:
        gates = _open_gates(positive_mask, lam_norm, sigma)
        loss_value += float(np.dot(outer, -np.einsum("ij,ij->i", gates, s)))

    structure = PairStructure(
        include_batch=spec.include_batch,
        include_prototypes=spec.include_prototypes,
        n_batch_in_pool=n_batch,
        positive_mask=positive_mask,
        denominator_mask=mask,
        lam=coeff if spec.lam is None else spec.lam,
        coeff=coeff,
        lam_norm=lam_norm,
        sigma=sigma,
        outer=outer,
    )

    if not compute_gradients:
        return GradientBundle(loss_value=loss_value, d_z=None, d_prototypes=None,
                              structure=structure)

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
                          structure=structure, d_s=d_s)


def _label_stats(y: np.ndarray):
    yf = y.astype(np.float64)
    sizes = yf.sum(axis=1)
    inter = yf @ yf.T
    union = sizes[:, None] + sizes[None, :] - inter
    return yf, sizes, inter, union


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


def _anchor_mean_spec(lam: np.ndarray, include_batch: bool, include_prototypes: bool) -> LossSpec:
    """Raw weights lam normalized to sum to one per anchor (the anchor itself
    excluded), with the per-anchor terms averaged over the batch."""
    n = lam.shape[0]
    if include_batch:
        np.fill_diagonal(lam, 0.0)
    total = lam.sum(axis=1)
    coeff = np.where(total[:, None] > 0.0, lam / np.where(total > 0, total, 1.0)[:, None], 0.0)
    return LossSpec(coeff=coeff, outer=np.full(n, 1.0 / n), include_batch=include_batch,
                    include_prototypes=include_prototypes, lam=lam)


def _per_label_lam(yf: np.ndarray, pool_y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per-label positive weights on the pool: for each label j of anchor i,
    the pool rows carrying j (pool_y is the pool's label matrix) weighted by
    f[i, k], which is 0 at the anchor, and normalized over that label;
    lam[i, k] sums the shares over the anchor's labels. A label with no
    weighted carrier drops out."""
    norm = yf * (f @ pool_y)
    inner = np.where(norm > 0, yf / np.where(norm > 0, norm, 1.0), 0.0)
    return f * (inner @ pool_y.T)


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
    batch. Empty per-label positive sets drop out. On single-label rows this
    is SupCon (Khosla et al. 2020), which supcon and supcon-reg use."""
    yf = batch.y.astype(np.float64)
    f = np.ones((batch.n, batch.n))
    np.fill_diagonal(f, 0.0)
    return LossSpec(coeff=_per_label_lam(yf, yf, f), outer=np.full(batch.n, 1.0 / yf.sum()),
                    include_batch=True, include_prototypes=False)


def _spec_msc(batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """Frequency-reweighted contrastive loss with prototypes.

    For each anchor label, the positives are the other carriers of that label
    plus its prototype; instance pairs are weighted by the inverse size of
    the label union, prototypes by one, normalized per label. Instance
    terms of the denominator are multiplied by beta; beta = 0 removes
    instance negatives entirely.
    """
    yf, sizes, _, union = _label_stats(batch.y)
    n, big_l = batch.n, batch.n_labels
    # every row carries a label, so union > 0
    f_inst = 1.0 / union
    np.fill_diagonal(f_inst, 0.0)
    lam = _per_label_lam(yf, np.vstack([yf, np.eye(big_l)]), np.hstack([f_inst, yf]))
    log_g = np.zeros((n, n + big_l))
    with np.errstate(divide="ignore"):
        log_g[:, :n] = np.log(cfg.beta) if cfg.beta > 0 else -np.inf
    return LossSpec(coeff=lam / sizes[:, None], outer=np.full(n, 1.0 / n),
                    include_batch=True, include_prototypes=True, log_g=log_g)


def _spec_reg(batch: ContrastiveBatch, cfg: LossConfig) -> LossSpec:
    """Multi-label contrastive loss with prototypes in the pool, the host of
    the gate regularizer.

    Positive structure follows the per-label scheme of mulsupcon, but the
    prototypes join the batch: each anchor label contributes its other
    carriers plus its prototype, weighted by the shared-label overlap ratio
    (|y_i & y_k| / |y_k|) ** alpha and normalized per label, with outer
    weight one over the anchor's label count. alpha = 0 weights each label's
    positives uniformly.
    """
    yf = batch.y.astype(np.float64)
    pool_y = np.vstack([yf, np.eye(batch.n_labels)])
    inter_pool = yf @ pool_y.T
    ratio = inter_pool / pool_y.sum(axis=1)[None, :]
    f_pool = np.where(inter_pool > 0, ratio ** cfg.alpha, 0.0)
    np.fill_diagonal(f_pool, 0.0)
    lam = _per_label_lam(yf, pool_y, f_pool)
    return LossSpec(coeff=lam / yf.sum(axis=1)[:, None], outer=np.full(batch.n, 1.0 / batch.n),
                    include_batch=True, include_prototypes=True, lam=lam)


class _ContrastiveLoss(NamedTuple):
    """Everything the package knows about one contrastive loss id."""

    build: Callable[[ContrastiveBatch, LossConfig], LossSpec]
    host: str | None      # the unregularized id this one adds the gate regularizer to
    prototypes: bool      # the pool includes trainable label prototypes
    single_label: bool    # every row must carry exactly one label


# the gate regularizer is chosen by id: reg-noreg and supcon host reg and
# supcon-reg; supcon is mulsupcon on rows that carry exactly one label
_CONTRASTIVE_LOSSES = {
    "base": _ContrastiveLoss(_spec_base, None, False, False),
    "proto": _ContrastiveLoss(_spec_proto, None, True, False),
    "mulsupcon": _ContrastiveLoss(_spec_mulsupcon, None, False, False),
    "msc": _ContrastiveLoss(_spec_msc, None, True, False),
    "reg": _ContrastiveLoss(_spec_reg, "reg-noreg", True, False),
    "reg-noreg": _ContrastiveLoss(_spec_reg, None, True, False),
    "supcon": _ContrastiveLoss(_spec_mulsupcon, None, False, True),
    "supcon-reg": _ContrastiveLoss(_spec_mulsupcon, "supcon", False, True),
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
    mask_d = ~np.eye(m, dtype=bool)

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
    return row.build(batch, cfg)


def contrastive_loss(loss_id: str, batch: ContrastiveBatch, cfg: LossConfig,
                     compute_gradients: bool = True) -> GradientBundle:
    """Evaluate a contrastive loss by string identifier: build the id's spec
    (contrastive_spec) and run it through the engine once."""
    return _run_engine(batch, contrastive_spec(loss_id, batch, cfg), cfg,
                       loss_id in REGULARIZED_LOSS_IDS, compute_gradients=compute_gradients)


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
