"""Gradient-check oracles and invariant drivers.

check_gradients compares every loss's analytic gradient against central
finite differences on seeded random batches. The detached gate regularizer
is excluded from finite differencing (detaching makes the forward
non-variational) and is instead compared against an independently coded
closed form assembled from per-pair cosine derivatives. A contrastive trial
builds its loss spec once, from the batch's labels, and runs it through the
engine for the analytic gradient and for every finite-difference
evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .datamodel import ContrastiveBatch, overlap_ratio
from .errors import ConfigError, OracleError
from .losses import (
    CONTRASTIVE_LOSS_IDS,
    LOGIT_LOSS_IDS,
    REGULARIZED_LOSS_IDS,
    GradientBundle,
    LossConfig,
    LossSpec,
    PairStructure,
    _run_engine,
    check_loss_id,
    contrastive_loss,
    contrastive_spec,
    host_loss_id,
    logit_loss,
    needs_prototypes,
    needs_single_label,
    prr,
)
from .numerics import (
    finite_difference_gradient,
    masked_logsumexp,
    relative_error,
    tempered_cosine_matrix,
)

FD_STEP = 1e-5
REG_CLOSED_FORM_TOL = 1e-10

# Entrywise relative errors are floored at this fraction of the gradient's
# largest magnitude (and never below 1e-8). The oracle's own noise is
# roundoff of the loss value divided by 2h, roughly 1e-10..1e-8 absolute at
# the default temperature; entries far below the gradient's scale sit under
# that noise and can only be checked against it, not to 1e-5 of themselves.
RESOLUTION_FRACTION = 1e-3


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference trial."""

    loss_id: str
    trial: int
    n: int
    dim: int
    n_labels: int
    max_rel_err: float
    max_abs_err: float
    worst_entry: tuple
    reg_closed_form_err: float | None
    tol: float
    passed: bool

    def to_json(self) -> str:
        d = asdict(self)
        d["worst_entry"] = [
            int(x) if isinstance(x, (int, np.integer)) else str(x)
            for x in self.worst_entry
        ]
        return json.dumps(d, sort_keys=True)


def random_batch(rng: np.random.Generator, loss_id: str) -> ContrastiveBatch:
    """Random batch in the gradcheck regime: n in [4,16], d in [3,8],
    L in [2,6]; single-label rows for the ids that need them."""
    n = int(rng.integers(4, 17))
    d = int(rng.integers(3, 9))
    big_l = int(rng.integers(2, 7))
    if needs_single_label(loss_id):
        y = np.zeros((n, big_l), dtype=np.int8)
        y[np.arange(n), rng.integers(0, big_l, size=n)] = 1
    else:
        y = (rng.random((n, big_l)) < 0.4).astype(np.int8)
        empty = np.nonzero(y.sum(axis=1) == 0)[0]
        y[empty, rng.integers(0, big_l, size=empty.size)] = 1
    z = rng.normal(0.0, 1.0, size=(n, d))
    protos = rng.normal(0.0, 1.0, size=(big_l, d)) if needs_prototypes(loss_id) else None
    return ContrastiveBatch(z=z, y=y, prototypes=protos)


def _pair_cosine_grads(z_i, p_l, tau):
    """Analytic gradients of cos(z_i, p_l)/tau with respect to each vector."""
    ni = np.linalg.norm(z_i)
    nl = np.linalg.norm(p_l)
    zi_hat = z_i / ni
    pl_hat = p_l / nl
    c = float(zi_hat @ pl_hat)
    d_zi = (pl_hat - c * zi_hat) / (tau * ni)
    d_pl = (zi_hat - c * pl_hat) / (tau * nl)
    return d_zi, d_pl


def reg_gradient_reference(batch: ContrastiveBatch, bundle: GradientBundle, cfg: LossConfig):
    """Closed-form gradient of the gate regularizer, assembled pair by pair.

    Independent of the engine's vectorized backward: iterates the recorded
    positive pairs and sums -outer * gate times the per-pair cosine
    derivatives.
    """
    st = bundle.structure
    parts = []
    if st.include_batch:
        parts.append(batch.z)
    if st.include_prototypes:
        parts.append(batch.prototypes)
    pool = np.vstack(parts)
    d_z = np.zeros_like(batch.z)
    d_c = np.zeros_like(batch.prototypes) if batch.prototypes is not None else None
    for i, k, gate in zip(bundle.gate_anchor, bundle.gate_pool, bundle.gate_value):
        g = max(0.0, float(gate))
        if g == 0.0:
            continue
        w = -st.outer[i] * g
        d_zi, d_pl = _pair_cosine_grads(batch.z[i], pool[k], cfg.tau)
        d_z[i] += w * d_zi
        if st.include_batch and k < st.n_batch_in_pool:
            d_z[k] += w * d_pl
        elif d_c is not None:
            d_c[k - st.n_batch_in_pool] += w * d_pl
    return d_z, d_c


def _max_err(analytic, reference):
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(reference).max(initial=0.0)))
    floor = max(1e-8, RESOLUTION_FRACTION * scale)
    rel = relative_error(analytic, reference, floor=floor)
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return float(rel.max()), float(np.abs(analytic - reference).max()), worst


def _fd_estimates(batch: ContrastiveBatch, spec: LossSpec, cfg: LossConfig):
    """Central differences, at FD_STEP, of the unregularized engine value of
    spec with respect to the embeddings and (when the batch has them) the
    prototypes: (fd_z, fd_c), fd_c None without prototypes. The labels never
    change, so every evaluation runs the one spec."""

    def value_of(attr):
        start = getattr(batch, attr)

        def value(x):
            setattr(batch, attr, x)
            try:
                return _run_engine(batch, spec, cfg, False, compute_gradients=False).loss_value
            finally:
                setattr(batch, attr, start)

        return value

    fd_z = finite_difference_gradient(value_of("z"), batch.z, FD_STEP)
    fd_c = None
    if batch.prototypes is not None:
        fd_c = finite_difference_gradient(value_of("prototypes"), batch.prototypes, FD_STEP)
    return fd_z, fd_c


def _check_contrastive_trial(loss_id, trial, rng, tol, cfg) -> GradCheckReport:
    batch = random_batch(rng, loss_id)
    # the detached gate term is not variational: finite-difference the host
    # loss, whose spec is the regularized id's own
    spec = contrastive_spec(host_loss_id(loss_id), batch, cfg)
    bundle = _run_engine(batch, spec, cfg, False)

    fd_z, fd_c = _fd_estimates(batch, spec, cfg)
    rel, abs_err, worst = _max_err(bundle.d_z, fd_z)
    worst = ("z",) + worst
    if fd_c is not None:
        rel_c, abs_c, worst_c = _max_err(bundle.d_prototypes, fd_c)
        if rel_c > rel:
            rel, abs_err, worst = rel_c, abs_c, ("c",) + worst_c

    reg_err = None
    if loss_id in REGULARIZED_LOSS_IDS:
        full = _run_engine(batch, spec, cfg, True)
        reg_dz = full.d_z - bundle.d_z
        ref_dz, ref_dc = reg_gradient_reference(batch, full, cfg)
        reg_err = float(relative_error(reg_dz, ref_dz).max())
        if batch.prototypes is not None:
            reg_dc = full.d_prototypes - bundle.d_prototypes
            reg_err = max(reg_err, float(relative_error(reg_dc, ref_dc).max()))

    passed = rel < tol and (reg_err is None or reg_err < REG_CLOSED_FORM_TOL)
    return GradCheckReport(
        loss_id=loss_id,
        trial=trial,
        n=batch.n,
        dim=batch.dim,
        n_labels=batch.n_labels,
        max_rel_err=rel,
        max_abs_err=abs_err,
        worst_entry=worst,
        reg_closed_form_err=reg_err,
        tol=tol,
        passed=passed,
    )


def _check_logit_trial(loss_id, trial, rng, tol, cfg) -> GradCheckReport:
    n = int(rng.integers(3, 9))
    big_l = int(rng.integers(2, 7))
    y = (rng.random((n, big_l)) < 0.4).astype(np.int8)
    logits = rng.normal(0.0, 2.0, size=(n, big_l))
    if loss_id == "asy" and cfg.margin > 0:
        # keep clear of the clip kink so central differences are valid
        p = 1.0 / (1.0 + np.exp(-logits))
        near = np.abs(p - cfg.margin) < 1e-3
        logits[near] += 0.1

    res = logit_loss(loss_id, logits, y, cfg)
    fd = finite_difference_gradient(
        lambda x: logit_loss(loss_id, x, y, cfg).loss_value, logits, FD_STEP)
    rel, abs_err, worst = _max_err(res.d_logits, fd)
    return GradCheckReport(
        loss_id=loss_id,
        trial=trial,
        n=n,
        dim=big_l,
        n_labels=big_l,
        max_rel_err=rel,
        max_abs_err=abs_err,
        worst_entry=("logits",) + worst,
        reg_closed_form_err=None,
        tol=tol,
        passed=rel < tol,
    )


def check_gradients(loss_id: str, trials: int, tol: float, seed: int,
                    cfg: LossConfig | None = None):
    """Run seeded finite-difference trials for one loss id, at step FD_STEP.

    Deterministic in the master seed: trial seeds are spawned from it, so
    trials are independent and could run concurrently. Returns one report per
    trial. cfg overrides the loss configuration (default: stock LossConfig).
    """
    check_loss_id(loss_id)
    if cfg is None:
        cfg = LossConfig()
    streams = np.random.SeedSequence(seed).spawn(trials)
    reports = []
    for t, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        if loss_id in LOGIT_LOSS_IDS:
            reports.append(_check_logit_trial(loss_id, t, rng, tol, cfg))
        elif loss_id in CONTRASTIVE_LOSS_IDS:
            reports.append(_check_contrastive_trial(loss_id, t, rng, tol, cfg))
        else:  # pragma: no cover - check_loss_id already rejected it
            raise ConfigError(f"unknown loss id {loss_id!r}")
    return reports


def write_reports(reports, path) -> None:
    """Serialize reports as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")


def minimum_residual(structure: PairStructure) -> float:
    """Distance from the stationarity condition of the contrastive engine:
    sum over positives of (sigma - lam_norm)^2 plus sum over negatives of
    sigma^2. Zero only if scores match normalized weights exactly and the
    negatives carry no mass; under a softmax the negative part is strictly
    positive whenever negatives exist, so this is a diagnostic, not an
    achievable zero."""
    pos = structure.positive_mask
    neg = structure.negatives_mask()
    pos_part = float(np.sum((structure.sigma[pos] - structure.lam_norm[pos]) ** 2))
    neg_part = float(np.sum(structure.sigma[neg] ** 2))
    return pos_part + neg_part


@dataclass
class GateReport:
    """Per-pair gate values of a regularized loss plus the batch PRR."""

    anchors: np.ndarray
    pool_indices: np.ndarray
    gate_values: np.ndarray
    prr: float | None
    clamp_max_dev: float | None


def _independent_reg_structure(batch: ContrastiveBatch, cfg: LossConfig):
    """Per-anchor loop recomputation of (lam_norm, sigma) for the reg loss,
    sharing nothing with the engine's vectorized path: each label's pool
    carriers are weighted by the scalar overlap_ratio and normalized."""
    n, big_l = batch.n, batch.n_labels
    pool = np.vstack([batch.z, batch.prototypes])
    pool_y = np.vstack([batch.y, np.eye(big_l, dtype=np.int8)])
    m = pool.shape[0]
    lam_norm = np.zeros((n, m))
    sigma = np.zeros((n, m))
    for i in range(n):
        labels = np.nonzero(batch.y[i])[0]
        lam_row = np.zeros(m)
        for j in labels:
            members = [k for k in range(m) if pool_y[k, j] == 1 and k != i]
            weights = [overlap_ratio(batch.y[i], pool_y[k], cfg.alpha) for k in members]
            total = sum(weights)
            for k, w in zip(members, weights):
                lam_row[k] += w / total
        lam_norm[i] = lam_row / len(labels)
        s_row = tempered_cosine_matrix(batch.z[i], pool, cfg.tau)[0]
        mask = np.ones(m, dtype=bool)
        mask[i] = False
        lse = masked_logsumexp(s_row[None, :], mask[None, :])[0]
        sigma[i] = np.where(mask, np.exp(s_row - lse), 0.0)
    return lam_norm, sigma


# the regularized ids and the hosts they add the gate regularizer to
_GATED_LOSS_IDS = REGULARIZED_LOSS_IDS + tuple(host_loss_id(k) for k in REGULARIZED_LOSS_IDS)


def gate_report(batch: ContrastiveBatch, cfg: LossConfig, loss_id: str = "reg") -> GateReport:
    """Gate coefficients (-lam_norm + sigma) of every positive pair, the PRR,
    and an independent check of the positive-gradient clamp.

    For a regularized id the engine's combined coefficients must equal
    min(0, gate) within 1e-12; any violation raises OracleError. For reg the
    reference gates come from a per-anchor loop recomputation of the
    lam/sigma pair (a second implementation of the same math), for
    supcon-reg from the bundle itself. A host id (reg-noreg, supcon) reports
    its gates with no clamp check (clamp_max_dev is None).
    """
    if loss_id not in _GATED_LOSS_IDS:
        raise ConfigError(f"gate_report expects a regularized loss id, got {loss_id!r}")
    bundle = contrastive_loss(loss_id, batch, cfg)

    clamp_dev = None
    if loss_id in REGULARIZED_LOSS_IDS:
        gates = bundle.gate_value
        if loss_id == "reg":
            lam_norm, sigma = _independent_reg_structure(batch, cfg)
            gates = (-lam_norm + sigma)[bundle.gate_anchor, bundle.gate_pool]
        deviation = np.abs(bundle.combined_coeff - np.minimum(0.0, gates))
        clamp_dev = float(np.max(deviation, initial=0.0))
        if clamp_dev > 1e-12:
            raise OracleError(
                f"positive-gradient clamp violated: max deviation {clamp_dev:.3e}"
            )

    return GateReport(
        anchors=bundle.gate_anchor,
        pool_indices=bundle.gate_pool,
        gate_values=bundle.gate_value,
        prr=prr(bundle.gate_value),
        clamp_max_dev=clamp_dev,
    )
