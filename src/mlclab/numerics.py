"""Dense float64 kernels: tempered cosine similarity, the masked
log-sum-exp behind the loss engine's softmax, a stable sigmoid, and the
finite-difference gradient oracle; plus the finite check every config
dataclass runs on its float fields.

The kernels are pure and operate on 2-D numpy arrays (rows are instances,
columns are coordinates). Everything runs in 64-bit floating point; gradient
checks at 1e-5 tolerance are not feasible in 32-bit.

The tempered cosine has one arithmetic path: the private kernels
`_unit_rows`, `_cosine_forward` and `_cosine_backward`. The public
`tempered_cosine_matrix` and `tempered_cosine_backward` check everything
(temperature, 2-D finite input, shapes, zero-norm rows) and then call those
kernels. The loss engine calls the kernels directly on its own float64
blocks, so it normalizes each block once per step and hands the unit rows
and norms from the forward to the backward; `_unit_rows` still rejects a
zero-norm row there.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, OracleError, ZeroNormError


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and require finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise DomainError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def require_finite_floats(cfg) -> None:
    """Reject a NaN or infinite value in any float field of a config dataclass."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(f.default, float) and not np.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


def _unit_rows(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(a / norms[:, None], norms) with the rows' Euclidean norms; a zero-norm
    row is a ZeroNormError. The result is always a fresh array."""
    norms = np.linalg.norm(a, axis=1)
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise ZeroNormError(f"{name} has zero-norm row at index {int(bad[0])}")
    return a / norms[:, None], norms


def row_normalize(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero-norm rows are a domain error."""
    return _unit_rows(a, name)[0]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large |x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_tau(tau) -> None:
    if not (isinstance(tau, (int, float)) and np.isfinite(tau) and tau > 0):
        raise ConfigError(f"temperature must be a positive real, got {tau!r}")


def _checked_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DomainError(f"dimension mismatch: a has {a.shape[1]} columns, b has {b.shape[1]}")
    return a, b


def _cosine_forward(an: np.ndarray, bn: np.ndarray, tau: float) -> np.ndarray:
    """Tempered cosine of unit rows: (an @ bn.T) / tau, unchecked.

    an and bn must be distinct arrays even when they hold the same rows:
    numpy sends A @ A.T to the symmetric rank-k kernel, whose last bits
    differ from the general product's.
    """
    return (an @ bn.T) / tau


def _radial_project(d: np.ndarray, u: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """d <- (d - sum(d * u, axis=1) u) / norms, in place, through one
    temporary of d's shape; the same operations in the same order as the
    expression form, so the bytes are equal."""
    tmp = d * u
    r = tmp.sum(axis=1, keepdims=True)
    np.multiply(r, u, out=tmp)
    d -= tmp
    d /= norms[:, None]
    return d


def _cosine_backward(an, a_norms, bn, b_norms, tau: float, g: np.ndarray):
    """Gradients of sum(g * _cosine_forward(an, bn, tau)) with respect to the
    raw rows a = an * a_norms and b = bn * b_norms, unchecked.

    Each gradient is written into the fresh product g @ bn (g.T @ an) that
    starts it, so the call allocates the two results plus one temporary per
    block; it writes into none of its arguments.
    """
    d_an = g @ bn
    d_an /= tau
    d_bn = g.T @ an
    d_bn /= tau
    return _radial_project(d_an, an, a_norms), _radial_project(d_bn, bn, b_norms)


def tempered_cosine_matrix(a, b, tau: float) -> np.ndarray:
    """Pairwise cosine similarity divided by the temperature.

    Returns S with S[i, j] = <a_i, b_j> / (tau * |a_i| * |b_j|), so every
    entry lies in [-1/tau, 1/tau]. Temperature is applied here, once; callers
    feeding the result into softmax must not divide again.
    """
    _check_tau(tau)
    a, b = _checked_pair(a, b)
    an, _ = _unit_rows(a, "a")
    bn, _ = _unit_rows(b, "b")
    return _cosine_forward(an, bn, tau)


def tempered_cosine_backward(a, b, tau: float, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * tempered_cosine_matrix(a, b, tau)).

    Exact derivative through the row normalization (not the dot-product
    shorthand): for a row v with unit vector u = v/|v| and incoming gradient
    g on u, the gradient on v is (g - (g.u) u) / |v|.
    """
    _check_tau(tau)
    a, b = _checked_pair(a, b)
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != (a.shape[0], b.shape[0]):
        raise DomainError(f"upstream shape {g.shape} does not match ({a.shape[0]}, {b.shape[0]})")
    an, a_norms = _unit_rows(a, "a")
    bn, b_norms = _unit_rows(b, "b")
    return _cosine_backward(an, a_norms, bn, b_norms, tau, g)


def masked_logsumexp(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row log(sum(exp(logits))) over unmasked entries, max-stabilized.

    logits are consumed as-is (temperature, if any, is the caller's job);
    the loss engine forms its softmax as exp(logits - lse) on the mask. Rows
    with no unmasked entry are a domain error.
    """
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=1)
    bad = np.nonzero(counts == 0)[0]
    if bad.size:
        raise DomainError(f"fully-masked row at index {int(bad[0])}")
    neg = np.where(mask, logits, -np.inf)
    rowmax = np.max(neg, axis=1, keepdims=True)
    shifted = np.where(mask, logits - rowmax, -np.inf)
    sums = np.sum(np.where(mask, np.exp(shifted), 0.0), axis=1)
    return rowmax[:, 0] + np.log(sums)


def finite_difference_gradient(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    grad[i, j] = (f(x + h e_ij) - f(x - h e_ij)) / (2 h). This is the oracle
    the analytic gradients are checked against; keep it independent of the
    code paths it verifies.
    """
    x = np.array(x, dtype=np.float64)
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        f_plus = float(f(x))
        x[idx] = orig - h
        f_minus = float(f(x))
        x[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise OracleError(f"non-finite evaluation at entry {idx}: f+={f_plus}, f-={f_minus}")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        it.iternext()
    return grad


def relative_error(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Entrywise |a - r| / max(|a|, |r|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), floor)
    return np.abs(a - r) / denom
