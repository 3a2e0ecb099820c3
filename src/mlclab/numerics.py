"""Dense float64 kernels: tempered cosine similarity, masked softmax, a
stable sigmoid, and the finite-difference gradient oracle; plus the finite
check every config dataclass runs on its float fields.

The kernels are pure and operate on 2-D numpy arrays (rows are instances,
columns are coordinates). Everything runs in 64-bit floating point; gradient
checks at 1e-5 tolerance are not feasible in 32-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, OracleError


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


def row_normalize(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero-norm rows are a domain error."""
    norms = np.linalg.norm(a, axis=1)
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise DomainError(f"{name} has zero-norm row at index {int(bad[0])}")
    return a / norms[:, None]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large |x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def tempered_cosine_matrix(a, b, tau: float) -> np.ndarray:
    """Pairwise cosine similarity divided by the temperature.

    Returns S with S[i, j] = <a_i, b_j> / (tau * |a_i| * |b_j|), so every
    entry lies in [-1/tau, 1/tau]. Temperature is applied here, once; callers
    feeding the result into softmax must not divide again.
    """
    if not (isinstance(tau, (int, float)) and np.isfinite(tau) and tau > 0):
        raise ConfigError(f"temperature must be a positive real, got {tau!r}")
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DomainError(f"dimension mismatch: a has {a.shape[1]} columns, b has {b.shape[1]}")
    an = row_normalize(a, "a")
    bn = row_normalize(b, "b")
    return (an @ bn.T) / tau


def tempered_cosine_backward(a, b, tau: float, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * tempered_cosine_matrix(a, b, tau)).

    Exact derivative through the row normalization (not the dot-product
    shorthand): for a row v with unit vector u = v/|v| and incoming gradient
    g on u, the gradient on v is (g - (g.u) u) / |v|.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != (a.shape[0], b.shape[0]):
        raise DomainError(f"upstream shape {g.shape} does not match ({a.shape[0]}, {b.shape[0]})")
    a_norms = np.linalg.norm(a, axis=1)
    b_norms = np.linalg.norm(b, axis=1)
    if np.any(a_norms == 0.0) or np.any(b_norms == 0.0):
        raise DomainError("zero-norm row in cosine backward")
    an = a / a_norms[:, None]
    bn = b / b_norms[:, None]
    d_an = (g @ bn) / tau
    d_bn = (g.T @ an) / tau
    da = (d_an - np.sum(d_an * an, axis=1, keepdims=True) * an) / a_norms[:, None]
    db = (d_bn - np.sum(d_bn * bn, axis=1, keepdims=True) * bn) / b_norms[:, None]
    return da, db


@dataclass(frozen=True)
class MaskedSoftmaxResult:
    """Row-wise masked softmax output.

    log_p holds log-probabilities (-inf on masked entries); sigma holds the
    probabilities, exactly 0 on masked entries. sigma is gradient-opaque:
    downstream gradient code treats it as a constant.
    """

    log_p: np.ndarray
    sigma: np.ndarray


def masked_logsumexp(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row log(sum(exp(logits))) over unmasked entries, max-stabilized.

    Rows with no unmasked entry are a domain error.
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


def masked_log_softmax(logits, mask) -> MaskedSoftmaxResult:
    """Row-wise log softmax restricted to unmasked columns.

    logits are consumed as-is (temperature, if any, is the caller's job).
    Masked entries come back with log_p = -inf and sigma = 0 exactly, so they
    contribute nothing to downstream sums. Every row needs at least one
    unmasked entry.
    """
    logits = as_matrix(logits, "logits")
    mask = np.asarray(mask)
    if mask.shape != logits.shape:
        raise DomainError(f"mask shape {mask.shape} does not match logits shape {logits.shape}")
    mask = mask.astype(bool)
    lse = masked_logsumexp(logits, mask)
    log_p = np.where(mask, logits - lse[:, None], -np.inf)
    # exp(-inf) = 0.0 exactly, so masked sigma entries are crisp zeros
    sigma = np.exp(log_p)
    return MaskedSoftmaxResult(log_p=log_p, sigma=sigma)


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
