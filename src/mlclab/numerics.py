"""Dense float64 kernels: tempered cosine similarity, the masked row
softmax and log-sum-exp of the loss engine, a stable sigmoid, and the
finite-difference gradient oracle; plus the finite check every config
dataclass runs on its float fields.

The kernels are pure and operate on 2-D numpy arrays (rows are instances,
columns are coordinates). Everything runs in 64-bit floating point; gradient
checks at 1e-5 tolerance are not feasible in 32-bit.

The tempered cosine has one arithmetic path, and it never forms unit rows:
cos(a, b) = (a . b) / (|a| |b|), so the private kernels work on the raw rows
and the per-row inverse norms from `_inverse_norms`. `_cosine_forward` is
one product scaled by those vectors (temperature folded into the anchors'
scale), and `_cosine_backward` one product per side plus a row-scaled
correction: the derivative through the normalization. The public
`tempered_cosine_matrix` and `tempered_cosine_backward` check everything
(temperature, 2-D finite input, shapes) and then call those kernels;
`row_normalize` scales by the same inverse norms. The loss engine calls the
kernels directly on its own float64 blocks: it takes each block's inverse
norms once per step and hands the forward's S to the backward.
`_inverse_norms` rejects, there too, a row whose squared norm is zero,
subnormal or overflows.

The engine's softmax is `_softmax_rows`: one exponential per entry gives
each row's log-sum-exp and its softmax. `masked_logsumexp` is its checked
public form.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NormRangeError, OracleError, ZeroNormError


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


_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max


def _inverse_norms(a: np.ndarray, name: str) -> np.ndarray:
    """1 / |a_i| for each row of a, the per-row scale of the cosine kernels.

    A row of finite entries whose squared norm is not a finite normal number
    is rejected: an exactly zero row is a ZeroNormError, any other a
    NormRangeError saying whether its squared norm overflowed or underflowed.
    A row with a non-finite entry passes, so that a non-finite embedding
    still shows up as a non-finite loss. The normal path reads only the
    norm vector.
    """
    sq = np.einsum("ij,ij->i", a, a)
    if sq.size and not (sq.min() >= _TINY and sq.max() <= _HUGE):
        bad = ~((sq >= _TINY) & (sq <= _HUGE)) & np.isfinite(a).all(axis=1)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            if sq[i] > _HUGE:
                raise NormRangeError(f"{name} row {i}: squared norm overflowed; rescale the input")
            if not a[i].any():
                raise ZeroNormError(f"{name} has zero-norm row at index {i}")
            raise NormRangeError(f"{name} row {i}: squared norm underflowed; rescale the input")
    return 1.0 / np.sqrt(sq)


def row_normalize(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Scale each row to unit Euclidean norm, with the row checks of
    _inverse_norms."""
    return a * _inverse_norms(a, name)[:, None]


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
    if np.may_share_memory(a, b):
        b = b.copy()  # the general product, as for distinct arrays (see _cosine_forward)
    return a, b


def _cosine_forward(a, a_inv, b, b_inv, tau: float) -> np.ndarray:
    """Tempered cosine of raw rows, unchecked: S = (a @ b.T) * (a_inv / tau)
    b_inv.T, where a_inv and b_inv are the rows' inverse norms.

    a and b must be distinct arrays even when they hold the same rows:
    numpy sends A @ A.T to the symmetric rank-k kernel, whose last bits
    differ from the general product's.
    """
    s = a @ b.T
    s *= (a_inv / tau)[:, None]
    s *= b_inv
    return s


def _cosine_backward(a, a_inv, b, b_inv, tau: float, g: np.ndarray, s: np.ndarray,
                     shared: bool = False):
    """Gradients of sum(g * s) with respect to the raw rows a and b, where s
    is _cosine_forward(a, a_inv, b, b_inv, tau); unchecked, and writing into
    none of its arguments. With H = diag(a_inv / tau) G diag(b_inv), the
    derivative through both row normalizations is one product per side plus
    a row-scaled correction:
        dA = H B - diag(a_inv^2 rowsum(G o S)) A
        dB = H.T A - diag(b_inv^2 colsum(G o S)) B
    shared says that b's first len(a) rows are a's rows (the batch in its own
    pool): the first result is then their whole gradient, one product by B
    of H with H_aa + H_aa.T in its first columns and both corrections on that
    block's diagonal, and the second covers b's other rows.
    """
    h = g * (a_inv / tau)[:, None]
    h *= b_inv
    gs = g * s
    r_a = gs.sum(axis=1)
    r_a *= a_inv * a_inv
    r_b = gs.sum(axis=0)
    r_b *= b_inv * b_inv
    if shared:
        n = a.shape[0]
        d_b = h[:, n:].T @ a
        d_b -= r_b[n:, None] * b[n:]
        h_aa = h[:, :n]
        h_aa += h_aa.T
        diag = np.arange(n)
        h_aa[diag, diag] -= r_a + r_b[:n]
        return h @ b, d_b
    d_a = h @ b
    d_a -= r_a[:, None] * a
    d_b = h.T @ a
    d_b -= r_b[:, None] * b
    return d_a, d_b


def tempered_cosine_matrix(a, b, tau: float) -> np.ndarray:
    """Pairwise cosine similarity divided by the temperature.

    Returns S with S[i, j] = <a_i, b_j> / (tau * |a_i| * |b_j|), so every
    entry lies in [-1/tau, 1/tau]. Temperature is applied here, once; callers
    feeding the result into softmax must not divide again.
    """
    _check_tau(tau)
    a, b = _checked_pair(a, b)
    return _cosine_forward(a, _inverse_norms(a, "a"), b, _inverse_norms(b, "b"), tau)


def tempered_cosine_backward(a, b, tau: float, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * tempered_cosine_matrix(a, b, tau)).

    Exact derivative through the row normalization (not the dot-product
    shorthand): for a row v with unit vector u = v/|v| and incoming gradient
    g on u, the gradient on v is (g - (g.u) u) / |v|, which _cosine_backward
    forms from the raw rows as one product and one row-scaled correction.
    """
    _check_tau(tau)
    a, b = _checked_pair(a, b)
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != (a.shape[0], b.shape[0]):
        raise DomainError(f"upstream shape {g.shape} does not match ({a.shape[0]}, {b.shape[0]})")
    a_inv, b_inv = _inverse_norms(a, "a"), _inverse_norms(b, "b")
    s = _cosine_forward(a, a_inv, b, b_inv, tau)
    return _cosine_backward(a, a_inv, b, b_inv, tau, g, s)


def _require_live_rows(mask: np.ndarray) -> None:
    """A row of the boolean mask with no entry is a DomainError."""
    live = mask.any(axis=1)
    if not live.all():
        raise DomainError(f"fully-masked row at index {int(np.flatnonzero(~live)[0])}")


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Each row's log-sum-exp, from one exponential, turning x into the row
    softmax in place; unchecked.

    x holds the logits with -inf on the masked entries (the loss engine adds
    its cached -inf diagonal shift or its log-multipliers, masked_logsumexp
    its mask), and every row must keep a finite entry: callers check their
    masks, not the sums. Shifted by the row max, the exponentials cannot
    overflow; lse = max + log(sum) and the softmax is e / sum, exactly 0 on
    the masked entries.
    """
    rowmax = np.maximum.reduce(x, axis=1, keepdims=True)
    x -= rowmax
    np.exp(x, out=x)
    total = np.add.reduce(x, axis=1, keepdims=True)
    x /= total
    return rowmax[:, 0] + np.log(total[:, 0])


def masked_logsumexp(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row log(sum(exp(logits))) over unmasked entries, max-stabilized.

    logits are consumed as-is (temperature, if any, is the caller's job).
    It is the log-sum-exp that _softmax_rows, the loss engine's softmax
    kernel, returns. Rows with no unmasked entry are a domain error.
    """
    mask = np.asarray(mask, dtype=bool)
    _require_live_rows(mask)
    # -inf off the mask stays -inf through the shift and exp()s to exactly 0
    return _softmax_rows(np.where(mask, logits, -np.inf))


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
