"""Kernel-level checks: tempered cosine, the masked log-sum-exp and the
one-exponential softmax kernel, and the finite-difference oracle itself."""

import numpy as np
import pytest

from mlclab.errors import ConfigError, DomainError, OracleError, ZeroNormError
from mlclab.numerics import (
    _cosine_backward,
    _cosine_forward,
    _inverse_norms,
    _softmax_rows,
    finite_difference_gradient,
    masked_logsumexp,
    tempered_cosine_backward,
    tempered_cosine_matrix,
)
from mlclab.verification import relative_error


class TestTemperedCosine:
    def test_identical_unit_vectors(self):
        s = tempered_cosine_matrix([[1.0, 0.0]], [[1.0, 0.0]], 1.0)
        assert s[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_vectors(self):
        for tau in (0.1, 1.0, 3.0):
            s = tempered_cosine_matrix([[1.0, 0.0]], [[0.0, 1.0]], tau)
            assert s[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # cos((1,0),(1,1)) = 1/sqrt(2); divided by tau = 0.5 gives sqrt(2)
        s = tempered_cosine_matrix([[1.0, 0.0]], [[1.0, 1.0]], 0.5)
        assert s[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 5))
        b = rng.normal(size=(17, 5))
        s = tempered_cosine_matrix(a, b, 0.1)
        assert np.all(s <= 1 / 0.1 + 1e-12)
        assert np.all(s >= -1 / 0.1 - 1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(5, 4))
        s1 = tempered_cosine_matrix(a, b, 0.7)
        for c in (1e-3, 2.0, 1e4):
            s2 = tempered_cosine_matrix(c * a, b, 0.7)
            np.testing.assert_allclose(s1, s2, atol=1e-12)

    def test_zero_norm_row_names_index(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DomainError, match="index 1"):
            tempered_cosine_matrix(a, a, 1.0)

    def test_nonpositive_temperature(self):
        with pytest.raises(ConfigError):
            tempered_cosine_matrix([[1.0]], [[1.0]], 0.0)
        with pytest.raises(ConfigError):
            tempered_cosine_matrix([[1.0]], [[1.0]], -0.5)

    def test_backward_matches_fd(self):
        # the backward is the primitive every loss gradient routes through
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 4))
        da, db = tempered_cosine_backward(a, b, 0.3, w)
        fa = finite_difference_gradient(
            lambda x: float(np.sum(w * tempered_cosine_matrix(x, b, 0.3))), a)
        fb = finite_difference_gradient(
            lambda x: float(np.sum(w * tempered_cosine_matrix(a, x, 0.3))), b)
        np.testing.assert_allclose(da, fa, atol=1e-9)
        np.testing.assert_allclose(db, fb, atol=1e-9)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _unit_row_reference(a, b, tau, g):
    """The tempered cosine and its backward in unit-row form, each step a
    fresh array: normalize, multiply, divide by tau; then project each side's
    gradient off its unit row and divide by the norm. The raw-row kernels
    must agree with it."""
    a_norms, b_norms = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    an, bn = a / a_norms[:, None], b / b_norms[:, None]
    d_an = (g @ bn) / tau
    d_bn = (g.T @ an) / tau
    da = (d_an - np.sum(d_an * an, axis=1, keepdims=True) * an) / a_norms[:, None]
    db = (d_bn - np.sum(d_bn * bn, axis=1, keepdims=True) * bn) / b_norms[:, None]
    return (an @ bn.T) / tau, da, db


def _close(got, want, rtol, scale=0.0):
    """Max abs difference within rtol of the reference's largest entry, or
    of scale when that is larger."""
    return np.abs(got - want).max() <= rtol * max(np.abs(want).max(), scale)


def _term_scales(a, b, tau, g):
    """The largest entry of each side's product before its correction, taken
    on absolute values: the size of the terms the backward sums. It stands in
    for the reference's scale where the gradient cancels to 0 (one column:
    every cosine is +-1 whatever the rows)."""
    a_inv, b_inv = 1.0 / np.linalg.norm(a, axis=1), 1.0 / np.linalg.norm(b, axis=1)
    h = np.abs(g) * a_inv[:, None] * b_inv[None, :] / tau
    return (h @ np.abs(b)).max(), (h.T @ np.abs(a)).max()


class TestCosineKernels:
    """The public pair checks its input and then runs the private raw-row
    kernels, which the loss engine calls directly on its own blocks."""

    # (anchors, pool, dim): a reg training step at the default config, a
    # proto step (pool = prototypes only), a single row and a ragged shape
    @pytest.mark.parametrize("n,m,d", [(64, 84, 256), (64, 20, 256), (1, 1, 1), (7, 13, 9)])
    @pytest.mark.parametrize("tau", [0.1, 0.37])
    def test_in_place_backward_matches_expression_form(self, n, m, d, tau):
        rng = np.random.default_rng(n * 1000 + m)
        # rows of mixed scale: the kernels never form unit rows
        a = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=(n, 1))
        b = rng.normal(size=(m, d)) * rng.uniform(0.01, 100.0, size=(m, 1))
        g = rng.normal(size=(n, m))
        a_inv, b_inv = _inverse_norms(a, "a"), _inverse_norms(b, "b")
        s = _cosine_forward(a, a_inv, b, b_inv, tau)
        args = (a, a_inv, b, b_inv, tau, g, s)
        before = [np.copy(x) for x in args]
        got = _cosine_backward(*args)
        want_s, *want = _unit_row_reference(a, b, tau, g)
        assert _close(s, want_s, 1e-13)
        for kernel, reference, scale in zip(got, want, _term_scales(a, b, tau, g)):
            assert _close(kernel, reference, 1e-13, scale)
        # it writes into none of its arguments and returns fresh arrays
        for x, saved in zip(args, before):
            assert _same_bits(x, saved)
        for out in got:
            assert not any(np.shares_memory(out, x) for x in args if isinstance(x, np.ndarray))
        assert not np.shares_memory(*got)

    def test_public_pair_is_the_kernels(self):
        rng = np.random.default_rng(6)
        a, b, g = rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), rng.normal(size=(5, 4))
        a_inv, b_inv = _inverse_norms(a, "a"), _inverse_norms(b, "b")
        s = _cosine_forward(a, a_inv, b, b_inv, 0.3)
        assert _same_bits(tempered_cosine_matrix(a, b, 0.3), s)
        for public, kernel in zip(tempered_cosine_backward(a, b, 0.3, g),
                                  _cosine_backward(a, a_inv, b, b_inv, 0.3, g, s)):
            assert _same_bits(public, kernel)
        # one array passed as both sides gets the bits of two distinct copies
        b = rng.normal(size=(84, 256))  # the default reg pool
        assert _same_bits(tempered_cosine_matrix(b, b, 0.3), tempered_cosine_matrix(b, b.copy(), 0.3))

    @pytest.mark.parametrize("with_prototypes", [False, True])
    def test_blockwise_normalization_matches_pooled(self, with_prototypes):
        # the engine's pool: raw blocks stacked, never an alias of the
        # anchors, with each block's inverse norms taken on its own
        rng = np.random.default_rng(7)
        z, p = rng.normal(size=(9, 6)), rng.normal(size=(4, 6))
        blocks = [z, p] if with_prototypes else [z]
        pool = np.vstack(blocks)
        pool_inv = np.concatenate([_inverse_norms(x, "block") for x in blocks])
        assert _same_bits(pool_inv, _inverse_norms(pool, "pool"))
        s = _cosine_forward(z, pool_inv[:9], pool, pool_inv, 0.1)
        assert _same_bits(s, tempered_cosine_matrix(z, pool, 0.1))
        g = rng.normal(size=(9, pool.shape[0]))
        g[np.arange(9), np.arange(9)] = 0.0  # the engine's self column
        d_z, d_rest = _cosine_backward(z, pool_inv[:9], pool, pool_inv, 0.1, g, s, shared=True)
        d_anchor, d_pool = tempered_cosine_backward(z, pool, 0.1, g)
        # the shared form folds the pool side of the batch rows into d_z
        assert _same_bits(d_rest, d_pool[9:])
        expected = d_anchor + d_pool[:9]
        assert _close(d_z, expected, 1e-13)

    def test_inverse_norms_rejects_zero_norm_row(self):
        with pytest.raises(ZeroNormError, match="embeddings has zero-norm row at index 2"):
            _inverse_norms(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]), "embeddings")

    @pytest.mark.parametrize("row,kind", [([1e200, 0.0], "overflowed"),
                                          ([1e-200, 0.0], "underflowed"),
                                          ([1e-160, 1e-160], "underflowed")])
    def test_squared_norm_out_of_range_is_a_domain_error(self, row, kind):
        # the right cosine of these rows with (1, 0) is about 1, but their
        # squared norms are not finite normal numbers: an error, not 0 or a
        # zero-norm report
        for public in (lambda a: tempered_cosine_matrix(a, [[1.0, 0.0]], 1.0),
                       lambda a: tempered_cosine_backward(a, [[1.0, 0.0]], 1.0, [[1.0], [1.0]]),
                       lambda a: tempered_cosine_matrix([[1.0, 0.0]], a, 1.0)):
            with pytest.raises(DomainError, match=f"row 1: squared norm {kind}") as info:
                public([[1.0, 1.0], row])
            assert not isinstance(info.value, ZeroNormError)

    def test_squared_norm_at_the_normal_range_edges(self):
        # 2.2e-308 and 1.8e308 are the smallest normal and the largest finite
        # float64: rows whose squared norms sit just inside pass
        for scale in (1.5e-154, 1.3e154):
            s = tempered_cosine_matrix([[scale, 0.0]], [[1.0, 0.0]], 1.0)
            assert s[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_non_finite_row_passes_through_the_norm_check(self):
        # the engine leaves a non-finite embedding to show up as a non-finite loss
        inv = _inverse_norms(np.array([[np.nan, 1.0], [np.inf, 0.0], [3.0, 4.0]]), "z")
        assert np.isnan(inv[0]) and inv[1] == 0.0 and inv[2] == pytest.approx(0.2)

    @pytest.mark.parametrize("bad,error", [
        ({"a": [[np.nan, 1.0]]}, DomainError),
        ({"b": [[1.0, np.inf]]}, DomainError),
        ({"a": [[0.0, 0.0]]}, DomainError),
        ({"b": [[1.0, 0.0, 0.0]]}, DomainError),
        ({"tau": 0.0}, ConfigError),
        ({"tau": float("nan")}, ConfigError),
        ({"tau": -1.0}, ConfigError),
    ])
    def test_public_pair_rejects_bad_input(self, bad, error):
        args = {"a": [[1.0, 2.0]], "b": [[3.0, 1.0], [0.5, 1.0]], "tau": 0.5, **bad}
        with pytest.raises(error):
            tempered_cosine_matrix(args["a"], args["b"], args["tau"])
        with pytest.raises(error):
            tempered_cosine_backward(args["a"], args["b"], args["tau"], np.ones((1, 2)))

    def test_backward_rejects_upstream_shape(self):
        with pytest.raises(DomainError, match="upstream shape"):
            tempered_cosine_backward([[1.0, 2.0]], [[3.0, 1.0]], 0.5, np.ones((2, 1)))


def _masked_softmax(logits, mask):
    """(log_p, sigma) as the loss engine forms them from masked_logsumexp:
    -inf and exactly 0 off the mask."""
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    lse = masked_logsumexp(logits, mask)
    log_p = np.where(mask, logits - lse[:, None], -np.inf)
    return log_p, np.exp(log_p)


class TestMaskedLogSoftmax:
    """masked_logsumexp, the engine's softmax kernel, and the masked softmax
    exp(logits - lse) built on it."""

    def test_uniform_logits(self):
        lse = masked_logsumexp(np.zeros((1, 3)), np.ones((1, 3)))
        assert lse[0] == pytest.approx(np.log(3), abs=1e-15)
        log_p, _ = _masked_softmax([[0.0, 0.0, 0.0]], np.ones((1, 3)))
        np.testing.assert_allclose(log_p[0], np.log(1 / 3), atol=1e-15)

    def test_symmetry_under_masking(self):
        _, sigma = _masked_softmax([[2.5, 2.5, 2.5]], [[1, 1, 0]])
        np.testing.assert_allclose(sigma[0], [0.5, 0.5, 0.0], atol=1e-15)
        assert sigma[0, 2] == 0.0
        # a masked entry leaves the sum whatever its logit
        for masked in (-50.0, 2.5, 50.0):
            lse = masked_logsumexp(np.array([[2.5, 2.5, masked]]), np.array([[1, 1, 0]]))
            assert lse[0] == pytest.approx(2.5 + np.log(2), abs=1e-15)

    def test_direct_evaluation(self):
        # log(sum(exp)) and exp(k)/sum(exp) for logits (1, 2, 3), evaluated independently
        logits = np.array([[1.0, 2.0, 3.0]])
        e = np.exp(logits[0])
        lse = masked_logsumexp(logits, np.ones((1, 3)))
        assert lse[0] == pytest.approx(np.log(e.sum()), abs=1e-15)
        _, sigma = _masked_softmax(logits, np.ones((1, 3)))
        np.testing.assert_allclose(sigma[0], e / e.sum(), atol=1e-12)
        np.testing.assert_allclose(
            sigma[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_row_stochastic_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n, m = rng.integers(1, 6), rng.integers(2, 9)
            logits = rng.normal(0, 10, size=(n, m))
            mask = rng.random((n, m)) < 0.6
            mask[np.arange(n), rng.integers(0, m, size=n)] = True
            log_p, sigma = _masked_softmax(logits, mask)
            np.testing.assert_allclose(sigma.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(sigma[~mask] == 0.0)
            assert np.all(np.isneginf(log_p[~mask]))

    def test_sigma_consistent_with_log_p(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(0, 5, size=(4, 7))
        mask = np.ones((4, 7))
        log_p, sigma = _masked_softmax(logits, mask)
        np.testing.assert_allclose(sigma, np.exp(log_p), atol=1e-15)
        lse = masked_logsumexp(logits, mask)
        np.testing.assert_allclose(lse, np.log(np.exp(logits).sum(axis=1)), atol=1e-12)

    def test_extreme_logits_stable(self):
        # magnitudes seen at temperature 0.1 must not overflow
        lse = masked_logsumexp(np.array([[10.0, -10.0, 9.5]]), np.ones((1, 3)))
        assert lse[0] == pytest.approx(10.0 + np.log1p(np.exp(-20.0) + np.exp(-0.5)), abs=1e-14)
        log_p, sigma = _masked_softmax([[10.0, -10.0, 9.5]], np.ones((1, 3)))
        assert np.all(np.isfinite(log_p))
        assert sigma.sum() == pytest.approx(1.0, abs=1e-12)
        lse = masked_logsumexp(np.array([[1000.0, 999.0]]), np.ones((1, 2)))
        assert lse[0] == pytest.approx(1000.0 + np.log1p(np.exp(-1.0)), abs=1e-12)

    def test_fully_masked_row(self):
        with pytest.raises(DomainError, match="fully-masked row at index 1"):
            masked_logsumexp(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([[1, 0], [0, 0]]))


def _two_exponential_softmax(x):
    """(lse, sigma) as the engine formed them before its one-exponential
    kernel: lse from one pass of exponentials over the masked logits x
    (-inf off the mask), sigma from a second, exp(x - lse)."""
    rowmax = np.max(x, axis=1, keepdims=True)
    e = np.exp(x - rowmax)
    lse = rowmax[:, 0] + np.log(np.sum(e, axis=1))
    return lse, np.exp(x - lse[:, None])


def _masked_rows(rng, n, m, scale):
    x = rng.normal(0.0, scale, size=(n, m))
    x[rng.random((n, m)) < 0.3] = -np.inf
    x[np.arange(n), rng.integers(0, m, size=n)] = rng.normal(0.0, scale, size=n)
    return x


class TestSoftmaxKernel:
    """_softmax_rows gives the two-exponential form's log-sum-exp bit for bit
    and its softmax to 1e-12 relative on every entry above 1e-290 (below,
    both forms are subnormal or zero)."""

    @staticmethod
    def _check(x):
        want_lse, want_sigma = _two_exponential_softmax(x)
        sigma = x.copy()
        lse = _softmax_rows(sigma)
        assert lse.tobytes() == want_lse.tobytes()
        assert np.all(sigma[np.isneginf(x)] == 0.0)
        big = want_sigma > 1e-290
        np.testing.assert_allclose(sigma[big], want_sigma[big], rtol=1e-12, atol=0)
        assert np.all(sigma[~big] < 1e-289)
        np.testing.assert_allclose(sigma.sum(axis=1), 1.0, rtol=1e-13)
        return lse, sigma

    def test_random_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            self._check(rng.normal(0.0, 10.0, size=(rng.integers(1, 9), rng.integers(1, 40))))

    def test_rows_with_minus_inf_log_multipliers(self):
        # the engine's masked logits: s + log_g, -inf where log_g removes an entry
        rng = np.random.default_rng(12)
        for _ in range(200):
            self._check(_masked_rows(rng, int(rng.integers(1, 9)), int(rng.integers(2, 40)), 10.0))

    def test_logits_at_plus_minus_one_over_tau(self):
        tau = 1e-3
        rng = np.random.default_rng(13)
        for _ in range(50):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 40))
            x = rng.choice([-1.0 / tau, 1.0 / tau], size=(n, m)) * rng.uniform(0.99, 1.0, (n, m))
            x[rng.random((n, m)) < 0.2] = -np.inf
            x[:, 0] = 1.0 / tau
            lse, sigma = self._check(x)
            assert np.all(np.isfinite(lse))

    def test_single_live_entry(self):
        rng = np.random.default_rng(14)
        x = np.full((5, 7), -np.inf)
        cols = rng.integers(0, 7, size=5)
        x[np.arange(5), cols] = [-1000.0, -3.5, 0.0, 2.0, 1000.0]
        lse, sigma = self._check(x)
        np.testing.assert_array_equal(lse, x[np.arange(5), cols])
        expected = np.zeros((5, 7))
        expected[np.arange(5), cols] = 1.0
        np.testing.assert_array_equal(sigma, expected)

    def test_masked_logsumexp_is_the_kernel_output(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(0.0, 5.0, size=(6, 9))
        mask = rng.random((6, 9)) < 0.7
        mask[:, 3] = True
        x = np.where(mask, logits, -np.inf)
        assert masked_logsumexp(logits, mask).tobytes() == _softmax_rows(x).tobytes()


class TestFiniteDifferenceGradient:
    def test_sum_of_squares(self):
        g = finite_difference_gradient(lambda x: float((x ** 2).sum()), [[3.0]])
        assert g[0, 0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_function(self):
        g = finite_difference_gradient(lambda x: 7.25, np.ones((3, 2)))
        np.testing.assert_array_equal(g, np.zeros((3, 2)))

    def test_quadratic_form(self):
        # for f(x) = x^T M x the central difference is exact up to roundoff
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 1))
        g = finite_difference_gradient(lambda v: float(v[:, 0] @ m @ v[:, 0]), x)
        expected = (m + m.T) @ x[:, 0]
        np.testing.assert_allclose(g[:, 0], expected, atol=1e-8)

    def test_nonfinite_evaluation(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(OracleError):
                finite_difference_gradient(lambda x: float(np.log(x[0, 0])), [[0.0]])

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigError):
            finite_difference_gradient(lambda x: 0.0, [[1.0]], h=-1e-5)


def test_relative_error_floor():
    a = np.array([0.0, 1.0])
    b = np.array([1e-12, 1.0])
    err = relative_error(a, b)
    assert err[0] == pytest.approx(1e-12 / 1e-8)
    assert err[1] == 0.0
