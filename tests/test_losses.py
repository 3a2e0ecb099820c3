"""Loss zoo: frozen examples, finite-difference spot checks, reduction
identities, pair-by-pair references for the per-label positive weights, the
engine's denominator, the gate regularizer's clamp and shared-minimum
properties, the matrix-form equivalence of the regularized loss, and exact
gradient identities that need no finite-difference step."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlclab.datamodel import ContrastiveBatch, overlap_ratio, positive_sets
from mlclab.errors import ConfigError, DomainError
from mlclab.losses import (
    CONTRASTIVE_LOSS_IDS,
    LOGIT_LOSS_IDS,
    LOSS_IDS,
    PROTOTYPE_LOSS_IDS,
    REGULARIZED_LOSS_IDS,
    LossConfig,
    _denominator,
    _raw_pool,
    _run_engine,
    contrastive_loss,
    contrastive_spec,
    host_loss_id,
    logit_loss,
    loss_asymmetric,
    loss_bce,
    loss_reg_matrix_value,
    loss_zlpr,
    needs_prototypes,
    needs_single_label,
    prr,
    reg_term,
)
from mlclab.numerics import (
    _cosine_forward,
    finite_difference_gradient,
    relative_error,
    tempered_cosine_matrix,
)
from mlclab.verification import random_batch

CFG = LossConfig()


def _fd_check(loss_fn, batch, atol=2e-8):
    """Absolute-scale finite-difference check of d_z (and d_prototypes)."""
    bundle = loss_fn(batch)
    fd_z = finite_difference_gradient(
        lambda z: loss_fn(ContrastiveBatch(z=z, y=batch.y, prototypes=batch.prototypes)).loss_value,
        batch.z,
    )
    np.testing.assert_allclose(bundle.d_z, fd_z, atol=atol)
    if batch.prototypes is not None:
        fd_c = finite_difference_gradient(
            lambda c: loss_fn(ContrastiveBatch(z=batch.z, y=batch.y, prototypes=c)).loss_value,
            batch.prototypes,
        )
        np.testing.assert_allclose(bundle.d_prototypes, fd_c, atol=atol)
    return bundle


class TestGeneralizedContrastive:
    def test_equal_similarity_balances_coefficients(self):
        # orthonormal embeddings make sigma uniform; all class weights equal
        rng = np.random.default_rng(2)
        z = np.linalg.qr(rng.normal(size=(5, 5)))[0][:4]
        y = np.tile(np.array([[1, 0]], dtype=np.int8), (4, 1))
        batch = ContrastiveBatch(z=z, y=y)
        bundle = contrastive_loss("supcon", batch, CFG)
        st = bundle.structure
        # sigma uniform over the three others, lam_norm = 1/3 each
        np.testing.assert_allclose(st.sigma[st.denominator_mask], 1 / 3, atol=1e-12)
        np.testing.assert_allclose(st.lam_norm[st.positive_mask], 1 / 3, atol=1e-15)
        _fd_check(lambda b: contrastive_loss("supcon", b, CFG), batch)


class TestLossBase:
    def test_uniform_labels_equals_supcon(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 4))
        y = np.zeros((6, 3), dtype=np.int8)
        y[:, 1] = 1
        batch = ContrastiveBatch(z=z, y=y)
        assert contrastive_loss("base", batch, CFG).loss_value == pytest.approx(
            contrastive_loss("supcon", batch, CFG).loss_value, abs=1e-12)

    def test_disjoint_labels_all_skipped(self):
        z = np.random.default_rng(5).normal(size=(3, 4))
        batch = ContrastiveBatch(z=z, y=np.eye(3, dtype=np.int8))
        bundle = contrastive_loss("base", batch, CFG)
        assert bundle.loss_value == 0.0
        np.testing.assert_array_equal(bundle.d_z, np.zeros_like(z))

    def test_fd(self):
        rng = np.random.default_rng(6)
        y = (rng.random((6, 3)) < 0.5).astype(np.int8)
        y[y.sum(axis=1) == 0, 0] = 1
        batch = ContrastiveBatch(z=rng.normal(size=(6, 4)), y=y)
        _fd_check(lambda b: contrastive_loss("base", b, CFG), batch)


class TestLossProto:
    def test_closed_form_single_instance(self):
        # anchor aligned with its prototype, second prototype orthogonal:
        # loss = -log(e^{1/tau} / (e^{1/tau} + 1))
        batch = ContrastiveBatch(
            z=np.array([[1.0, 0.0]]),
            y=np.array([[1, 0]], dtype=np.int8),
            prototypes=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        v = contrastive_loss("proto", batch, LossConfig(tau=0.1)).loss_value
        expected = -np.log(np.exp(10.0) / (np.exp(10.0) + 1.0))
        assert v == pytest.approx(expected, abs=1e-12)
        assert v == pytest.approx(4.5398899e-05, rel=1e-6)

    def test_identical_prototypes_give_log_l(self):
        rng = np.random.default_rng(7)
        proto = np.tile([[0.3, -0.7, 0.2]], (4, 1))
        y = (rng.random((5, 4)) < 0.5).astype(np.int8)
        y[y.sum(axis=1) == 0, 0] = 1
        batch = ContrastiveBatch(z=rng.normal(size=(5, 3)), y=y, prototypes=proto)
        assert contrastive_loss("proto", batch, CFG).loss_value == pytest.approx(
            np.log(4), abs=1e-12)

    def test_fd_both_inputs(self):
        batch = random_batch(np.random.default_rng(8), "proto")
        _fd_check(lambda b: contrastive_loss("proto", b, CFG), batch)

    def test_missing_prototypes(self):
        b = random_batch(np.random.default_rng(9), "base")
        with pytest.raises(ConfigError, match="prototypes"):
            contrastive_loss("proto", b, CFG)

    def test_batch_joined_denominator_variant(self):
        batch = random_batch(np.random.default_rng(10), "proto")
        cfg2 = LossConfig(proto_denominator="batch+prototypes")
        v1 = contrastive_loss("proto", batch, CFG).loss_value
        v2 = contrastive_loss("proto", batch, cfg2).loss_value
        assert v2 > v1  # larger denominator support shrinks every softmax term
        _fd_check(lambda b: contrastive_loss("proto", b, cfg2), batch)


class TestLossMulsupcon:
    def test_single_label_equals_supcon(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            batch = random_batch(rng, "supcon")
            v1 = contrastive_loss("mulsupcon", batch, CFG)
            v2 = contrastive_loss("supcon", batch, CFG)
            assert v1.loss_value == pytest.approx(v2.loss_value, abs=1e-12)
            np.testing.assert_allclose(v1.d_z, v2.d_z, atol=1e-12)

    def test_fd(self):
        rng = np.random.default_rng(13)
        y = (rng.random((8, 4)) < 0.45).astype(np.int8)
        y[y.sum(axis=1) == 0, 0] = 1
        batch = ContrastiveBatch(z=rng.normal(size=(8, 4)), y=y)
        _fd_check(lambda b: contrastive_loss("mulsupcon", b, CFG), batch)

    def test_empty_positive_sets_drop_out(self):
        # one label carried by a single instance contributes nothing
        z = np.random.default_rng(14).normal(size=(3, 3))
        y = np.array([[1, 1], [1, 0], [1, 0]], dtype=np.int8)
        batch = ContrastiveBatch(z=z, y=y)
        bundle = contrastive_loss("mulsupcon", batch, CFG)
        st = bundle.structure
        # anchor 0's label 1 has no other carrier; its lam only reflects label 0
        assert st.lam[0, 1] == pytest.approx(0.5)  # 1/|P(0,0)| = 1/2
        assert np.isfinite(bundle.loss_value)


class TestLossMsc:
    def test_single_anchor_direct_evaluation(self):
        rng = np.random.default_rng(15)
        z = rng.normal(size=(1, 4))
        y = np.array([[0, 1, 0]], dtype=np.int8)
        protos = rng.normal(size=(3, 4))
        batch = ContrastiveBatch(z=z, y=y, prototypes=protos)
        v = contrastive_loss("msc", batch, LossConfig(beta=1.0)).loss_value
        s = tempered_cosine_matrix(z, protos, CFG.tau)[0]
        direct = -np.log(np.exp(s[1]) / np.exp(s).sum())
        assert v == pytest.approx(direct, abs=1e-12)

    def test_beta_zero_masks_instance_negatives(self):
        batch = random_batch(np.random.default_rng(16), "msc")
        bundle = contrastive_loss("msc", batch, LossConfig(beta=0.0))
        st = bundle.structure
        np.testing.assert_allclose(st.sigma.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(st.sigma[:, :batch.n] == 0.0)

    def test_fd_with_beta(self):
        batch = random_batch(np.random.default_rng(17), "msc")
        cfg = LossConfig(beta=0.5)
        _fd_check(lambda b: contrastive_loss("msc", b, cfg), batch)

    def test_missing_prototypes(self):
        b = random_batch(np.random.default_rng(18), "base")
        with pytest.raises(ConfigError):
            contrastive_loss("msc", b, CFG)


class TestRegTerm:
    def test_closed_gates_give_zero(self):
        # sigma below lam_norm on every positive: gate shut, no contribution
        batch = random_batch(np.random.default_rng(19), "reg")
        bundle = contrastive_loss("reg-noreg", batch, CFG)
        st = bundle.structure
        st.sigma = np.zeros_like(st.sigma)
        res = reg_term(batch, st, CFG)
        assert np.all(res.value_per_anchor == 0.0)
        np.testing.assert_array_equal(res.d_z, np.zeros_like(batch.z))

    def test_minimum_condition_exact_zero(self):
        # sigma equal to lam_norm exactly: value and gradient are exact zeros
        batch = random_batch(np.random.default_rng(20), "reg")
        bundle = contrastive_loss("reg-noreg", batch, CFG)
        st = bundle.structure
        st.sigma = st.lam_norm.copy()
        res = reg_term(batch, st, CFG)
        assert np.all(res.value_per_anchor == 0.0)
        assert np.all(res.d_z == 0.0)
        assert np.all(res.d_prototypes == 0.0)

    def test_open_gate_negates_repulsion(self):
        # engineered batch with one dominant positive pair: with the
        # regularizer the pair's combined coefficient is clamped to zero
        z = np.array([[1.0, 0.0], [0.999, 0.01], [-1.0, 0.3], [0.2, -1.0]])
        y = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.int8)
        batch = ContrastiveBatch(z=z, y=y, prototypes=np.eye(2))
        reg = contrastive_loss("reg", batch, CFG)
        noreg = contrastive_loss("reg-noreg", batch, CFG)
        assert reg.gate_value.max() > 0  # at least one open gate
        np.testing.assert_allclose(
            reg.combined_coeff, np.minimum(0.0, reg.gate_value), atol=1e-15)
        assert not np.allclose(reg.d_z, noreg.d_z)


class TestFusedRegularizer:
    """The engine folds the gate term into its single backward; reg_term is
    the standalone reference it must stay in step with."""

    @pytest.mark.parametrize("loss_id,host_id", [("reg", "reg-noreg"), ("supcon-reg", "supcon")])
    def test_engine_matches_host_plus_reg_term(self, loss_id, host_id):
        rng = np.random.default_rng(42)
        for _ in range(100):
            batch = random_batch(rng, loss_id)
            full = contrastive_loss(loss_id, batch, CFG)
            host = contrastive_loss(host_id, batch, CFG)
            ref = reg_term(batch, full.structure, CFG)
            assert full.loss_value == host.loss_value + float(
                np.dot(full.structure.outer, ref.value_per_anchor))
            expected_dz = host.d_z + ref.d_z
            scale = np.abs(expected_dz).max()
            assert np.abs(full.d_z - expected_dz).max() <= 1e-12 * scale
            if batch.prototypes is not None:
                expected_dc = host.d_prototypes + ref.d_prototypes
                scale = np.abs(expected_dc).max()
                assert np.abs(full.d_prototypes - expected_dc).max() <= 1e-12 * scale

    def test_one_cosine_pass_per_regularized_step(self, monkeypatch):
        # the engine calls the numerics kernels directly: one inverse-norm
        # pass per block, one forward product, one backward
        import mlclab.losses as losses

        calls = {"fwd": 0, "bwd": 0, "norms": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if name == "norms":
                    calls["norms"].append(args[1])
                else:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(losses, "_cosine_forward", counted("fwd", losses._cosine_forward))
        monkeypatch.setattr(losses, "_cosine_backward", counted("bwd", losses._cosine_backward))
        monkeypatch.setattr(losses, "_inverse_norms", counted("norms", losses._inverse_norms))
        for name in ("tempered_cosine_matrix", "tempered_cosine_backward"):
            monkeypatch.setattr(losses, name, None)  # the public checked pair is off the path
        contrastive_loss("reg", random_batch(np.random.default_rng(43), "reg"), CFG)
        assert calls == {"fwd": 1, "bwd": 1, "norms": ["embeddings", "prototypes"]}


class TestTrustedBatch:
    """Training and PRR build batches with ContrastiveBatch._trusted; the
    engine must give them the same bits as a validated batch."""

    @pytest.mark.parametrize("loss_id", CONTRASTIVE_LOSS_IDS)
    def test_trusted_and_validated_batches_give_same_bits(self, loss_id):
        rng = np.random.default_rng(44)
        for _ in range(5):
            raw = random_batch(rng, loss_id)
            validated = ContrastiveBatch(z=raw.z.tolist(), y=raw.y.astype(np.int64),
                                         prototypes=raw.prototypes)
            trusted = ContrastiveBatch._trusted(raw.z, raw.y, raw.prototypes)
            a = contrastive_loss(loss_id, validated, CFG)
            b = contrastive_loss(loss_id, trusted, CFG)
            assert np.float64(a.loss_value).tobytes() == np.float64(b.loss_value).tobytes()
            for x, y in ((a.d_z, b.d_z), (a.d_prototypes, b.d_prototypes),
                         (a.gate_value, b.gate_value)):
                assert (x is None and y is None) or x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("loss_id", CONTRASTIVE_LOSS_IDS)
    def test_pool_never_aliases_anchors(self, loss_id, monkeypatch):
        # A @ A.T takes numpy's symmetric kernel, whose last bits differ
        import mlclab.losses as losses

        seen = []

        def forward(a, a_inv, b, b_inv, tau):
            seen.append(np.shares_memory(a, b))
            return _cosine_forward(a, a_inv, b, b_inv, tau)

        monkeypatch.setattr(losses, "_cosine_forward", forward)
        contrastive_loss(loss_id, random_batch(np.random.default_rng(46), loss_id), CFG)
        assert seen == [False]

    def test_engine_rejects_zero_norm_row_of_trusted_batch(self):
        batch = random_batch(np.random.default_rng(45), "reg")
        z = batch.z.copy()
        z[1] = 0.0
        with pytest.raises(DomainError, match="embeddings has zero-norm row at index 1"):
            contrastive_loss("reg", ContrastiveBatch._trusted(z, batch.y, batch.prototypes), CFG)
        protos = batch.prototypes.copy()
        protos[0] = 0.0
        with pytest.raises(DomainError, match="prototypes has zero-norm row at index 0"):
            contrastive_loss("reg", ContrastiveBatch._trusted(batch.z, batch.y, protos), CFG)


def _per_label_reference(y, weight, prototypes):
    """Pair-by-pair per-label weights: per anchor label j, the other carriers
    of j (and prototype j, pool index n + j, when prototypes), weighted by
    weight(i, k) and normalized over the label."""
    n, big_l = y.shape
    lam = np.zeros((n, n + big_l if prototypes else n))
    for i, anchor in enumerate(positive_sets(y)):
        for j, carriers in anchor.per_label.items():
            members = list(carriers) + ([n + j] if prototypes else [])
            weights = [weight(i, k) for k in members]
            for k, w in zip(members, weights):
                lam[i, k] += w / sum(weights)
    return lam


def _reg_lam_reference(y, alpha):
    """reg: the members of each label weighted by overlap_ratio."""
    pool_y = np.vstack([y, np.eye(y.shape[1], dtype=y.dtype)])
    return _per_label_reference(y, lambda i, k: overlap_ratio(y[i], pool_y[k], alpha), True)


class TestPerLabelReferences:
    """The coeff of mulsupcon and msc against the pair-by-pair loop."""

    def test_mulsupcon_coeff(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            batch = random_batch(rng, "mulsupcon")
            coeff = contrastive_loss("mulsupcon", batch, CFG).structure.coeff
            expected = _per_label_reference(batch.y, lambda i, k: 1.0, False)
            np.testing.assert_allclose(coeff, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_msc_coeff(self, beta):
        rng = np.random.default_rng(52)
        for _ in range(10):
            batch = random_batch(rng, "msc")
            y, n = batch.y.astype(bool), batch.n

            def weight(i, k):
                # 1 / |y_i | y_k| for an instance, 1 for a prototype
                return 1.0 / np.sum(y[i] | y[k]) if k < n else 1.0

            coeff = contrastive_loss("msc", batch, LossConfig(beta=beta)).structure.coeff
            expected = _per_label_reference(batch.y, weight, True) / y.sum(axis=1)[:, None]
            np.testing.assert_allclose(coeff, expected, rtol=0, atol=1e-15)


class TestDenominatorMask:
    """The engine derives the softmax support from the pool layout."""

    @pytest.mark.parametrize("loss_id,cfg", [
        *(pytest.param(lid, CFG, id=lid) for lid in CONTRASTIVE_LOSS_IDS),
        pytest.param("proto", LossConfig(proto_denominator="batch+prototypes"),
                     id="proto-batch+prototypes"),
        pytest.param("msc", LossConfig(beta=0.0), id="msc-beta0"),
    ])
    def test_pool_minus_self(self, loss_id, cfg):
        include_batch = loss_id != "proto" or cfg.proto_denominator == "batch+prototypes"
        rng = np.random.default_rng(53)
        for _ in range(3):
            batch = random_batch(rng, loss_id)
            n = batch.n
            m = (n if include_batch else 0) + (batch.n_labels if needs_prototypes(loss_id) else 0)
            expected = np.ones((n, m), dtype=bool)
            if include_batch:
                expected[:, :n] = ~np.eye(n, dtype=bool)
            if cfg.beta == 0.0:
                # on top of pool minus self, beta = 0 removes msc's instance columns
                expected[:, :n] = False
            st = contrastive_loss(loss_id, batch, cfg).structure
            assert st.denominator_mask.dtype == bool
            np.testing.assert_array_equal(st.denominator_mask, expected)

    def test_cached_mask_rejects_writes(self):
        batch = random_batch(np.random.default_rng(54), "reg")
        mask = contrastive_loss("reg", batch, CFG).structure.denominator_mask
        # one array per shape, shared by every step of that shape
        assert contrastive_loss("reg-noreg", batch, CFG).structure.denominator_mask is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 1] = False
        assert mask[0, 1] and not mask[0, 0]


def _two_exponential_host(batch, spec, cfg):
    """(value, lse, masked logits) of the unregularized engine as it formed
    them before its one-exponential softmax: the masked logits
    where(mask, s + log_g, -inf) and masked_logsumexp's two-pass form."""
    z_inv, pool, pool_inv, _ = _raw_pool(batch, spec.include_batch, spec.include_prototypes)
    s = _cosine_forward(batch.z, z_inv, pool, pool_inv, cfg.tau)
    mask = np.ones(s.shape, dtype=bool)
    if spec.include_batch:
        np.fill_diagonal(mask, False)
    den = s
    if spec.log_g is not None:
        with np.errstate(invalid="ignore"):
            den = s + spec.log_g
        mask &= spec.log_g > -np.inf
    x = np.where(mask, den, -np.inf)
    rowmax = np.max(x, axis=1, keepdims=True)
    lse = rowmax[:, 0] + np.log(np.sum(np.exp(x - rowmax), axis=1))
    per_anchor = lse * spec.coeff.sum(axis=1) - np.einsum("ij,ij->i", spec.coeff, s)
    return float(np.dot(spec.outer, per_anchor)), lse, x


def _training_shaped_batch(rng, loss_id):
    n, dim, big_l = 64, 32, 20
    y = np.zeros((n, big_l), dtype=np.int8)
    y[np.arange(n), rng.integers(0, big_l, size=n)] = 1
    if not needs_single_label(loss_id):
        y |= (rng.random((n, big_l)) < 0.08).astype(np.int8)
    protos = rng.normal(size=(big_l, dim)) if needs_prototypes(loss_id) else None
    return ContrastiveBatch(z=rng.normal(size=(n, dim)), y=y, prototypes=protos)


_HOSTS = [
    *(pytest.param(lid, CFG, id=lid) for lid in CONTRASTIVE_LOSS_IDS
      if lid not in REGULARIZED_LOSS_IDS),
    pytest.param("msc", LossConfig(beta=0.0), id="msc-beta0"),
    pytest.param("proto", LossConfig(proto_denominator="batch+prototypes"),
                 id="proto-batch+prototypes"),
]


class TestOneExponentialEngine:
    """The engine's softmax takes one exponential per entry. Host values keep
    the bits of the two-exponential form; sigma moves in its last bits."""

    @pytest.mark.parametrize("loss_id,cfg", _HOSTS)
    def test_host_values_bit_identical_to_two_exponential_form(self, loss_id, cfg):
        rng = np.random.default_rng(61)
        batches = [random_batch(rng, loss_id) for _ in range(60)]
        batches += [_training_shaped_batch(rng, loss_id) for _ in range(3)]
        for batch in batches:
            spec = contrastive_spec(loss_id, batch, cfg)
            want, lse, x = _two_exponential_host(batch, spec, cfg)
            for compute_gradients in (True, False):
                got = contrastive_loss(loss_id, batch, cfg, compute_gradients)
                assert np.float64(got.loss_value).tobytes() == np.float64(want).tobytes()
            sigma_ref = np.exp(x - lse[:, None])
            big = sigma_ref > 1e-290
            np.testing.assert_allclose(got.structure.sigma[big], sigma_ref[big], rtol=1e-12, atol=0)
            assert np.all(got.structure.sigma[~big] < 1e-289)

    def test_spec_inputs_computed_once(self):
        batch = random_batch(np.random.default_rng(62), "msc")
        spec = contrastive_spec("msc", batch, CFG)
        a = _run_engine(batch, spec, CFG, False).structure
        b = _run_engine(batch, spec, CFG, False, compute_gradients=False).structure
        for name in ("positive_mask", "lam_norm", "denominator_mask"):
            assert getattr(a, name) is getattr(b, name), name
        assert spec.denominator is spec.denominator
        total = spec.coeff.sum(axis=1)
        np.testing.assert_array_equal(a.lam_norm, spec.coeff / np.where(total > 0, total, 1.0)[:, None])
        np.testing.assert_array_equal(a.positive_mask, spec.coeff > 0)

    def test_diagonal_shift_is_cached_and_read_only(self):
        mask, shift = _denominator(4, 7, True)
        assert _denominator(4, 7, True)[1] is shift
        assert np.all(np.isneginf(np.diagonal(shift))) and np.all(shift[mask] == 0.0)
        with pytest.raises(ValueError, match="read-only"):
            shift[0, 1] = 1.0
        assert _denominator(4, 4, False)[1] is None

    @pytest.mark.parametrize("loss_id", CONTRASTIVE_LOSS_IDS)
    def test_nan_embedding_gives_nan_loss(self, loss_id):
        batch = random_batch(np.random.default_rng(63), loss_id)
        z = batch.z.copy()
        z[1, 0] = np.nan
        with np.errstate(invalid="ignore"):
            bundle = contrastive_loss(loss_id, ContrastiveBatch._trusted(z, batch.y, batch.prototypes),
                                      CFG)
        assert np.isnan(bundle.loss_value)

    def test_fully_masked_row_is_a_domain_error(self):
        # the mask decides, not the softmax sums
        batch = random_batch(np.random.default_rng(64), "msc")
        spec = contrastive_spec("msc", batch, LossConfig(beta=0.0))
        spec.log_g[2, :] = -np.inf
        with pytest.raises(DomainError, match="fully-masked row at index 2"):
            _run_engine(batch, spec, CFG, False)
        with pytest.raises(DomainError, match="fully-masked row at index 0"):
            _denominator(1, 1, True)


class TestLossReg:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_lam_matches_pair_by_pair_reference(self, alpha):
        rng = np.random.default_rng(21)
        cfg = LossConfig(alpha=alpha)
        for _ in range(10):
            batch = random_batch(rng, "reg")
            lam = contrastive_loss("reg", batch, cfg).structure.lam
            np.testing.assert_allclose(lam, _reg_lam_reference(batch.y, alpha),
                                       rtol=0, atol=1e-12)

    def test_regularizer_toggle_at_minimum_condition(self):
        # orthonormal same-class embeddings with matching prototypes removed:
        # use the injected-structure route, which is exact
        batch = random_batch(np.random.default_rng(22), "reg")
        bundle = contrastive_loss("reg-noreg", batch, CFG)
        st = bundle.structure
        st.sigma = st.lam_norm.copy()
        res = reg_term(batch, st, CFG)
        assert np.all(res.value_per_anchor == 0.0)

    def test_fd_differentiable_part_with_alpha(self):
        batch = random_batch(np.random.default_rng(23), "reg")
        cfg = LossConfig(alpha=1.0)
        _fd_check(lambda b: contrastive_loss("reg-noreg", b, cfg), batch)

    def test_matrix_form_agrees(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            batch = random_batch(rng, "reg")
            for use_reg in (True, False):
                v1 = contrastive_loss("reg" if use_reg else "reg-noreg", batch, CFG).loss_value
                v2 = loss_reg_matrix_value(batch, CFG, use_reg=use_reg)
                assert v1 == pytest.approx(v2, abs=1e-10)

    def test_matrix_form_rejects_alpha_weighting(self):
        batch = random_batch(np.random.default_rng(25), "reg")
        with pytest.raises(ConfigError):
            loss_reg_matrix_value(batch, LossConfig(alpha=1.0))

    def test_reg_noreg_is_ablation(self):
        # the two ids share one spec and differ only in the gate term
        batch = random_batch(np.random.default_rng(26), "reg")
        noreg = contrastive_loss("reg-noreg", batch, CFG)
        reg = contrastive_loss("reg", batch, CFG)
        np.testing.assert_array_equal(noreg.structure.coeff, reg.structure.coeff)
        np.testing.assert_array_equal(noreg.gate_value, reg.gate_value)
        assert noreg.loss_value != reg.loss_value


class TestSupcon:
    @pytest.mark.parametrize("loss_id", ["supcon", "supcon-reg"])
    def test_rejects_multilabel(self, loss_id):
        y = np.array([[1, 1], [1, 0]], dtype=np.int8)
        batch = ContrastiveBatch(z=np.random.default_rng(27).normal(size=(2, 3)), y=y)
        match = f"{loss_id} requires exactly one label.*multi-label"
        with pytest.raises(DomainError, match=match):
            contrastive_loss(loss_id, batch, CFG)

    def test_same_bits_as_anchor_mean_of_same_class(self):
        # supcon runs mulsupcon's spec; on single-label rows its coeff and
        # outer are SupCon's uniform weights over the other same-class rows
        rng = np.random.default_rng(31)
        for _ in range(20):
            batch = random_batch(rng, "supcon")
            yf = batch.y.astype(np.float64)
            lam = yf @ yf.T
            lam[np.eye(batch.n, dtype=bool)] = 0.0
            total = lam.sum(axis=1)
            coeff = np.where(total[:, None] > 0.0,
                             lam / np.where(total > 0, total, 1.0)[:, None], 0.0)
            st = contrastive_loss("supcon", batch, CFG).structure
            assert st.coeff.tobytes() == coeff.tobytes()
            assert st.outer.tobytes() == np.full(batch.n, 1.0 / batch.n).tobytes()

    def test_positive_negative_structure(self):
        rng = np.random.default_rng(28)
        z = rng.normal(size=(3, 4))
        y = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int8)
        batch = ContrastiveBatch(z=z, y=y)
        bundle = _fd_check(lambda b: contrastive_loss("supcon", b, CFG), batch)
        st = bundle.structure
        assert st.positive_mask[0, 1] and st.positive_mask[1, 0]
        assert not st.positive_mask[0, 2]
        assert st.negatives_mask()[0, 2]

    def test_all_same_class_gate_values(self):
        rng = np.random.default_rng(29)
        n = 5
        z = rng.normal(size=(n, 4))
        y = np.zeros((n, 2), dtype=np.int8)
        y[:, 0] = 1
        bundle = contrastive_loss("supcon-reg", ContrastiveBatch(z=z, y=y), CFG)
        st = bundle.structure
        expected = -1.0 / (n - 1) + st.sigma[st.positive_mask]
        np.testing.assert_allclose(bundle.gate_value, expected, atol=1e-15)

    def test_minimum_condition_equals_plain_supcon(self):
        rng = np.random.default_rng(30)
        z = np.linalg.qr(rng.normal(size=(6, 6)))[0][:5]
        y = np.zeros((5, 3), dtype=np.int8)
        y[:, 1] = 1
        batch = ContrastiveBatch(z=z, y=y)
        v_reg = contrastive_loss("supcon-reg", batch, CFG)
        v_plain = contrastive_loss("supcon", batch, CFG)
        assert v_reg.loss_value == pytest.approx(v_plain.loss_value, abs=1e-12)
        np.testing.assert_allclose(v_reg.d_z, v_plain.d_z, atol=1e-12)


class TestLogitLosses:
    def test_bce_zero_logits(self):
        y = np.array([[1, 0], [0, 1]], dtype=np.int8)
        res = loss_bce(np.zeros((2, 2)), y)
        assert res.loss_value == pytest.approx(np.log(2), abs=1e-15)

    def test_bce_perfect_prediction_capped(self):
        y = np.array([[1, 0]], dtype=np.int8)
        logits = np.array([[40.0, -40.0]])
        res = loss_bce(logits, y)
        assert res.loss_value < 1e-12

    def test_bce_fd(self):
        rng = np.random.default_rng(31)
        logits = rng.normal(0, 2, size=(3, 4))
        y = (rng.random((3, 4)) < 0.5).astype(np.int8)
        res = loss_bce(logits, y)
        fd = finite_difference_gradient(lambda x: loss_bce(x, y).loss_value, logits)
        assert relative_error(res.d_logits, fd).max() < 1e-6

    def test_asymmetric_reduces_to_bce(self):
        rng = np.random.default_rng(32)
        logits = rng.normal(0, 3, size=(4, 5))
        y = (rng.random((4, 5)) < 0.5).astype(np.int8)
        cfg = LossConfig(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
        assert loss_asymmetric(logits, y, cfg).loss_value == pytest.approx(
            loss_bce(logits, y).loss_value, abs=1e-12)

    def test_asymmetric_margin_one_saturates(self):
        # margin just below 1 clips every shifted score to zero: the loss hits
        # the probability-floor plateau and the gradient vanishes there
        rng = np.random.default_rng(33)
        logits = rng.normal(size=(3, 4))
        y = (rng.random((3, 4)) < 0.5).astype(np.int8)
        cfg = LossConfig(margin=0.999999999)
        res = loss_asymmetric(logits, y, cfg)
        assert np.isfinite(res.loss_value)
        np.testing.assert_array_equal(res.d_logits, np.zeros_like(logits))

    def test_asymmetric_default_fd(self):
        rng = np.random.default_rng(34)
        logits = rng.normal(0, 2, size=(4, 4))
        y = (rng.random((4, 4)) < 0.5).astype(np.int8)
        cfg = LossConfig(gamma_pos=0.0, gamma_neg=1.0, margin=0.0)
        res = loss_asymmetric(logits, y, cfg)
        fd = finite_difference_gradient(
            lambda x: loss_asymmetric(x, y, cfg).loss_value, logits)
        assert relative_error(res.d_logits, fd).max() < 1e-6

    def test_asymmetric_positive_margin_fd_away_from_kink(self):
        rng = np.random.default_rng(35)
        cfg = LossConfig(gamma_pos=1.0, gamma_neg=2.0, margin=0.3)
        logits = rng.normal(0, 2, size=(4, 4))
        p = 1 / (1 + np.exp(-logits))
        logits[np.abs(p - cfg.margin) < 1e-2] += 0.2
        res = loss_asymmetric(logits, y := (rng.random((4, 4)) < 0.5).astype(np.int8), cfg)
        fd = finite_difference_gradient(
            lambda x: loss_asymmetric(x, y, cfg).loss_value, logits)
        assert relative_error(res.d_logits, fd).max() < 1e-6

    def test_zlpr_zero_scores(self):
        # k positives and L-k negatives at score 0: log(1+k) + log(1+L-k)
        y = np.array([[1, 1, 0, 0, 0]], dtype=np.int8)
        res = loss_zlpr(np.zeros((1, 5)), y)
        assert res.loss_value == pytest.approx(np.log(3) + np.log(4), abs=1e-12)

    def test_zlpr_saturated_positives(self):
        y = np.ones((2, 3), dtype=np.int8)
        res = loss_zlpr(np.full((2, 3), 60.0), y)
        assert res.loss_value < 1e-12

    def test_zlpr_fd(self):
        rng = np.random.default_rng(36)
        logits = rng.normal(0, 2, size=(4, 5))
        y = (rng.random((4, 5)) < 0.5).astype(np.int8)
        res = loss_zlpr(logits, y)
        fd = finite_difference_gradient(lambda x: loss_zlpr(x, y).loss_value, logits)
        assert relative_error(res.d_logits, fd).max() < 1e-6

    def test_logit_losses_permutation_invariant(self):
        rng = np.random.default_rng(37)
        logits = rng.normal(size=(6, 4))
        y = (rng.random((6, 4)) < 0.5).astype(np.int8)
        perm = rng.permutation(6)
        for lid in ("bce", "asy", "zlpr"):
            v1 = logit_loss(lid, logits, y, CFG)
            v2 = logit_loss(lid, logits[perm], y[perm], CFG)
            assert v1.loss_value == pytest.approx(v2.loss_value, abs=1e-12)
            np.testing.assert_allclose(v1.d_logits[perm], v2.d_logits, atol=1e-15)


def _eager_gates(bundle, regularized):
    """(gate_anchor, gate_pool, gate_value, combined_coeff) extracted from the
    structure eagerly, as the engine did before it built them on demand."""
    st = bundle.structure
    gi, gk = np.nonzero(st.positive_mask)
    d_s = -st.coeff + st.coeff.sum(axis=1)[:, None] * st.sigma
    combined = np.where(st.positive_mask, d_s, 0.0)
    if regularized:
        combined = combined - np.where(st.positive_mask,
                                       np.maximum(0.0, -st.lam_norm + st.sigma), 0.0)
    return gi, gk, (-st.lam_norm + st.sigma)[gi, gk], combined[gi, gk]


def _same_prr(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and np.float64(a).tobytes() == np.float64(b).tobytes())


def _counted_prr(bundle):
    """The batch PRR as training forms it from prr_counts()."""
    n_open, positives = bundle.prr_counts()
    return n_open / positives if positives else None


class TestGatesOnDemand:
    """The gate arrays are built when first read; they must equal eager
    extraction, and the PRR from prr_counts() must equal prr(gate_value)."""

    @pytest.mark.parametrize("loss_id", CONTRASTIVE_LOSS_IDS)
    def test_on_demand_gates_match_eager_extraction(self, loss_id):
        rng = np.random.default_rng(47)
        for _ in range(5):
            batch = random_batch(rng, loss_id)
            full = contrastive_loss(loss_id, batch, CFG)
            lean = contrastive_loss(loss_id, batch, CFG, compute_gradients=False)
            eager = _eager_gates(full, loss_id in REGULARIZED_LOSS_IDS)
            on_demand = (full.gate_anchor, full.gate_pool, full.gate_value, full.combined_coeff)
            for got, want in zip(on_demand, eager):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for got, want in zip((lean.gate_anchor, lean.gate_pool, lean.gate_value), eager):
                assert got.tobytes() == want.tobytes()
            assert lean.combined_coeff is None
            gates = full.gate_value
            assert full.prr_counts() == lean.prr_counts() == (
                int(np.count_nonzero(gates > 0.0)), gates.size)
            assert _same_prr(_counted_prr(full), prr(gates))
            assert _same_prr(_counted_prr(lean), prr(gates))

    @pytest.mark.parametrize("loss_id", ["base", "mulsupcon", "supcon", "supcon-reg"])
    def test_batch_without_positives(self, loss_id):
        # one label per row, no label shared: no anchor has a positive
        z = np.random.default_rng(48).normal(size=(4, 3))
        bundle = contrastive_loss(loss_id, ContrastiveBatch(z=z, y=np.eye(4, dtype=np.int8)), CFG)
        assert bundle.gate_value.size == 0 and bundle.combined_coeff.size == 0
        assert bundle.prr_counts() == (0, 0) and prr(bundle.gate_value) is None

    def test_gate_exactly_zero_counts_as_closed(self):
        # orthonormal rows of one class: sigma is uniform and equals lam_norm,
        # so every gate is -a + a = 0 and the batch PRR is 0
        z = np.eye(5)[:4]
        y = np.zeros((4, 2), dtype=np.int8)
        y[:, 0] = 1
        bundle = contrastive_loss("supcon-reg", ContrastiveBatch(z=z, y=y), CFG)
        st = bundle.structure
        assert np.array_equal(st.sigma[st.positive_mask], st.lam_norm[st.positive_mask])
        assert bundle.prr_counts() == (0, 12)
        assert _counted_prr(bundle) == prr(bundle.gate_value) == 0.0


class TestPrr:
    def test_open_gate_is_sigma_above_lam_norm(self):
        # -a + b > 0 exactly when b > a, subnormals and one-ulp gaps included
        tiny = np.finfo(np.float64).smallest_subnormal
        a = np.array([0.5, 0.5, 1e-310, 1e-310, tiny, 0.0, tiny, 1.0 / 3.0])
        b = np.array([np.nextafter(0.5, 1.0), 0.5, np.nextafter(1e-310, 1.0), 1e-310,
                      2 * tiny, tiny, 0.0, np.nextafter(1.0 / 3.0, 0.0)])
        np.testing.assert_array_equal(-a + b > 0.0, b > a)

    def test_minimum_condition_zero(self):
        assert prr(np.array([-0.1, 0.0, -0.3])) == 0.0

    def test_half_open(self):
        # sigma (0.9, 0.1) against lam_norm (0.5, 0.5): gates (0.4, -0.4)
        assert prr(np.array([0.4, -0.4])) == 0.5

    def test_empty_is_absent(self):
        assert prr(np.array([])) is None


class TestCrossCutting:
    @pytest.mark.parametrize("loss_id", [
        "base", "proto", "mulsupcon", "msc", "reg", "reg-noreg",
    ])
    def test_permutation_equivariance(self, loss_id):
        rng = np.random.default_rng(38)
        batch = random_batch(rng, loss_id)
        perm = rng.permutation(batch.n)
        permuted = ContrastiveBatch(z=batch.z[perm], y=batch.y[perm],
                                    prototypes=batch.prototypes)
        b1 = contrastive_loss(loss_id, batch, CFG)
        b2 = contrastive_loss(loss_id, permuted, CFG)
        assert b1.loss_value == pytest.approx(b2.loss_value, abs=1e-12)
        np.testing.assert_allclose(b1.d_z[perm], b2.d_z, atol=1e-12)

    @pytest.mark.parametrize("loss_id", ["supcon", "supcon-reg"])
    def test_permutation_equivariance_single_label(self, loss_id):
        rng = np.random.default_rng(39)
        batch = random_batch(rng, loss_id)
        perm = rng.permutation(batch.n)
        permuted = ContrastiveBatch(z=batch.z[perm], y=batch.y[perm])
        b1 = contrastive_loss(loss_id, batch, CFG)
        b2 = contrastive_loss(loss_id, permuted, CFG)
        assert b1.loss_value == pytest.approx(b2.loss_value, abs=1e-12)
        np.testing.assert_allclose(b1.d_z[perm], b2.d_z, atol=1e-12)

    def test_unknown_loss_id(self):
        with pytest.raises(ConfigError, match="unknown loss id"):
            contrastive_loss("focal", random_batch(np.random.default_rng(40), "base"), CFG)
        assert "focal" not in LOSS_IDS

    def test_value_only_mode_matches(self):
        rng = np.random.default_rng(41)
        for lid in ("base", "reg", "msc", "supcon-reg"):
            batch = random_batch(rng, lid)
            full = contrastive_loss(lid, batch, CFG)
            lean = contrastive_loss(lid, batch, CFG, compute_gradients=False)
            assert lean.loss_value == full.loss_value
            assert lean.d_z is None


class TestLossConfigValidation:
    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            LossConfig(tau=0.0)

    def test_bad_margin(self):
        with pytest.raises(ConfigError):
            LossConfig(margin=1.0)

    def test_bad_proto_denominator(self):
        with pytest.raises(ConfigError):
            LossConfig(proto_denominator="everything")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(LossConfig) if isinstance(f.default, float)])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match="finite"):
            LossConfig(**{name: value})


# one non-default value per LossConfig field
_KNOB_VALUES = {
    "tau": 0.5,
    "alpha": 1.0,
    "beta": 0.5,
    "gamma_pos": 1.0,
    "gamma_neg": 2.0,
    "margin": 0.05,
    "proto_denominator": "batch+prototypes",
}


def _values_on_seeded_batches(cfg):
    rng = np.random.default_rng(45)
    values = {}
    for loss_id in LOSS_IDS:
        if loss_id in LOGIT_LOSS_IDS:
            logits = rng.normal(0.0, 2.0, size=(8, 4))
            y = (rng.random((8, 4)) < 0.4).astype(np.int8)
            values[loss_id] = logit_loss(loss_id, logits, y, cfg).loss_value
        else:
            values[loss_id] = contrastive_loss(loss_id, random_batch(rng, loss_id), cfg).loss_value
    return values


class TestEveryKnobIsRead:
    def test_table_covers_every_field(self):
        assert set(_KNOB_VALUES) == {f.name for f in fields(LossConfig)}

    @pytest.mark.parametrize("name", sorted(_KNOB_VALUES))
    def test_knob_changes_some_loss(self, name):
        default = _values_on_seeded_batches(LossConfig())
        changed = _values_on_seeded_batches(LossConfig(**{name: _KNOB_VALUES[name]}))
        assert any(changed[lid] != default[lid] for lid in LOSS_IDS), (
            f"no loss id reads LossConfig.{name}")


class TestLossTable:
    def test_derived_id_sets(self):
        assert LOSS_IDS == LOGIT_LOSS_IDS + CONTRASTIVE_LOSS_IDS
        assert REGULARIZED_LOSS_IDS == ("reg", "supcon-reg")
        assert PROTOTYPE_LOSS_IDS == ("proto", "msc", "reg", "reg-noreg")
        assert [lid for lid in LOSS_IDS if needs_single_label(lid)] == ["supcon", "supcon-reg"]

    def test_unregularized_ids_host_themselves(self):
        for lid in LOSS_IDS:
            if lid not in REGULARIZED_LOSS_IDS:
                assert host_loss_id(lid) == lid

    @pytest.mark.parametrize("loss_id", REGULARIZED_LOSS_IDS)
    def test_regularized_id_shares_its_hosts_facts(self, loss_id):
        host = host_loss_id(loss_id)
        assert host in CONTRASTIVE_LOSS_IDS and host not in REGULARIZED_LOSS_IDS
        assert needs_prototypes(loss_id) == needs_prototypes(host)
        assert needs_single_label(loss_id) == needs_single_label(host)
        batch = random_batch(np.random.default_rng(44), loss_id)
        np.testing.assert_array_equal(contrastive_loss(loss_id, batch, CFG).structure.coeff,
                                      contrastive_loss(host, batch, CFG).structure.coeff)


def _worst_cosine(rows, grads):
    """Largest |cos(row_i, grad_i)| over the rows with a nonzero gradient."""
    dots = np.abs(np.einsum("ij,ij->i", rows, grads))
    norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(grads, axis=1)
    live = norms > 0
    return float(np.max(dots[live] / norms[live], initial=0.0))


_IDENTITY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestGradientIdentities:
    """Identities that hold exactly in real arithmetic, so they need no step
    size: every contrastive loss sees z and the prototypes only through
    cosines, which are invariant to each row's scale, and the losses are sums
    over anchors with no order."""

    @pytest.mark.parametrize("loss_id", CONTRASTIVE_LOSS_IDS)
    @_IDENTITY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_each_row_is_orthogonal_to_its_gradient(self, loss_id, seed):
        # d/dt L(z with z_i scaled by 1 + t) = z_i . dL/dz_i = 0
        batch = random_batch(np.random.default_rng(seed), loss_id)
        bundle = contrastive_loss(loss_id, batch, CFG)
        assert _worst_cosine(batch.z, bundle.d_z) <= 1e-12
        if batch.prototypes is not None:
            assert _worst_cosine(batch.prototypes, bundle.d_prototypes) <= 1e-12

    @pytest.mark.parametrize("loss_id", CONTRASTIVE_LOSS_IDS)
    @_IDENTITY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuting_the_batch_permutes_the_gradient(self, loss_id, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, loss_id)
        perm = rng.permutation(batch.n)
        moved = ContrastiveBatch(z=batch.z[perm], y=batch.y[perm], prototypes=batch.prototypes)
        a = contrastive_loss(loss_id, batch, CFG)
        b = contrastive_loss(loss_id, moved, CFG)
        assert abs(b.loss_value - a.loss_value) <= 1e-12 * abs(a.loss_value)
        assert np.abs(b.d_z - a.d_z[perm]).max() <= 1e-12 * np.abs(a.d_z).max()
        if batch.prototypes is not None:
            assert (np.abs(b.d_prototypes - a.d_prototypes).max()
                    <= 1e-12 * np.abs(a.d_prototypes).max())
