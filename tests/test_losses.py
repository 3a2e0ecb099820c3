"""Loss zoo: frozen examples, finite-difference spot checks, reduction
identities, the gate regularizer's clamp and shared-minimum properties, and
the matrix-form equivalence of the regularized loss."""

from dataclasses import fields

import numpy as np
import pytest

from mlclab.datamodel import ContrastiveBatch, overlap_ratio, positive_sets
from mlclab.errors import ConfigError, DomainError
from mlclab.losses import (
    CONTRASTIVE_LOSS_IDS,
    LOGIT_LOSS_IDS,
    LOSS_IDS,
    PROTOTYPE_LOSS_IDS,
    REGULARIZED_LOSS_IDS,
    LossConfig,
    contrastive_loss,
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

    def test_strict_mode_flags_anchor_without_positives(self):
        z = np.eye(3)
        y = np.eye(3, dtype=np.int8)
        with pytest.raises(DomainError, match="strict"):
            contrastive_loss("base", ContrastiveBatch(z=z, y=y), CFG, strict=True)


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
        import mlclab.losses as losses

        calls = {"fwd": 0, "bwd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(losses, "tempered_cosine_matrix",
                            counted("fwd", losses.tempered_cosine_matrix))
        monkeypatch.setattr(losses, "tempered_cosine_backward",
                            counted("bwd", losses.tempered_cosine_backward))
        contrastive_loss("reg", random_batch(np.random.default_rng(43), "reg"), CFG)
        assert calls == {"fwd": 1, "bwd": 1}


def _reg_lam_reference(y, alpha):
    """Pair-by-pair reg weights: per anchor label j, the other carriers of j
    and prototype j, weighted by overlap_ratio and normalized over the label."""
    n, big_l = y.shape
    pool_y = np.vstack([y, np.eye(big_l, dtype=y.dtype)])
    lam = np.zeros((n, n + big_l))
    for i, anchor in enumerate(positive_sets(y)):
        for j, carriers in anchor.per_label.items():
            members = list(carriers) + [n + j]
            weights = [overlap_ratio(y[i], pool_y[k], alpha) for k in members]
            for k, w in zip(members, weights):
                lam[i, k] += w / sum(weights)
    return lam


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
    def test_rejects_multilabel(self):
        y = np.array([[1, 1], [1, 0]], dtype=np.int8)
        batch = ContrastiveBatch(z=np.random.default_rng(27).normal(size=(2, 3)), y=y)
        with pytest.raises(DomainError, match="multi-label"):
            contrastive_loss("supcon", batch, CFG)

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


class TestPrr:
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
