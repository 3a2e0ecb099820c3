"""The verifiers get verified: gradcheck determinism and guard rails, the
minimum-condition residual, and the gate report's independent clamp check."""

import json

import numpy as np
import pytest

from mlclab.datamodel import ContrastiveBatch
from mlclab.errors import ConfigError, OracleError
from mlclab.losses import (
    CONTRASTIVE_LOSS_IDS,
    LossConfig,
    contrastive_loss,
    contrastive_spec,
    host_loss_id,
)
from mlclab.numerics import finite_difference_gradient
from mlclab.verification import (
    FD_STEP,
    GradCheckReport,
    _fd_estimates,
    check_gradients,
    gate_report,
    minimum_residual,
    random_batch,
    reg_gradient_reference,
    write_reports,
)

CFG = LossConfig()


def _fd_per_evaluation_spec(batch, loss_id, cfg, attr):
    """Central differences with a fresh spec at every evaluation, through
    contrastive_loss, as each trial ran before it kept one spec."""
    start = getattr(batch, attr)

    def value(x):
        setattr(batch, attr, x)
        try:
            return contrastive_loss(loss_id, batch, cfg, compute_gradients=False).loss_value
        finally:
            setattr(batch, attr, start)

    return finite_difference_gradient(value, start, FD_STEP)


class TestOneSpecPerTrial:
    @pytest.mark.parametrize("loss_id", CONTRASTIVE_LOSS_IDS)
    def test_fd_estimates_bit_identical_to_per_evaluation_specs(self, loss_id):
        host = host_loss_id(loss_id)
        for ss in np.random.SeedSequence(71).spawn(5):
            batch = random_batch(np.random.default_rng(ss), loss_id)
            fd_z, fd_c = _fd_estimates(batch, contrastive_spec(host, batch, CFG), CFG)
            assert fd_z.tobytes() == _fd_per_evaluation_spec(batch, host, CFG, "z").tobytes()
            if batch.prototypes is None:
                assert fd_c is None
            else:
                want = _fd_per_evaluation_spec(batch, host, CFG, "prototypes")
                assert fd_c.tobytes() == want.tobytes()


class TestCheckGradients:
    def test_base_passes(self):
        reports = check_gradients("base", trials=10, tol=1e-5, seed=42)
        assert len(reports) == 10
        assert all(r.passed for r in reports)

    def test_zero_tolerance_guard_rail(self):
        # floating point guarantees nonzero discrepancy: everything must fail
        reports = check_gradients("base", trials=3, tol=0.0, seed=42)
        assert not any(r.passed for r in reports)

    def test_deterministic_in_seed(self):
        a = check_gradients("mulsupcon", trials=4, tol=1e-5, seed=7)
        b = check_gradients("mulsupcon", trials=4, tol=1e-5, seed=7)
        assert [r.max_rel_err for r in a] == [r.max_rel_err for r in b]

    def test_reg_dual_oracle(self):
        reports = check_gradients("reg", trials=5, tol=1e-5, seed=1)
        for r in reports:
            assert r.passed
            assert r.reg_closed_form_err is not None
            assert r.reg_closed_form_err < 1e-10

    def test_logit_loss_reports(self):
        reports = check_gradients("zlpr", trials=5, tol=1e-6, seed=3)
        assert all(r.passed for r in reports)
        assert all(r.reg_closed_form_err is None for r in reports)

    def test_unknown_loss(self):
        with pytest.raises(ConfigError):
            check_gradients("nope", trials=1, tol=1e-5, seed=0)

    def test_json_lines_round_trip(self, tmp_path):
        reports = check_gradients("bce", trials=3, tol=1e-6, seed=5)
        path = tmp_path / "reports.jsonl"
        write_reports(reports, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert all(p["loss_id"] == "bce" for p in parsed)
        assert all(p["passed"] for p in parsed)


class TestRegGradientReference:
    def test_matches_engine_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            batch = random_batch(rng, "reg")
            with_reg = contrastive_loss("reg", batch, CFG)
            without = contrastive_loss("reg-noreg", batch, CFG)
            ref_dz, ref_dc = reg_gradient_reference(batch, with_reg, CFG)
            np.testing.assert_allclose(with_reg.d_z - without.d_z, ref_dz, atol=1e-12)
            np.testing.assert_allclose(
                with_reg.d_prototypes - without.d_prototypes, ref_dc, atol=1e-12)


class TestMinimumResidual:
    def test_constructed_sigma_equals_lam(self):
        batch = random_batch(np.random.default_rng(12), "reg")
        st = contrastive_loss("reg-noreg", batch, CFG).structure
        st.sigma = np.where(st.positive_mask, st.lam_norm, 0.0)
        # positive part vanishes; only negatives contribute, and here they are zero too
        assert minimum_residual(st) == 0.0

    def test_uniform_no_negatives_is_zero(self):
        # all same class: denominator equals the positive set, orthonormal
        # rows make sigma uniform
        rng = np.random.default_rng(13)
        z = np.linalg.qr(rng.normal(size=(5, 5)))[0][:4]
        y = np.zeros((4, 2), dtype=np.int8)
        y[:, 0] = 1
        st = contrastive_loss("supcon-reg", ContrastiveBatch(z=z, y=y), CFG).structure
        assert minimum_residual(st) < 1e-25

    def test_random_batch_positive(self):
        batch = random_batch(np.random.default_rng(14), "reg")
        st = contrastive_loss("reg", batch, CFG).structure
        assert minimum_residual(st) > 0.0


class TestGateReport:
    def test_dominant_positive_is_gated(self):
        # two nearly identical same-label instances, prototypes rotated away:
        # the instances' mutual sigma saturates far above the normalized weight
        z = np.array([[1.0, 0.0], [0.999, 0.02], [-1.0, 0.5], [0.3, -1.0]])
        y = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.int8)
        protos = np.array([[0.2, 0.9], [-0.9, -0.2]])
        batch = ContrastiveBatch(z=z, y=y, prototypes=protos)
        report = gate_report(batch, CFG, "reg")
        assert report.prr is not None and report.prr > 0
        pair_01 = (report.anchors == 0) & (report.pool_indices == 1)
        assert report.gate_values[pair_01].max() > 0

    def test_clamp_checked_independently(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            batch = random_batch(rng, "reg")
            report = gate_report(batch, CFG, "reg")
            assert report.clamp_max_dev is not None
            assert report.clamp_max_dev <= 1e-12

    def test_reg_clamp_reference_reads_alpha(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            report = gate_report(random_batch(rng, "reg"), LossConfig(alpha=1.5), "reg")
            assert report.clamp_max_dev <= 1e-12

    def test_minimum_condition_no_material_gates(self):
        # orthonormal same-class rows sit at the shared minimum: every gate
        # magnitude is at ulp level and the regularized loss matches the host
        rng = np.random.default_rng(16)
        z = np.linalg.qr(rng.normal(size=(6, 6)))[0][:5]
        y = np.zeros((5, 2), dtype=np.int8)
        y[:, 0] = 1
        batch = ContrastiveBatch(z=z, y=y)
        report = gate_report(batch, CFG, "supcon-reg")
        assert np.abs(report.gate_values).max() < 1e-12
        v_reg = contrastive_loss("supcon-reg", batch, CFG).loss_value
        v_host = contrastive_loss("supcon", batch, CFG).loss_value
        assert abs(v_reg - v_host) < 1e-12

    def test_rejects_unregularized_ids(self):
        batch = random_batch(np.random.default_rng(17), "base")
        with pytest.raises(ConfigError):
            gate_report(batch, CFG, "base")

    def test_clamp_checked_for_supcon_reg(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            report = gate_report(random_batch(rng, "supcon-reg"), CFG, "supcon-reg")
            assert report.clamp_max_dev is not None
            assert report.clamp_max_dev <= 1e-12

    @pytest.mark.parametrize("loss_id", ["reg-noreg", "supcon"])
    def test_host_id_reports_gates_without_clamp_check(self, loss_id):
        batch = random_batch(np.random.default_rng(19), loss_id)
        report = gate_report(batch, CFG, loss_id)
        assert report.clamp_max_dev is None
        assert report.gate_values.size > 0

    @pytest.mark.parametrize("loss_id", ["reg", "supcon-reg"])
    def test_perturbed_combined_coeff_raises(self, loss_id, monkeypatch):
        import mlclab.verification as verification

        def perturbed(*args, **kwargs):
            bundle = contrastive_loss(*args, **kwargs)
            bundle.combined_coeff = bundle.combined_coeff + 1e-9
            return bundle

        monkeypatch.setattr(verification, "contrastive_loss", perturbed)
        batch = random_batch(np.random.default_rng(20), loss_id)
        with pytest.raises(OracleError, match="clamp"):
            gate_report(batch, CFG, loss_id)


def test_report_dataclass_fields():
    r = GradCheckReport(
        loss_id="base", trial=0, n=4, dim=3, n_labels=2,
        max_rel_err=1e-9, max_abs_err=1e-12, worst_entry=("z", 0, 0),
        reg_closed_form_err=None, tol=1e-5, passed=True,
    )
    doc = json.loads(r.to_json())
    assert doc["worst_entry"] == ["z", 0, 0]
    assert doc["passed"] is True
