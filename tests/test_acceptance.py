"""Acceptance suite.

Each test exercises one exit criterion at its stated tolerance and prints a
[PASS]/[FAIL] line (run with -s to see them inline). The directional
end-to-end comparison is soft: a wrong direction produces a warning report
with per-seed numbers instead of a failure.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mlclab.cli import main
from mlclab.config import default_config
from mlclab.datamodel import ContrastiveBatch
from mlclab.evaluation import (
    alignment,
    hamming,
    macro_f1,
    mean_average_precision,
    micro_f1,
    uniformity,
)
from mlclab.experiments import get_dataset, run_single
from mlclab.losses import (
    LossConfig,
    contrastive_loss,
    loss_asymmetric,
    loss_bce,
    reg_term,
)
from mlclab.verification import (
    check_gradients,
    loss_reg_matrix_value,
    positive_sets,
    random_batch,
)

SEED = 20260810


def _report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f": {detail}" if detail else ""))


class TestCriterion1GradientFidelity:
    @pytest.mark.slow
    def test_all_losses_pass_fd_within_budget(self):
        t0 = time.time()
        failures = []
        specs = [(lid, 1e-5) for lid in
                 ("base", "proto", "mulsupcon", "msc", "reg-noreg", "supcon")]
        specs += [(lid, 1e-6) for lid in ("bce", "asy", "zlpr")]
        for loss_id, tol in specs:
            reports = check_gradients(loss_id, trials=100, tol=tol, seed=SEED)
            bad = [r for r in reports if not r.passed]
            if bad:
                failures.append((loss_id, len(bad), max(r.max_rel_err for r in bad)))
        # detached regularizer: differentiable part by FD, gate term by closed form
        for loss_id in ("reg", "supcon-reg"):
            reports = check_gradients(loss_id, trials=100, tol=1e-5, seed=SEED)
            for r in reports:
                if not r.passed:
                    failures.append((loss_id, r.trial, r.max_rel_err))
                assert r.reg_closed_form_err is not None
                if r.reg_closed_form_err >= 1e-10:
                    failures.append((loss_id + "/closed-form", r.trial,
                                     r.reg_closed_form_err))
        elapsed = time.time() - t0
        ok = not failures and elapsed < 60.0
        _report("criterion 1 (gradient fidelity, 100 batches per loss)",
                ok, f"{elapsed:.1f}s, failures={failures}")
        assert not failures
        assert elapsed < 60.0

    def test_runtime_headroom_logged(self):
        # informational: the oracle must leave slack on slower machines
        _report("criterion 1 runtime check", True, "enforced in the main test")


class TestCriterion2ClampInvariant:
    def test_no_net_repulsive_positive_pair(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        count = 0
        for trial in range(1000):
            loss_id = "reg" if trial % 2 == 0 else "supcon-reg"
            batch = random_batch(rng, loss_id)
            cfg = LossConfig()
            if loss_id == "reg":
                bundle = contrastive_loss("reg", batch, cfg)
            else:
                bundle = contrastive_loss("supcon-reg", batch, cfg)
            if bundle.gate_value.size == 0:
                continue
            expected = np.minimum(0.0, bundle.gate_value)
            dev = float(np.abs(bundle.combined_coeff - expected).max())
            worst = max(worst, dev)
            assert np.all(bundle.combined_coeff <= 1e-12)
            count += bundle.gate_value.size
        _report("criterion 2 (positive-gradient clamp, 1000 batches)",
                worst <= 1e-12, f"{count} positive pairs, max deviation {worst:.2e}")
        assert worst <= 1e-12


class TestCriterion3SharedMinimum:
    def test_minimum_condition_zeroes_regularizer(self):
        rng = np.random.default_rng(SEED + 1)
        worst_value = 0.0
        worst_grad = 0.0
        for _ in range(100):
            batch = random_batch(rng, "reg")
            cfg = LossConfig()
            spec = contrastive_loss("reg-noreg", batch, cfg).spec
            res = reg_term(batch, spec, np.where(spec.positive_mask, spec.lam_norm, 0.0), cfg)
            worst_value = max(worst_value, float(np.abs(res.value_per_anchor).max()))
            grad_sq = float(np.sum(res.d_z ** 2))
            if res.d_prototypes is not None:
                grad_sq += float(np.sum(res.d_prototypes ** 2))
            worst_grad = max(worst_grad, np.sqrt(grad_sq))
        ok = worst_value == 0.0 and worst_grad < 1e-12
        _report("criterion 3 (shared minimum, 100 constructed configurations)",
                ok, f"max value {worst_value:.1e}, max grad norm {worst_grad:.1e}")
        assert worst_value == 0.0
        assert worst_grad < 1e-12

    def test_organic_minimum_configurations(self):
        # orthonormal same-class batches reach the condition up to roundoff
        rng = np.random.default_rng(SEED + 2)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            d = n + int(rng.integers(0, 3))
            z = np.linalg.qr(rng.normal(size=(d, d)))[0][:n]
            y = np.zeros((n, 2), dtype=np.int8)
            y[:, 0] = 1
            batch = ContrastiveBatch(z=z, y=y)
            v_reg = contrastive_loss("supcon-reg", batch, LossConfig())
            v_host = contrastive_loss("supcon", batch, LossConfig())
            assert abs(v_reg.loss_value - v_host.loss_value) < 1e-12
            assert np.linalg.norm(v_reg.d_z - v_host.d_z) < 1e-12


class TestCriterion4Reductions:
    def test_reduction_identities(self):
        rng = np.random.default_rng(SEED + 3)
        cfg = LossConfig()
        worst = 0.0
        for _ in range(25):
            b = random_batch(rng, "supcon")
            worst = max(worst, abs(contrastive_loss("mulsupcon", b, cfg).loss_value
                                   - contrastive_loss("supcon", b, cfg).loss_value))
        for _ in range(25):
            n, d = int(rng.integers(3, 10)), int(rng.integers(3, 8))
            z = rng.normal(size=(n, d))
            y = np.zeros((n, 3), dtype=np.int8)
            y[:, int(rng.integers(0, 3))] = 1
            b = ContrastiveBatch(z=z, y=y)
            worst = max(worst, abs(contrastive_loss("base", b, cfg).loss_value
                                   - contrastive_loss("supcon", b, cfg).loss_value))
        for _ in range(25):
            # alpha = 0: each other carrier of label j, and prototype j, weighs 1/(carriers + 1)
            b = random_batch(rng, "reg")
            spec = contrastive_loss("reg", b, LossConfig(alpha=0.0)).spec
            lam = spec.coeff * b.y.sum(axis=1)[:, None]
            uniform = np.zeros_like(lam)
            for i, anchor in enumerate(positive_sets(b.y)):
                for j, carriers in anchor.per_label.items():
                    uniform[i, carriers] += 1.0 / (carriers.size + 1)
                    uniform[i, b.n + j] += 1.0 / (carriers.size + 1)
            worst = max(worst, float(np.abs(lam - uniform).max()))
        for _ in range(25):
            n, big_l = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            logits = rng.normal(0, 3, size=(n, big_l))
            y = (rng.random((n, big_l)) < 0.5).astype(np.int8)
            va = loss_asymmetric(logits, y,
                                 LossConfig(gamma_pos=0, gamma_neg=0, margin=0)).loss_value
            vb = loss_bce(logits, y).loss_value
            worst = max(worst, abs(va - vb))
        _report("criterion 4 (reduction identities)", worst < 1e-12,
                f"max |difference| {worst:.2e}")
        assert worst < 1e-12


class TestCriterion5MatrixFormEquivalence:
    def test_matrix_vs_per_anchor(self):
        rng = np.random.default_rng(SEED + 4)
        worst = 0.0
        for trial in range(100):
            batch = random_batch(rng, "reg")
            cfg = LossConfig()
            v1 = contrastive_loss("reg" if trial % 2 == 0 else "reg-noreg", batch, cfg).loss_value
            v2 = loss_reg_matrix_value(batch, cfg, use_reg=(trial % 2 == 0))
            worst = max(worst, abs(v1 - v2))
        _report("criterion 5 (matrix-form equivalence, 100 batches)",
                worst < 1e-10, f"max |difference| {worst:.2e}")
        assert worst < 1e-10


@pytest.fixture(scope="module")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


class TestCriterion6PrrBehavior:
    def test_sweep_tau_trend(self, acceptance_dir, capsys):
        out = acceptance_dir / "sweep"
        code = main(["sweep-tau", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_tau.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        taus = [float(r[0]) for r in rows]
        prrs = [float(r[1]) for r in rows]
        assert taus == [0.05, 0.1, 0.5, 1.0]
        assert all(0.0 <= p <= 1.0 for p in prrs)
        violations = [max(prrs[i + 1] - prrs[i], 0.0) for i in range(len(prrs) - 1)]
        n_viol = sum(1 for v in violations if v > 0)
        ok_trend = n_viol <= 1 and max(violations) <= 0.02
        prr_at_01 = prrs[taus.index(0.1)]
        ok = ok_trend and prr_at_01 > 0.05
        _report("criterion 6 (PRR vs temperature)",
                ok, f"prr={prrs}, violations={violations}, prr@0.1={prr_at_01:.3f}")
        assert ok_trend
        assert prr_at_01 > 0.05


class TestCriterion7Directional:
    @pytest.mark.slow
    def test_reg_vs_base_macro_f1(self, acceptance_dir):
        t0 = time.time()
        cfg = default_config()
        dataset = get_dataset(cfg)
        train_count = int((dataset.split == "train").sum())
        assert train_count == 2000
        assert dataset.n_labels == 20
        assert cfg["data.tail_exponent"] == 1.2
        seeds = (0, 1, 2, 3, 4)
        per_seed = {}
        for loss_id in ("base", "reg"):
            per_seed[loss_id] = [
                run_single(dataset, cfg, loss_id, seed)[0].macro_f1
                for seed in seeds
            ]
        mean_base = float(np.mean(per_seed["base"]))
        mean_reg = float(np.mean(per_seed["reg"]))
        elapsed = time.time() - t0
        report = {
            "seeds": list(seeds),
            "base_macro_f1": per_seed["base"],
            "reg_macro_f1": per_seed["reg"],
            "mean_base": mean_base,
            "mean_reg": mean_reg,
            "direction_holds": mean_reg >= mean_base,
            "elapsed_seconds": elapsed,
        }
        path = acceptance_dir / "directional_report.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True))
        _report("criterion 7 (directional: regularized >= jaccard baseline)",
                mean_reg >= mean_base,
                f"reg {mean_reg:.4f} vs base {mean_base:.4f}, {elapsed:.0f}s, "
                f"report at {path}")
        if mean_reg < mean_base:
            warnings.warn(
                "directional check failed: mean macro-F1 of the regularized loss "
                f"({mean_reg:.4f}) fell below the jaccard baseline ({mean_base:.4f}); "
                f"per-seed numbers in {path}",
                stacklevel=1,
            )
        assert elapsed < 600.0


class TestCriterion8MetricCorrectness:
    def test_enumerated_oracles(self):
        truth = np.array([[1, 1, 0], [1, 0, 0]])
        pred = np.array([[1, 0, 1], [1, 0, 0]])
        assert micro_f1(pred, truth) == pytest.approx(2 / 3, abs=1e-15)

        t2 = np.array([[1, 1], [0, 1], [1, 1]])
        p2 = np.array([[1, 0], [0, 0], [1, 0]])
        assert macro_f1(p2, t2) == pytest.approx(0.5, abs=1e-15)

        t3 = np.zeros((2, 5), dtype=int)
        p3 = t3.copy()
        p3[0, 3] = 1
        assert hamming(p3, t3) == pytest.approx(0.1, abs=1e-15)

        ap_truth = np.array([[1], [0], [1]])
        ap_scores = np.array([[0.9], [0.5], [0.1]])
        assert mean_average_precision(ap_scores, ap_truth) == pytest.approx(5 / 6, abs=1e-15)
        bottom = np.zeros((4, 1), dtype=int)
        bottom[-1, 0] = 1
        desc = np.arange(4, 0, -1, dtype=float).reshape(-1, 1)
        assert mean_average_precision(desc, bottom) == pytest.approx(0.25, abs=1e-15)

        orth = np.array([[1.0, 0.0], [0.0, 1.0]])
        anti = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ones = np.ones((2, 1), dtype=int)
        assert alignment(orth, ones) == pytest.approx(2.0, abs=1e-12)
        assert alignment(anti, ones) == pytest.approx(4.0, abs=1e-12)
        assert uniformity(orth) == pytest.approx(-4.0, abs=1e-12)
        assert uniformity(anti) == pytest.approx(-8.0, abs=1e-12)
        _report("criterion 8 (metric oracles)", True)


class TestCriterion9Determinism:
    def test_two_train_runs_byte_identical(self, acceptance_dir, tmp_path):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text("train.epochs = 5\n")
        out1 = acceptance_dir / "det1"
        out2 = acceptance_dir / "det2"
        assert main(["train", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(out2)]) == 0
        ckpt_same = (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
        log_same = (out1 / "training_log.csv").read_bytes() == (out2 / "training_log.csv").read_bytes()
        _report("criterion 9 (byte-identical training runs)", ckpt_same and log_same)
        assert ckpt_same
        assert log_same
