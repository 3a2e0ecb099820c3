"""Training harness: schedule and clip contracts, determinism, divergence
abort, two-stage separation, linear evaluation, and checkpoint round trips."""

import json
from dataclasses import fields

import numpy as np
import pytest

from mlclab.config import ExperimentConfig
from mlclab.datamodel import MultiLabelDataset, generate_longtail
from mlclab.errors import ConfigError, DomainError, TrainingDivergence
from mlclab.evaluation import alignment, micro_f1
from mlclab.losses import LossConfig
from mlclab.training import (
    TrainConfig,
    clip_gradient,
    linear_eval,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train_model,
)

FAST = TrainConfig(epochs=2, batch_size=16, lr=0.05, hidden=16, proj_dim=24)


def _tiny_dataset(seed=0, n=120):
    return generate_longtail(n, 5, 6, seed=seed, avg_labels=1.8)


class TestLrSchedule:
    def test_warmup_starts_at_zero(self):
        assert lr_schedule(0, 100, 2.0, 0.05) == 0.0

    def test_end_of_warmup_is_base_lr(self):
        # warmup covers steps 0..4; step 5 opens the decay at full rate
        assert lr_schedule(5, 100, 2.0, 0.05) == pytest.approx(2.0)

    def test_warmup_slope_linear(self):
        warm = int(0.1 * 200)
        vals = [lr_schedule(s, 200, 1.0, 0.1) for s in range(warm)]
        diffs = np.diff(vals)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-15)

    def test_final_step_zero(self):
        assert lr_schedule(99, 100, 2.0, 0.05) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_half(self):
        # no warmup: cosine midpoint sits exactly at base/2
        total = 101
        assert lr_schedule(50, total, 2.0, 0.0) == pytest.approx(1.0)

    def test_step_out_of_range(self):
        with pytest.raises(ConfigError):
            lr_schedule(100, 100, 1.0, 0.05)
        with pytest.raises(ConfigError):
            lr_schedule(-1, 100, 1.0, 0.05)


class TestClipGradient:
    def test_below_threshold_unchanged(self):
        g = np.array([0.3, 0.4])
        np.testing.assert_array_equal(clip_gradient(g, 1.0), g)

    def test_three_four_scales_to_unit(self):
        np.testing.assert_allclose(clip_gradient(np.array([3.0, 4.0]), 1.0),
                                   [0.6, 0.8], atol=1e-15)

    def test_norm_never_exceeds_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.normal(0, 10, size=rng.integers(1, 20))
            clipped = clip_gradient(g, 1.5)
            assert np.linalg.norm(clipped) <= 1.5 + 1e-12

    def test_direction_preserved(self):
        g = np.array([3.0, 4.0])
        c = clip_gradient(g, 1.0)
        np.testing.assert_allclose(c / np.linalg.norm(c), g / np.linalg.norm(g),
                                   atol=1e-15)

    def test_dict_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped = clip_gradient(grads, 1.0)
        total = np.sqrt(sum(float(np.sum(v * v)) for v in clipped.values()))
        assert total == pytest.approx(1.0)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            clip_gradient(np.array([1.0]), 0.0)


class TestTraining:
    def test_deterministic_in_seed(self):
        ds = _tiny_dataset()
        r1 = train_model(ds, "reg", LossConfig(), FAST)
        r2 = train_model(ds, "reg", LossConfig(), FAST)
        for k, v in r1.model.params().items():
            np.testing.assert_array_equal(v, r2.model.params()[k])
        assert r1.log == r2.log

    def test_zero_lr_leaves_parameters(self):
        ds = _tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=16, lr=0.0, hidden=16, proj_dim=24)
        result = train_model(ds, "mulsupcon", LossConfig(), cfg)
        rng = np.random.default_rng(cfg.seed)
        from mlclab.training import _init_model
        fresh = _init_model("mulsupcon", ds.n_features, ds.n_labels,
                            LossConfig(), cfg, rng)
        for k, v in result.model.params().items():
            np.testing.assert_array_equal(v, fresh.params()[k])

    def test_divergence_aborts_with_step(self):
        # absurd lr with weight decay multiplies parameters every step until
        # the logits overflow into nan
        ds = _tiny_dataset()
        cfg = TrainConfig(epochs=3, batch_size=16, lr=1e40, hidden=16, proj_dim=24)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergence, match="step"):
                train_model(ds, "bce", LossConfig(), cfg)

    def test_logit_loss_trains_classifier_head(self):
        ds = _tiny_dataset()
        result = train_model(ds, "bce", LossConfig(), FAST)
        assert result.model.head is None
        assert result.model.classifier_w is not None
        assert all(row["prr"] is None for row in result.log)

    def test_prr_logged_for_regularized_loss(self):
        ds = _tiny_dataset()
        result = train_model(ds, "reg", LossConfig(), FAST)
        assert all(row["prr"] is not None for row in result.log)
        assert all(0.0 <= row["prr"] <= 1.0 for row in result.log)

    def test_evaluation_never_touches_projection_head(self):
        ds = _tiny_dataset()
        result = train_model(ds, "reg", LossConfig(), FAST)
        x = ds.features[:10]
        before = result.model.encoder.features(x)
        result.model.head.v1 = result.model.head.v1 * 0.0 + 17.0
        after = result.model.encoder.features(x)
        np.testing.assert_array_equal(before, after)

    def test_alignment_improves_on_separable_toy(self):
        # two well-separated label clusters; training must tighten them
        rng = np.random.default_rng(5)
        n = 160
        y = np.zeros((n, 2), dtype=np.int8)
        y[: n // 2, 0] = 1
        y[n // 2:, 1] = 1
        feats = np.where(y[:, :1] == 1, 2.0, -2.0) + 0.3 * rng.normal(size=(n, 4))
        from mlclab.datamodel import MultiLabelDataset
        ds = MultiLabelDataset(features=feats, labels=y,
                               split=np.array(["train"] * n, dtype=object))
        cfg = TrainConfig(epochs=50, batch_size=32, lr=0.05, hidden=16, proj_dim=16)
        result = train_model(ds, "reg", LossConfig(), cfg)
        from mlclab.training import _init_model
        fresh = _init_model("reg", ds.n_features, ds.n_labels, LossConfig(), cfg,
                            np.random.default_rng(cfg.seed))
        a0 = alignment(fresh.encoder.features(feats), y)
        a1 = alignment(result.model.encoder.features(feats), y)
        assert a1 < a0


class TestLinearEval:
    def test_informative_features_near_perfect(self):
        rng = np.random.default_rng(1)
        y = (rng.random((300, 4)) < 0.4).astype(np.int8)
        y[y.sum(axis=1) == 0, 0] = 1
        feats = y.astype(float) + 0.05 * rng.normal(size=(300, 4))
        res = linear_eval(feats[:200], y[:200], feats[200:], y[200:])
        assert res.val_micro_f1 > 0.99

    def test_random_features_match_majority_baseline(self):
        rng = np.random.default_rng(2)
        y = (rng.random((400, 3)) < np.array([0.8, 0.5, 0.1])).astype(np.int8)
        y[y.sum(axis=1) == 0, 0] = 1
        feats = rng.normal(size=(400, 6))
        res = linear_eval(feats[:300], y[:300], feats[300:], y[300:])
        pred = res.predict(feats[300:])
        # per-label majority vote is the oracle for uninformative features
        majority = (y[:300].mean(axis=0) > 0.5).astype(np.int8)
        base_pred = np.tile(majority, (100, 1))
        baseline = micro_f1(base_pred, y[300:])
        learned = micro_f1(pred, y[300:])
        assert abs(learned - baseline) < 0.15

    def test_duplicate_feature_columns_well_posed(self):
        # collinear columns make the unregularized problem ill-posed; weight
        # decay picks the symmetric optimum deterministically
        rng = np.random.default_rng(3)
        y = (rng.random((200, 3)) < 0.5).astype(np.int8)
        y[y.sum(axis=1) == 0, 0] = 1
        feats = rng.normal(size=(200, 4))
        doubled = np.hstack([feats, feats])
        r1 = linear_eval(doubled[:150], y[:150], doubled[150:], y[150:])
        r2 = linear_eval(doubled[:150], y[:150], doubled[150:], y[150:])
        np.testing.assert_array_equal(r1.predict(doubled[150:]),
                                      r2.predict(doubled[150:]))
        np.testing.assert_array_equal(r1.weights, r2.weights)
        # tie between duplicated columns is broken symmetrically
        np.testing.assert_allclose(r1.weights[:4], r1.weights[4:8], atol=1e-12)

    def test_degenerate_label_flagged(self):
        rng = np.random.default_rng(4)
        y = np.zeros((100, 3), dtype=np.int8)
        y[:, 0] = 1
        y[::3, 1] = 1  # label 2 never appears
        feats = rng.normal(size=(100, 4))
        res = linear_eval(feats[:80], y[:80], feats[80:], y[80:])
        assert bool(res.degenerate_labels[2])
        assert not bool(res.degenerate_labels[0])
        # degenerate labels degenerate to the prior: all-negative predictions
        assert res.predict(feats)[:, 2].sum() == 0

    def test_grid_choice_recorded(self):
        rng = np.random.default_rng(5)
        y = (rng.random((120, 2)) < 0.5).astype(np.int8)
        y[y.sum(axis=1) == 0, 0] = 1
        feats = rng.normal(size=(120, 3))
        res = linear_eval(feats[:90], y[:90], feats[90:], y[90:],
                          lrs=(1.0, 0.1), wds=(1e-2, 1e-4))
        assert res.chosen_lr in (1.0, 0.1)
        assert res.chosen_wd in (1e-2, 1e-4)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        ds = _tiny_dataset()
        result = train_model(ds, "reg", LossConfig(), FAST)
        path = tmp_path / "ckpt.json"
        save_checkpoint(result.model, path, dataset_meta=ds.meta)
        loaded, meta = load_checkpoint(path)
        for k, v in result.model.params().items():
            np.testing.assert_array_equal(v, loaded.params()[k])
        assert loaded.loss_id == "reg"
        assert meta["seed"] == ds.meta["seed"]

    def test_two_saves_identical_bytes(self, tmp_path):
        ds = _tiny_dataset()
        result = train_model(ds, "mulsupcon", LossConfig(), FAST)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(result.model, p1)
        save_checkpoint(result.model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "other"}')
        with pytest.raises(ConfigError):
            load_checkpoint(p)

    def test_rejects_older_version(self, tmp_path):
        # version 1 carried the loss_config keys use_prototypes and use_regularizer
        ds = _tiny_dataset()
        result = train_model(ds, "reg", LossConfig(), FAST)
        path = tmp_path / "ckpt.json"
        save_checkpoint(result.model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 1
        doc["loss_config"].update(use_prototypes=False, use_regularizer=True)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="version"):
            load_checkpoint(path)


    def test_rejects_version_2(self, tmp_path):
        # version 2 carried the loss_config key epsilon, version 3 use_alpha_weighting
        ds = _tiny_dataset()
        result = train_model(ds, "bce", LossConfig(), FAST)
        path = tmp_path / "ckpt.json"
        save_checkpoint(result.model, path)
        saved = path.read_text()
        for version, removed in ((2, {"epsilon": 1e-12}), (3, {"use_alpha_weighting": False})):
            doc = json.loads(saved)
            doc["version"] = version
            doc["loss_config"].update(removed)
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match="version"):
                load_checkpoint(path)


class TestSingleLabelLosses:
    def test_multi_label_data_rejected_before_first_step(self, monkeypatch):
        import mlclab.training as training

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "_batch_step", no_step)
        ds = _tiny_dataset()
        assert np.any(ds.subset("train")[1].sum(axis=1) != 1)
        for loss_id in ("supcon", "supcon-reg"):
            with pytest.raises(ConfigError, match="exactly one label"):
                train_model(ds, loss_id, LossConfig(), FAST)

    def test_single_label_data_trains(self):
        ds = _tiny_dataset()
        y = np.zeros_like(ds.labels)
        y[np.arange(ds.n), np.argmax(ds.labels, axis=1)] = 1
        single = MultiLabelDataset(features=ds.features, labels=y, split=ds.split, meta=ds.meta)
        for loss_id in ("supcon", "supcon-reg"):
            result = train_model(single, loss_id, LossConfig(), FAST)
            assert len(result.log) == FAST.epochs
            assert all(np.isfinite(row["loss"]) for row in result.log)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(TrainConfig) if isinstance(f.default, float)])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(**{name: value})

    def test_bad_warmup(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_frac=1.0)

    def test_bad_clip(self):
        with pytest.raises(ConfigError):
            TrainConfig(clip=0.0)

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)
