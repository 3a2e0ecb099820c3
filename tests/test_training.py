"""Training harness: schedule and clip contracts, determinism, divergence
abort, two-stage separation, linear evaluation, and checkpoint round trips."""

import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from mlclab.config import ExperimentConfig
from mlclab.datamodel import ContrastiveBatch, MultiLabelDataset, generate_longtail
from mlclab.errors import ConfigError, DomainError, TrainingDivergence
from mlclab.evaluation import alignment, micro_f1
from mlclab.losses import LOSS_IDS, LossConfig, contrastive_loss, needs_single_label, prr
from mlclab.training import (
    _BIAS_KEYS,
    _LAYOUT,
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    Encoder,
    ProjectionHead,
    TrainConfig,
    _batch_step,
    _FlatSGD,
    _epoch_batches,
    _init_model,
    clip_gradient,
    linear_eval,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train_model,
)

FAST = TrainConfig(epochs=2, batch_size=16, lr=0.05, hidden=16, proj_dim=24)


def _probe_problem(seed, n, p, n_labels):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, p))
    logits = feats @ rng.normal(size=(p, n_labels)) + rng.normal(size=n_labels)
    y = (rng.random((n, n_labels)) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int8)
    return feats, y


def _probe_gradient(train_features, train_labels, res):
    """Gradient of mean BCE + wd/2 |w|^2 (bias exempt) at the returned weights."""
    xs = (np.asarray(train_features, dtype=np.float64) - res.feature_mean) / res.feature_scale
    xb = np.hstack([xs, np.ones((xs.shape[0], 1))])
    p = 1.0 / (1.0 + np.exp(-(xb @ res.weights)))
    g = xb.T @ (p - train_labels) / xs.shape[0]
    g[:-1] += res.chosen_wd * res.weights[:-1]
    return g


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


def _joint_norm(grads):
    return np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


class TestClipGradient:
    def test_below_threshold_unchanged(self):
        grads = {"g": np.array([0.3, 0.4])}
        assert clip_gradient(grads, 1.0) is grads
        np.testing.assert_array_equal(grads["g"], [0.3, 0.4])

    def test_three_four_scales_to_unit(self):
        np.testing.assert_allclose(clip_gradient({"g": np.array([3.0, 4.0])}, 1.0)["g"],
                                   [0.6, 0.8], atol=1e-15)

    def test_norm_never_exceeds_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            grads = {k: rng.normal(0, 10, size=rng.integers(1, 20))
                     for k in range(rng.integers(1, 4))}
            assert _joint_norm(clip_gradient(grads, 1.5)) <= 1.5 + 1e-12

    def test_direction_preserved(self):
        rng = np.random.default_rng(1)
        grads = {"a": np.array([3.0, 4.0]), "b": rng.normal(size=(2, 3))}
        before = np.concatenate([g.ravel() for g in grads.values()])
        c = clip_gradient(grads, 1.0)
        after = np.concatenate([g.ravel() for g in c.values()])
        np.testing.assert_allclose(after / np.linalg.norm(after),
                                   before / np.linalg.norm(before), atol=1e-15)

    def test_dict_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert _joint_norm(clip_gradient(grads, 1.0)) == pytest.approx(1.0)

    def test_bad_threshold(self):
        for threshold in (0.0, -1.0):
            with pytest.raises(ConfigError):
                clip_gradient({"a": np.array([1.0])}, threshold)

    def test_dict_scales_in_place(self):
        rng = np.random.default_rng(3)
        grads = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5)}
        scale = 0.5 / _joint_norm(grads)
        expected = {k: g * scale for k, g in grads.items()}
        arrays = dict(grads)
        assert clip_gradient(grads, 0.5) is grads
        for k, g in grads.items():
            assert g is arrays[k] and g.tobytes() == expected[k].tobytes()

    def test_dict_below_threshold_untouched(self):
        grads = {"a": np.array([0.3]), "b": np.array([0.4])}
        arrays = dict(grads)
        assert clip_gradient(grads, 1.0) is grads
        assert all(grads[k] is arrays[k] for k in grads)
        assert grads["a"][0] == 0.3 and grads["b"][0] == 0.4

    @pytest.mark.parametrize("threshold", [1e-3, 1e6])
    def test_squaring_into_scratch_views_keeps_the_bytes(self, threshold):
        # train_model squares into views of its flat scratch vector
        rng = np.random.default_rng(4)
        shapes = {"w": (64, 256), "b": (64,), "p": (20, 256), "c": (3, 5)}
        for _ in range(5):
            grads = {k: rng.normal(size=shape) for k, shape in shapes.items()}
            flat = np.empty(sum(int(np.prod(sh)) for sh in shapes.values()) + 1)
            scratch, start = {}, 1  # views off the vector's own alignment
            for k, g in grads.items():
                scratch[k] = flat[start:start + g.size].reshape(g.shape)
                start += g.size
            want = clip_gradient({k: g.copy() for k, g in grads.items()}, threshold)
            got = clip_gradient(grads, threshold, scratch=scratch)
            for k in grads:
                assert got[k].tobytes() == want[k].tobytes(), k


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

    @staticmethod
    def _break_init(monkeypatch, breaker):
        import mlclab.training as training

        init = training._init_model

        def broken(*args, **kwargs):
            model = init(*args, **kwargs)
            breaker(model)
            return model

        monkeypatch.setattr(training, "_init_model", broken)

    def test_collapsed_projection_aborts_contrastive_training(self, monkeypatch):
        # zero rows of z reach the engine unvalidated; its normalization rejects them
        self._break_init(monkeypatch, lambda m: m.head.v2.fill(0.0))
        with pytest.raises(TrainingDivergence, match="step 0: embeddings has zero-norm row"):
            train_model(_tiny_dataset(), "reg", LossConfig(), FAST)

    def test_non_finite_parameters_abort_contrastive_training(self, monkeypatch):
        def poison(model):
            model.encoder.w1[0, 0] = np.nan

        self._break_init(monkeypatch, poison)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergence, match="non-finite loss at step 0"):
                train_model(_tiny_dataset(), "reg", LossConfig(), FAST)

    def test_zero_z_row_of_finite_model_is_degenerate_not_non_finite(self):
        # every ReLU of the head is off for one input, so its z row is
        # exactly 0: the parameters are finite and the run still stops
        cfg = TrainConfig(epochs=1, batch_size=16, hidden=8, proj_dim=8)
        with pytest.raises(TrainingDivergence) as info:
            train_model(_tiny_dataset(), "reg", LossConfig(), cfg)
        assert str(info.value) == ("degenerate forward at step 0: "
                                   "embeddings has zero-norm row at index 3")

    @pytest.mark.parametrize("scale,kind", [(1e160, "overflowed"), (1e-170, "underflowed")])
    def test_finite_z_row_out_of_norm_range_is_degenerate(self, monkeypatch, scale, kind):
        # every parameter and every z entry stays finite, but the rows'
        # squared norms leave the normal float64 range
        def rescale(model):
            model.head.v2 *= scale

        self._break_init(monkeypatch, rescale)
        with pytest.raises(TrainingDivergence, match=f"^degenerate forward at step 0: "
                                                     f"embeddings row 0: squared norm {kind}"):
            train_model(_tiny_dataset(), "reg", LossConfig(), FAST)

    def test_non_finite_logits_abort_as_non_finite_forward(self, monkeypatch):
        def poison(model):
            model.encoder.w1[0, 0] = np.nan

        self._break_init(monkeypatch, poison)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergence, match="^non-finite forward at step 0: "
                                                         "logits contains non-finite"):
                train_model(_tiny_dataset(), "bce", LossConfig(), FAST)

    def test_logit_loss_trains_classifier_head(self):
        ds = _tiny_dataset()
        result = train_model(ds, "bce", LossConfig(), FAST)
        assert result.model.head is None
        assert result.model.classifier_w is not None
        assert all(row["prr"] is None for row in result.log)

    def test_prr_rejects_model_with_non_finite_parameters(self):
        # PRR batches skip validation, so the model is checked once up front
        from mlclab.experiments import measure_prr

        ds = _tiny_dataset()
        model = train_model(ds, "reg", LossConfig(), FAST).model
        assert 0.0 <= measure_prr(model, ds) <= 1.0
        model.head.v1[0, 0] = np.inf
        with pytest.raises(DomainError, match="non-finite parameters"):
            measure_prr(model, ds)

    @pytest.mark.parametrize("tau", [0.1, 0.5])
    def test_measure_prr_equals_prr_of_concatenated_gates(self, tau):
        # measure_prr sums prr_counts() over the batches; the quotient must be
        # the bits of prr() over every batch's gate values joined
        from mlclab.experiments import measure_prr

        ds = _tiny_dataset()
        model = train_model(ds, "reg", LossConfig(), FAST).model
        x, y = ds.subset("train")
        cfg = LossConfig(tau=tau)
        gates = [contrastive_loss("reg", ContrastiveBatch(z=model.project(x[idx]), y=y[idx],
                                                          prototypes=model.prototypes),
                                  cfg).gate_value
                 for idx in _epoch_batches(x.shape[0], FAST.batch_size,
                                           np.random.default_rng(FAST.seed))]
        want = prr(np.concatenate(gates))
        got = measure_prr(model, ds, tau=tau)
        assert 0.0 < got < 1.0
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

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


def _single_label(ds):
    y = np.zeros_like(ds.labels)
    y[np.arange(ds.n), np.argmax(ds.labels, axis=1)] = 1
    return MultiLabelDataset(features=ds.features, labels=y, split=ds.split, meta=ds.meta)


def _reference_train(ds, loss_id, cfg):
    """train_model as written before its step went in place: an out-of-place
    clip that copies, lr * v and lr * wd * p as fresh products, and the
    batch PRR as prr(gate_value). Returns (model, log, steps clipped)."""
    x_train, y_train = ds.subset("train")
    loss_cfg = LossConfig()
    rng = np.random.default_rng(cfg.seed)
    model = _init_model(loss_id, x_train.shape[1], y_train.shape[1], loss_cfg, cfg, rng)
    params = model.params()
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    total_steps = cfg.epochs * len(_epoch_batches(x_train.shape[0], cfg.batch_size,
                                                  np.random.default_rng(0)))
    log, step, clipped = [], 0, 0
    for epoch in range(cfg.epochs):
        losses, prrs, lr_now = [], [], 0.0
        for idx in _epoch_batches(x_train.shape[0], cfg.batch_size, rng):
            xb, yb = x_train[idx], y_train[idx]
            if model.head is not None:
                batch = ContrastiveBatch._trusted(model.project(xb), yb, model.prototypes)
                prrs.append(prr(contrastive_loss(loss_id, batch, loss_cfg).gate_value))
            loss_val, grads, _ = _batch_step(model, xb, yb)
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if norm <= cfg.clip:
                grads = {k: g.copy() for k, g in grads.items()}
            else:
                grads = {k: g * (cfg.clip / norm) for k, g in grads.items()}
                clipped += 1
            lr_now = lr_schedule(step, total_steps, cfg.lr, cfg.warmup_frac)
            for key, p in params.items():
                v = velocity[key]
                v *= cfg.momentum
                v += grads[key]
                p -= lr_now * v
                if cfg.weight_decay > 0 and key not in _BIAS_KEYS:
                    p -= lr_now * cfg.weight_decay * p
            losses.append(loss_val)
            step += 1
        prrs = [v for v in prrs if v is not None]
        log.append({"epoch": epoch, "loss": float(np.mean(losses)), "lr": float(lr_now),
                    "prr": float(np.mean(prrs)) if prrs else None})
    return model, log, clipped


class TestInPlaceStep:
    """The in-place clip, SGD update and the batch PRR from prr_counts() give
    the bytes of the out-of-place step they replaced."""

    # proto keeps the batch out of its pool; bce takes the logit path
    @pytest.mark.parametrize("loss_id", ["reg", "base", "proto", "bce"])
    @pytest.mark.parametrize("clip, fires", [(1e-3, True), (1e6, False)])
    def test_train_model_matches_out_of_place_reference(self, loss_id, clip, fires):
        ds = _tiny_dataset()
        # a decay this large lets the last bit of lr * wd * p reach p (at
        # 1e-4 a reordered product is rounded away); 0.3 is not a power of two
        cfg = TrainConfig(epochs=2, batch_size=16, hidden=16, proj_dim=24, clip=clip,
                          weight_decay=0.3)
        model, log, clipped = _reference_train(ds, loss_id, cfg)
        steps = cfg.epochs * len(_epoch_batches(int((ds.split == "train").sum()),
                                                cfg.batch_size, np.random.default_rng(0)))
        assert clipped == (steps if fires else 0)
        result = train_model(ds, loss_id, LossConfig(), cfg)
        assert json.dumps(result.log) == json.dumps(log)
        got, want = result.model.params(), model.params()
        assert sorted(got) == sorted(want)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k

    @pytest.mark.parametrize("loss_id", LOSS_IDS)
    def test_step_gradients_share_no_memory(self, loss_id):
        # the dict clip scales every array in place, once
        ds = _single_label(_tiny_dataset()) if needs_single_label(loss_id) else _tiny_dataset()
        x, y = ds.subset("train")
        model = _init_model(loss_id, x.shape[1], y.shape[1], LossConfig(), FAST,
                            np.random.default_rng(0))
        _, grads, _ = _batch_step(model, x[:16], y[:16])
        arrays = list(grads.values())
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
            assert not any(np.shares_memory(a, p) for p in model.params().values())


def _offsets(arrays, buf):
    """Each array's offset into buf, in elements."""
    base = buf.__array_interface__["data"][0]
    return [(a.__array_interface__["data"][0] - base) // buf.itemsize for a in arrays]


def _assert_packed(arrays: dict, buf):
    """The arrays are C-contiguous views of buf, back to back in _LAYOUT
    order, and cover it exactly."""
    keys = [k for k in _LAYOUT if k in arrays]
    assert list(arrays) == keys
    views = [arrays[k] for k in keys]
    assert all(v.flags.c_contiguous and np.shares_memory(v, buf) for v in views)
    sizes = [v.size for v in views]
    assert _offsets(views, buf) == list(np.cumsum([0] + sizes[:-1]))
    assert sum(sizes) == buf.size


class TestFlatOptimizer:
    """train_model's parameters, velocity, scratch and gradients are one
    contiguous float64 vector each, laid out in the gradient dict's order."""

    @pytest.mark.parametrize("loss_id", ["reg", "base", "bce"])
    def test_each_role_is_one_buffer_of_views(self, loss_id):
        ds = _tiny_dataset()
        x, y = ds.subset("train")
        model = _init_model(loss_id, x.shape[1], y.shape[1], LossConfig(), FAST,
                            np.random.default_rng(0))
        before = {k: v.copy() for k, v in model.params().items()}
        sgd = _FlatSGD(model)
        params = model.params()
        for k, v in before.items():
            assert params[k].tobytes() == v.tobytes(), k
        _assert_packed({k: params[k] for k in _LAYOUT if k in params}, sgd.params)
        _assert_packed(sgd.grads, sgd.gradient)
        buffers = (sgd.params, sgd.velocity, sgd.scratch, sgd.gradient)
        for i, a in enumerate(buffers):
            assert a.dtype == np.float64 and a.ndim == 1 and a.size == buffers[0].size
            assert not any(np.shares_memory(a, b) for b in buffers[i + 1:])
        assert not sgd.velocity.any()
        _, grads, _ = _batch_step(model, x[:16], y[:16], out=sgd.grads)
        assert grads is sgd.grads
        # the decayed runs hold every weight and no bias
        decayed = np.zeros(sgd.params.size, dtype=bool)
        for run in sgd.decayed:
            decayed[run] = True
        for k, v in sgd.grads.items():
            (start,) = _offsets([v], sgd.gradient)
            assert decayed[start:start + v.size].all() == (k not in _BIAS_KEYS)
            assert decayed[start:start + v.size].any() == (k not in _BIAS_KEYS)

    @pytest.mark.parametrize("loss_id", ["reg", "proto", "bce"])
    def test_gradients_written_into_views_match_fresh_ones(self, loss_id):
        ds = _tiny_dataset()
        x, y = ds.subset("train")
        model = _init_model(loss_id, x.shape[1], y.shape[1], LossConfig(), FAST,
                            np.random.default_rng(0))
        sgd = _FlatSGD(model)
        sgd.gradient.fill(np.nan)
        loss_a, fresh, counts_a = _batch_step(model, x[:16], y[:16])
        loss_b, views, counts_b = _batch_step(model, x[:16], y[:16], out=sgd.grads)
        assert (loss_a, counts_a) == (loss_b, counts_b)
        assert list(fresh) == list(views) == [k for k in _LAYOUT if k in views]
        for k in fresh:
            assert fresh[k].tobytes() == views[k].tobytes(), k

    def test_step_matches_per_array_update(self):
        rng = np.random.default_rng(5)
        ds = _tiny_dataset()
        x, y = ds.subset("train")
        model = _init_model("reg", x.shape[1], y.shape[1], LossConfig(), FAST, rng)
        want = {k: v.copy() for k, v in model.params().items()}
        velocity = {k: rng.normal(size=v.shape) for k, v in want.items()}
        grads = {k: rng.normal(size=v.shape) for k, v in want.items()}
        sgd = _FlatSGD(model)
        for k in want:
            sgd.grads[k][...] = grads[k]
            (start,) = _offsets([sgd.grads[k]], sgd.gradient)
            sgd.velocity[start:start + grads[k].size] = velocity[k].ravel()
        lr, momentum, wd = 0.0371, 0.9, 0.3
        sgd.step(lr, momentum, wd)
        for k, p in want.items():
            v = velocity[k] * momentum + grads[k]
            p = p - lr * v
            if k not in _BIAS_KEYS:
                p = p - (lr * wd) * p
            assert model.params()[k].tobytes() == p.tobytes(), k

    def test_trained_model_is_views_and_checkpoint_round_trips(self, tmp_path):
        result = train_model(_tiny_dataset(), "reg", LossConfig(), FAST)
        params = result.model.params()
        buf = params["w2"].base
        assert buf is not None and buf.ndim == 1
        _assert_packed({k: params[k] for k in _LAYOUT if k in params}, buf)
        path = tmp_path / "ckpt.json"
        save_checkpoint(result.model, path)
        loaded, _ = load_checkpoint(path)
        for k, v in params.items():
            assert loaded.params()[k].tobytes() == v.tobytes(), k
        again = tmp_path / "again.json"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("loss_id", ["reg", "bce"])
    def test_one_clip_and_one_call_per_layer_method_per_step(self, loss_id, monkeypatch):
        # perfbench's tracer counts steps by clip_gradient and times the
        # encoder and head by these methods
        import mlclab.training as training

        calls = {}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                key = f"{getattr(owner, '__name__', 'training')}.{name}"
                calls[key] = calls.get(key, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        clip_args = []
        clip = training.clip_gradient

        def recording_clip(grads, threshold, **kwargs):
            clip_args.append((type(grads), list(grads)))
            return clip(grads, threshold, **kwargs)

        monkeypatch.setattr(training, "clip_gradient", recording_clip)
        for cls in (Encoder, ProjectionHead):
            for method in ("forward", "backward"):
                counted(cls, method)
        ds = _tiny_dataset()
        train_model(ds, loss_id, LossConfig(), FAST)
        steps = FAST.epochs * len(_epoch_batches(int((ds.split == "train").sum()),
                                                 FAST.batch_size, np.random.default_rng(0)))
        keys = ["w2", "b2", "w1", "b1"] + (["v2", "v1", "prototypes"] if loss_id == "reg"
                                           else ["cls_w", "cls_b"])
        assert clip_args == [(dict, keys)] * steps
        head = steps if loss_id == "reg" else 0
        assert calls == {"Encoder.forward": steps, "Encoder.backward": steps,
                         **({"ProjectionHead.forward": head, "ProjectionHead.backward": head}
                            if head else {})}


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
        y = np.zeros((100, 4), dtype=np.int8)
        y[:, 0] = 1       # every row positive
        y[::3, 1] = 1
        y[1::2, 3] = 1    # label 2 never appears
        feats = rng.normal(size=(100, 4))
        res = linear_eval(feats[:80], y[:80], feats[80:], y[80:])
        np.testing.assert_array_equal(res.degenerate_labels, [True, False, True, False])
        # no finite minimizer: w = 0 and constant predictions of the only class seen
        np.testing.assert_array_equal(res.weights[:-1, [0, 2]], 0.0)
        pred = res.predict(rng.normal(size=(50, 4)) * 10)
        assert pred[:, 0].min() == 1 and pred[:, 2].max() == 0
        g = _probe_gradient(feats[:80], y[:80], res)
        assert np.max(np.abs(g[:, [0, 2]])) <= 1e-8

    def test_converged_cells_meet_tol(self):
        feats, y = _probe_problem(0, 300, 6, 3)
        tol = 1e-8
        for wd in (1e-2, 1e-4, 0.0):
            res = linear_eval(feats[:200], y[:200], feats[200:], y[200:], wds=(wd,), tol=tol)
            (cell,) = res.cells
            assert cell["converged"] and cell["wd"] == wd
            assert 1 <= cell["iterations"] <= 50
            g = _probe_gradient(feats[:200], y[:200], res)
            assert np.max(np.abs(g)) < tol
            assert cell["grad_max"] < tol

    def test_newton_matches_gradient_descent(self):
        feats, y = _probe_problem(5, 60, 3, 2)
        wd = 1e-2
        res = linear_eval(feats[:40], y[:40], feats[40:], y[40:], wds=(wd,), tol=1e-12)
        xs = (feats[:40] - res.feature_mean) / res.feature_scale
        xb = np.hstack([xs, np.ones((40, 1))])
        penalty = np.array([[1.0], [1.0], [1.0], [0.0]])
        w = np.zeros((4, 2))
        for _ in range(200_000):
            p = 1.0 / (1.0 + np.exp(-(xb @ w)))
            w -= 1.0 * (xb.T @ (p - y[:40]) / 40 + wd * penalty * w)
        np.testing.assert_allclose(res.weights, w, rtol=0, atol=1e-6)

    def test_every_cell_dropped_raises(self):
        feats, y = _probe_problem(6, 120, 3, 2)
        with pytest.raises(TrainingDivergence, match="every linear-eval grid cell"):
            linear_eval(feats[:90], y[:90], feats[90:], y[90:], max_iters=1)

    def test_singular_cell_dropped(self):
        # a constant feature standardizes to a zero column, so without weight
        # decay the Hessian is exactly singular and that cell is dropped
        feats, y = _probe_problem(8, 120, 3, 2)
        feats[:, 1] = 3.0
        res = linear_eval(feats[:90], y[:90], feats[90:], y[90:], wds=(0.0, 1e-2))
        dropped, kept = res.cells
        assert not dropped["converged"] and dropped["val_micro_f1"] is None
        assert kept["converged"] and res.chosen_wd == 1e-2

    def test_bit_identical_and_lrs_ignored(self):
        feats, y = _probe_problem(7, 200, 5, 3)
        args = (feats[:150], y[:150], feats[150:], y[150:])
        r1 = linear_eval(*args, lrs=(1.0,))
        r2 = linear_eval(*args, lrs=(0.1,))
        r3 = linear_eval(*args)
        assert r1.weights.tobytes() == r2.weights.tobytes() == r3.weights.tobytes()
        assert r1.cells == r2.cells == r3.cells

    def test_grid_choice_recorded(self):
        feats, y = _probe_problem(5, 120, 3, 2)
        res = linear_eval(feats[:90], y[:90], feats[90:], y[90:], wds=(1e-2, 1e-4, 1e-2))
        assert [c["wd"] for c in res.cells] == [1e-2, 1e-4, 1e-2]
        scores = [c["val_micro_f1"] for c in res.cells]
        # the first cell with the best validation micro-F1 wins ties
        assert res.val_micro_f1 == max(scores)
        assert res.chosen_wd == res.cells[scores.index(max(scores))]["wd"]
        assert scores[0] == scores[2]
        for cell in res.cells:
            assert set(cell) == {"wd", "iterations", "grad_max", "converged", "val_micro_f1"}
        json.dumps(res.cells)  # plain JSON types only

    @pytest.mark.parametrize("wds", [(), (-1e-3,), (np.nan,), (1e-2, np.inf)])
    def test_bad_weight_decays_rejected(self, wds):
        feats, y = _probe_problem(6, 60, 3, 2)
        with pytest.raises(ConfigError, match="eval.wds"):
            linear_eval(feats[:40], y[:40], feats[40:], y[40:], wds=wds)


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

    @staticmethod
    def _json_dump_reference(model, path, dataset_meta):
        # json.dump streams through the pure-Python encoder: the bytes that
        # save_checkpoint's own writer must reproduce
        doc = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "loss_id": model.loss_id,
            "loss_config": asdict(model.loss_cfg),
            "train_config": asdict(model.train_cfg),
            "n_features": model.n_features,
            "n_labels": model.n_labels,
            "dataset_meta": dataset_meta or {},
            "params": {k: {"shape": list(v.shape), "data": [float(x) for x in v.ravel()]}
                       for k, v in sorted(model.params().items())},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")

    @pytest.mark.parametrize("loss_id", ["reg", "bce"])
    def test_bytes_equal_streaming_json_dump(self, tmp_path, loss_id):
        # 48 x 64 head and encoder arrays span several 1024-float chunks
        ds = _tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=16, hidden=48, proj_dim=64)
        model = train_model(ds, loss_id, LossConfig(), cfg).model
        assert max(v.size for v in model.params().values()) > 2 * 1024
        path, ref = tmp_path / "ckpt.json", tmp_path / "ref.json"
        save_checkpoint(model, path, dataset_meta=ds.meta)
        self._json_dump_reference(model, ref, ds.meta)
        assert path.read_bytes() == ref.read_bytes()

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
