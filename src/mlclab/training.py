"""Desk-scale two-stage training: contrastive pre-training of a small MLP
encoder with a projection head (and trainable label prototypes where the loss
wants them), then frozen-feature linear evaluation with per-label logistic
regression.

The linear probe minimizes mean BCE + wd/2 |w|^2 (bias exempt) for each
label exactly, by Newton's method (iteratively reweighted least squares;
Hastie et al., ESL 4.4.1) from w = 0, to max |grad| < tol, once per
weight-decay cell of the grid.

Everything is deterministic in (config, seed): seeded initialization, seeded
shuffles, fixed reduction order, and full-batch deterministic linear probes.
Two runs with the same inputs on the same BLAS library and thread count
produce byte-identical checkpoints and logs; a different thread count can
change the last bits of matrix products, and so of the checkpoint.

Logit losses train the same encoder with a linear classification head
instead of the projection head, so every loss feeds the same frozen-feature
evaluation afterwards.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .datamodel import ContrastiveBatch, MultiLabelDataset, check_labels
from .errors import ConfigError, DomainError, NormRangeError, TrainingDivergence
from .evaluation import micro_f1
from .losses import (
    LossConfig,
    check_loss_id,
    contrastive_loss,
    is_contrastive,
    logit_loss,
    needs_prototypes,
    needs_single_label,
)
from .numerics import _finite_real, _is_integer, as_matrix, check_number_fields, sigmoid

CHECKPOINT_FORMAT = "mlclab-checkpoint"
CHECKPOINT_VERSION = 4

# parameters exempt from weight decay (biases)
_BIAS_KEYS = ("b1", "b2", "cls_b")


@dataclass
class TrainConfig:
    """Optimizer and architecture settings; every int field must be an
    integer and every float finite."""

    epochs: int = 20
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    warmup_frac: float = 0.05
    clip: float = 1.0
    seed: int = 0
    hidden: int = 64
    proj_dim: int = 256

    def __post_init__(self):
        check_number_fields(self)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if not (0 <= self.warmup_frac < 1):
            raise ConfigError(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        if self.clip <= 0:
            raise ConfigError(f"clip must be positive, got {self.clip}")
        if self.lr < 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ConfigError("lr, momentum, weight_decay must be nonnegative")
        if self.hidden < 1 or self.proj_dim < 1:
            raise ConfigError("hidden and proj_dim must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Encoder:
    """Two-layer rectifier MLP; output is the feature vector used for
    evaluation (the projection head never touches it there)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def forward(self, x):
        h1 = x @ self.w1 + self.b1
        a1 = np.maximum(h1, 0.0)
        f = a1 @ self.w2 + self.b2
        return f, (x, h1, a1)

    def features(self, x) -> np.ndarray:
        f, _ = self.forward(np.asarray(x, dtype=np.float64))
        return f

    def backward(self, cache, d_f, out):
        """Write the gradients of w2, b2, w1 and b1 into out's arrays."""
        x, h1, a1 = cache
        np.matmul(a1.T, d_f, out=out["w2"])
        np.sum(d_f, axis=0, out=out["b2"])
        d_h1 = d_f @ self.w2.T
        d_h1 *= h1 > 0.0
        np.matmul(x.T, d_h1, out=out["w1"])
        np.sum(d_h1, axis=0, out=out["b1"])


@dataclass
class ProjectionHead:
    """Bias-free two-layer head applied only during contrastive training."""

    v1: np.ndarray
    v2: np.ndarray

    def forward(self, f):
        p1 = f @ self.v1
        r1 = np.maximum(p1, 0.0)
        z = r1 @ self.v2
        return z, (f, p1, r1)

    def backward(self, cache, d_z, out):
        """Write the gradients of v2 and v1 into out's arrays; returns d_f."""
        f, p1, r1 = cache
        np.matmul(r1.T, d_z, out=out["v2"])
        d_p1 = d_z @ self.v2.T
        d_p1 *= p1 > 0.0
        np.matmul(f.T, d_p1, out=out["v1"])
        return d_p1 @ self.v1.T


@dataclass
class TrainedModel:
    """Encoder plus whichever head the loss trained, and the prototypes."""

    encoder: Encoder
    head: ProjectionHead | None
    classifier_w: np.ndarray | None
    classifier_b: np.ndarray | None
    prototypes: np.ndarray | None
    loss_id: str
    loss_cfg: LossConfig
    train_cfg: TrainConfig
    n_features: int
    n_labels: int

    def params(self) -> dict[str, np.ndarray]:
        """The arrays the model holds, keyed as in _param_shapes."""
        enc = self.encoder
        p = {"w1": enc.w1, "b1": enc.b1, "w2": enc.w2, "b2": enc.b2}
        if self.head is not None:
            p.update(v1=self.head.v1, v2=self.head.v2)
        if self.classifier_w is not None:
            p.update(cls_w=self.classifier_w, cls_b=self.classifier_b)
        if self.prototypes is not None:
            p["prototypes"] = self.prototypes
        return p

    @classmethod
    def from_params(cls, params: dict[str, np.ndarray], loss_id: str, loss_cfg: LossConfig,
                    train_cfg: TrainConfig, n_features: int, n_labels: int) -> "TrainedModel":
        """A model that holds these arrays, not copies, keyed as in _param_shapes."""
        return cls(
            encoder=Encoder(*(params[k] for k in ("w1", "b1", "w2", "b2"))),
            head=ProjectionHead(params["v1"], params["v2"]) if "v1" in params else None,
            classifier_w=params.get("cls_w"),
            classifier_b=params.get("cls_b"),
            prototypes=params.get("prototypes"),
            loss_id=loss_id,
            loss_cfg=loss_cfg,
            train_cfg=train_cfg,
            n_features=n_features,
            n_labels=n_labels,
        )

    def project(self, x) -> np.ndarray:
        if self.head is None:
            raise ConfigError("model has no projection head")
        f, _ = self.encoder.forward(np.asarray(x, dtype=np.float64))
        z, _ = self.head.forward(f)
        return z


def lr_schedule(step: int, total_steps: int, base_lr: float, warmup_frac: float) -> float:
    """Linear ramp from 0 to base_lr over the warmup window, then cosine
    decay from base_lr to 0 at the final step."""
    if not (_is_integer(step) and _is_integer(total_steps) and 0 <= step < total_steps):
        raise ConfigError(f"need integers 0 <= step < total_steps, got {step!r}, {total_steps!r}")
    if not (_finite_real(base_lr) and _finite_real(warmup_frac) and 0 <= warmup_frac < 1):
        raise ConfigError(f"warmup_frac must be in [0, 1) and base_lr finite, "
                          f"got {warmup_frac!r} and {base_lr!r}")
    warm = int(np.floor(warmup_frac * total_steps))
    if step < warm:
        return base_lr * step / warm
    span = max(total_steps - 1 - warm, 1)
    progress = (step - warm) / span
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def clip_gradient(gradient: np.ndarray, threshold: float) -> np.ndarray:
    """Global-norm gradient clip of a flat float64 gradient vector: if its
    Euclidean norm, sqrt(g . g), exceeds the threshold, the vector is scaled
    by threshold / norm. Direction is preserved and the output norm never
    exceeds the threshold.

    The vector is scaled in place and returned; it gets the same bytes as
    `g * (threshold / norm)`.
    """
    if not (_finite_real(threshold) and threshold > 0):
        raise ConfigError(f"clip threshold must be positive, got {threshold}")
    norm = np.sqrt(np.dot(gradient, gradient))
    if norm > threshold:
        gradient *= threshold / norm
    return gradient


# the order of the optimizer's vectors: every decayed array, then the biases
_LAYOUT = ("w2", "w1", "v2", "v1", "cls_w", "prototypes") + _BIAS_KEYS


class _FlatSGD:
    """SGD with momentum and decoupled weight decay over one contiguous
    float64 vector per role: the parameters, the velocity, the scratch for
    the lr * v and lr * wd * p products, and the gradient. Each vector is
    laid out in _LAYOUT order, so the decayed arrays are the one slice
    `decayed` at its front. `views` holds views of the first vector, filled
    with copies of the given parameters, and `grads` views of the last for
    the backward to write into.

    A step is a few whole-vector operations. Every element goes through the
    operations of the per-array update, in the same order, so it gets the
    same bits."""

    def __init__(self, params: dict[str, np.ndarray]):
        keys = [k for k in _LAYOUT if k in params]
        size = sum(params[k].size for k in keys)
        self.params = np.empty(size)
        self.velocity = np.zeros(size)
        self.scratch = np.empty(size)
        self.gradient = np.empty(size)
        self.decayed = slice(0, sum(params[k].size for k in keys if k not in _BIAS_KEYS))
        self.views = {}
        self.grads = {}
        start = 0
        for k in keys:
            shape, stop = params[k].shape, start + params[k].size
            self.views[k] = self.params[start:stop].reshape(shape)
            self.views[k][...] = params[k]
            self.grads[k] = self.gradient[start:stop].reshape(shape)
            start = stop

    def step(self, lr: float, momentum: float, weight_decay: float) -> None:
        p, v, buf = self.params, self.velocity, self.scratch
        v *= momentum
        v += self.gradient
        p -= np.multiply(lr, v, out=buf)
        if weight_decay > 0:
            d = self.decayed
            p[d] -= np.multiply(lr * weight_decay, p[d], out=buf[d])


def _init_model(loss_id: str, n_features: int, n_labels: int,
                loss_cfg: LossConfig, tcfg: TrainConfig,
                rng: np.random.Generator) -> TrainedModel:
    """Draw each parameter of _param_shapes in its order: normal at its
    scale, zeros at scale 0, and the prototypes scaled to unit rows."""
    params = {k: rng.normal(0.0, scale, size=shape) if scale else np.zeros(shape)
              for k, (shape, scale) in _param_shapes(loss_id, n_features, n_labels, tcfg).items()}
    if "prototypes" in params:
        params["prototypes"] /= np.linalg.norm(params["prototypes"], axis=1, keepdims=True)
    return TrainedModel.from_params(params, loss_id, loss_cfg, tcfg, n_features, n_labels)


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    out = []
    for start in range(0, n, batch_size):
        idx = perm[start:start + batch_size]
        if idx.size >= 2:
            out.append(idx)
    return out


def _epoch_steps(n: int, batch_size: int) -> int:
    """len(_epoch_batches(n, batch_size, rng)) without drawing a permutation:
    the full batches, plus the last one if it has at least 2 rows."""
    return n // batch_size + int(n % batch_size >= 2)


def _batch_step(model: TrainedModel, xb, yb, grads):
    """Forward + backward for one batch, writing every gradient into grads'
    arrays (keyed and shaped as model.params(), such as _FlatSGD.grads);
    returns (loss, (open gates, positive pairs)), the counts (0, 0) for a
    logit loss."""
    f, enc_cache = model.encoder.forward(xb)
    if model.head is not None:
        z, head_cache = model.head.forward(f)
        # yb is rows of the validated dataset; the engine rejects zero-norm z
        batch = ContrastiveBatch._trusted(z, yb, model.prototypes)
        bundle = contrastive_loss(model.loss_id, batch, model.loss_cfg)
        d_f = model.head.backward(head_cache, bundle.d_z, grads)
        model.encoder.backward(enc_cache, d_f, grads)
        if model.prototypes is not None:
            grads["prototypes"][...] = bundle.d_prototypes
        return bundle.loss_value, bundle.prr_counts()
    logits = f @ model.classifier_w + model.classifier_b
    res = logit_loss(model.loss_id, logits, yb, model.loss_cfg)
    model.encoder.backward(enc_cache, res.d_logits @ model.classifier_w.T, grads)
    np.matmul(f.T, res.d_logits, out=grads["cls_w"])
    np.sum(res.d_logits, axis=0, out=grads["cls_b"])
    return res.loss_value, (0, 0)


@dataclass
class TrainResult:
    model: TrainedModel
    log: list[dict] = field(default_factory=list)


def train_model(
    dataset: MultiLabelDataset,
    loss_id: str,
    loss_cfg: LossConfig,
    tcfg: TrainConfig,
) -> TrainResult:
    """Train the encoder on the dataset's train split with the given loss.

    Contrastive losses train encoder + projection head (+ prototypes when the
    loss uses them); logit losses train encoder + linear classifier. SGD with
    momentum, decoupled weight decay on the weight matrices and prototypes,
    cosine learning-rate schedule with linear warmup, and global-norm
    gradient clipping. A single-label loss on multi-label rows is a config
    error before the first step; a non-finite loss aborts with the offending
    step.
    """
    check_loss_id(loss_id)
    x_train, y_train = dataset.subset("train")
    if x_train.shape[0] < 2:
        # _epoch_batches drops a 1-row batch: a 1-row split would train nothing
        raise DomainError(f"training needs at least 2 train rows, got {x_train.shape[0]}")
    if needs_single_label(loss_id) and np.any(y_train.sum(axis=1) != 1):
        raise ConfigError(
            f"{loss_id} requires exactly one label per training instance; "
            "use a multi-label loss for multi-label data"
        )
    rng = np.random.default_rng(tcfg.seed)
    n_features, n_labels = x_train.shape[1], y_train.shape[1]
    sgd = _FlatSGD(_init_model(loss_id, n_features, n_labels, loss_cfg, tcfg, rng).params())
    # the trained model holds views of the optimizer's flat vector
    model = TrainedModel.from_params(sgd.views, loss_id, loss_cfg, tcfg, n_features, n_labels)

    total_steps = max(tcfg.epochs * _epoch_steps(x_train.shape[0], tcfg.batch_size), 1)

    log = []
    step = 0
    for epoch in range(tcfg.epochs):
        losses = []
        prrs = []
        lr_now = 0.0
        for idx in _epoch_batches(x_train.shape[0], tcfg.batch_size, rng):
            try:
                loss_val, (n_open, n_pos) = _batch_step(model, x_train[idx], y_train[idx],
                                                        sgd.grads)
            except DomainError as exc:
                # the dataset was validated up front, so a domain error here
                # comes from the parameters: a finite row of z or of the
                # prototypes whose squared norm is zero, overflows or
                # underflows (degenerate), or non-finite logits
                kind = "degenerate" if isinstance(exc, NormRangeError) else "non-finite"
                raise TrainingDivergence(f"{kind} forward at step {step}: {exc}") from exc
            if not np.isfinite(loss_val):
                raise TrainingDivergence(f"non-finite loss at step {step}")
            # scales sgd.gradient, which sgd.grads view, in place
            clip_gradient(sgd.gradient, tcfg.clip)
            lr_now = lr_schedule(step, total_steps, tcfg.lr, tcfg.warmup_frac)
            sgd.step(lr_now, tcfg.momentum, tcfg.weight_decay)
            losses.append(loss_val)
            if n_pos:
                prrs.append(n_open / n_pos)
            step += 1
        log.append({
            "epoch": epoch,
            "loss": float(np.mean(losses)) if losses else float("nan"),
            "lr": float(lr_now),
            "prr": float(np.mean(prrs)) if prrs else None,
        })
    return TrainResult(model=model, log=log)


# ---------------------------------------------------------------------------
# linear evaluation
# ---------------------------------------------------------------------------


@dataclass
class LinearEvalResult:
    """Per-label logistic probes on frozen features, with the grid choice.

    `cells` holds one record per weight-decay cell, in grid order: its
    Newton iteration count, the final max |grad| of its objective (None
    when non-finite), whether it converged, and its validation micro-F1
    (None for a dropped cell)."""

    weights: np.ndarray           # (p + 1, L), last row is the bias
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    chosen_wd: float
    val_micro_f1: float
    degenerate_labels: np.ndarray  # labels with no positive or no negative in train
    cells: list[dict] = field(default_factory=list)

    def scores(self, features) -> np.ndarray:
        return sigmoid(_design(features, self.feature_mean, self.feature_scale) @ self.weights)

    def predict(self, features) -> np.ndarray:
        return (self.scores(features) >= 0.5).astype(np.int8)


# a Newton step may not raise the objective by more than its rounding error;
# the objective is a sum of nonnegative terms, so that error is relative
_ROUNDING = 64 * np.finfo(np.float64).eps
# after 40 halvings the step is 1e-12 of the Newton step: the cell is dropped
_MAX_HALVINGS = 40
# rows per block when accumulating a Hessian: bounds the work buffer to
# _ROW_BLOCK x (p + 1) floats whatever the number of training rows
_ROW_BLOCK = 256


def _design(features, mean, scale) -> np.ndarray:
    """The probe's design matrix [(x - mean) / scale, 1], built in place."""
    x = np.asarray(features, dtype=np.float64)
    xb = np.empty((x.shape[0], x.shape[1] + 1))
    np.subtract(x, mean, out=xb[:, :-1])
    xb[:, :-1] /= scale
    xb[:, -1] = 1.0
    return xb


def _probe_objective(u, y, w, wd):
    """Per-label mean BCE from the logits u plus wd/2 |w|^2 over the
    non-bias rows; each BCE term is softplus(-u) for y = 1 and softplus(u)
    for y = 0, which keeps every term accurate to its last bits."""
    terms = np.where(y > 0, -u, u)
    np.logaddexp(0.0, terms, out=terms)
    return terms.mean(axis=0) + 0.5 * wd * np.sum(w[:-1] ** 2, axis=0)


def _newton_steps(xb, p, g, wd):
    """Solve H_j s_j = g_j for each label column j, with the Hessian
    H_j = X^T diag(p_j (1 - p_j)) X / n + wd * I (bias exempt) accumulated
    over row blocks. Columns of p that are all equal share one Hessian, as
    at w = 0, where p is 1/2 everywhere. Raises LinAlgError when a Hessian
    is singular."""
    n, m = xb.shape
    steps = np.empty_like(g)
    h = np.empty((m, m))
    part = np.empty((m, m))
    buf = np.empty((min(_ROW_BLOCK, n), m))
    diag = np.arange(m - 1)
    root = np.sqrt(p * (1.0 - p) / n)
    shared = bool((p == p[:, :1]).all())
    for j in range(p.shape[1]):
        if j == 0 or not shared:
            h.fill(0.0)
            h[diag, diag] = wd
            for start in range(0, n, _ROW_BLOCK):
                rj = root[start:start + _ROW_BLOCK, j]
                block = buf[:rj.size]
                np.multiply(xb[start:start + _ROW_BLOCK], rj[:, None], out=block)
                np.matmul(block.T, block, out=part)  # symmetric rank-k update
                h += part
        steps[:, j] = np.linalg.solve(h, g[:, j])
    return steps


def _fit_probe(xb, y, wd, max_iters, tol):
    """Newton's method (IRLS) on mean BCE + wd/2 |w|^2, bias exempt, for each
    label column of y from w = 0. A label stops moving once its max |grad|
    is below tol. A step that would raise a label's objective, beyond the
    rounding error of evaluating it, is halved until it does not.

    Returns (w, iterations, final max |grad|). w is None when a step is
    singular or non-finite or tol is not reached within max_iters steps.
    Deterministic: every label is solved independently, in a fixed order.
    """
    n, m = xb.shape
    w = np.zeros((m, y.shape[1]))
    # the moving labels' columns of w and of y
    active, wa, ya = np.arange(y.shape[1]), w.copy(), y
    grad_max = np.zeros(y.shape[1])
    for it in range(max_iters + 1):
        u = xb @ wa
        p = sigmoid(u)
        g = xb.T @ (p - ya) / n
        g[:-1] += wd * wa[:-1]
        grad_max[active] = np.max(np.abs(g), axis=0)
        if not np.all(np.isfinite(grad_max)):
            return None, it, None
        moving = grad_max[active] >= tol
        if not moving.any():
            return w, it, float(grad_max.max(initial=0.0))
        if it == max_iters:
            break
        if not moving.all():
            active, wa, ya, u, p, g = (a[..., moving] for a in (active, wa, ya, u, p, g))
        try:
            step = _newton_steps(xb, p, g, wd)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        limit = _probe_objective(u, ya, wa, wd) * (1.0 + _ROUNDING)
        del u, p  # free the (n, labels) arrays before the line search
        trial = wa - step
        rising = _probe_objective(xb @ trial, ya, trial, wd) > limit
        for _ in range(_MAX_HALVINGS):
            if not rising.any():
                break
            cols = np.flatnonzero(rising)
            step[:, cols] *= 0.5
            trial[:, cols] = wa[:, cols] - step[:, cols]
            rising[cols] = _probe_objective(xb @ trial[:, cols], ya[:, cols],
                                            trial[:, cols], wd) > limit[cols]
        if rising.any():
            break
        w[:, active] = wa = trial
    return None, it, float(np.max(grad_max))


def check_weight_decays(wds) -> None:
    """The probe grid must be non-empty, finite and >= 0: a negative weight
    decay makes the Newton Hessian indefinite."""
    if len(wds) == 0 or not all(_finite_real(wd) and wd >= 0 for wd in wds):
        raise ConfigError(f"probe weight decays (eval.wds) must be non-empty, finite and >= 0, "
                          f"got {tuple(wds)}")


def _degenerate_bias(y, tol):
    """Bias of a label with no positive (or no negative) in train: its
    objective has no finite minimizer, so w = 0 and sigmoid(b) = tol / (1 +
    tol) (or 1 / (1 + tol)) put |dJ/db| below tol with constant
    all-negative (all-positive) predictions."""
    return np.where(y.mean(axis=0) > 0.5, -np.log(tol), np.log(tol))


def linear_eval(
    train_features,
    train_labels,
    val_features,
    val_labels,
    lrs=None,
    wds=(1e-2, 1e-4),
    max_iters: int = 50,
    tol: float = 1e-8,
) -> LinearEvalResult:
    """Train one L2-regularized logistic regressor per label on frozen
    features and pick the weight decay from `wds` by validation micro-F1 at
    threshold 0.5 (ties keep the first cell).

    Each cell minimizes mean BCE + wd/2 |w|^2 (bias exempt) exactly, by
    Newton's method from w = 0 (see `_fit_probe`): a converged cell has
    max |grad| < tol. A cell is dropped when a step is singular or
    non-finite or tol is not reached within max_iters steps; if every cell
    is dropped this raises TrainingDivergence. Features are standardized
    with train-split statistics. Labels with no positive or no negative
    training instance have no finite minimizer; they get w = 0, a bias whose
    gradient is below tol (constant predictions), and are flagged.

    The inputs are checked before any work: features must be finite, labels
    2-D and 0/1 (of any dtype; they are not copied), each split's features
    and labels must agree on rows, and train and val on widths (DomainError);
    max_iters must be an integer (ConfigError).

    `lrs` is accepted for callers that still pass the `eval.lrs` grid and
    is not read: Newton's method has no step size.
    """
    del lrs
    check_weight_decays(wds)
    if not _is_integer(max_iters):
        raise ConfigError(f"max_iters must be an integer, got {max_iters!r}")
    if max_iters < 1 or not (_finite_real(tol) and 0 < tol < 1):
        raise ConfigError(f"need max_iters >= 1 and 0 < tol < 1, got {max_iters} and {tol}")
    x = as_matrix(train_features, "train features")
    xv = as_matrix(val_features, "val features")
    # 0/1 labels of any dtype: p - y is exact, so an int8 split is not copied
    y = check_labels(train_labels, "train labels")
    yv = check_labels(val_labels, "val labels")
    for what, feats, labels in (("train", x, y), ("val", xv, yv)):
        if feats.shape[0] != labels.shape[0]:
            raise DomainError(f"{what} features have {feats.shape[0]} rows, "
                              f"{what} labels {labels.shape[0]}")
    if (x.shape[1], y.shape[1]) != (xv.shape[1], yv.shape[1]):
        raise DomainError(f"train and val must have the same widths, got features "
                          f"{x.shape[1]} and {xv.shape[1]}, labels {y.shape[1]} and {yv.shape[1]}")
    mean = x.mean(axis=0)
    scale = np.maximum(x.std(axis=0), 1e-8)
    xb = _design(x, mean, scale)
    xvb = _design(xv, mean, scale)

    positives = y.sum(axis=0)
    degenerate = (positives == 0) | (positives == y.shape[0])
    fitted = np.flatnonzero(~degenerate)
    y_fit = y[:, fitted]
    degenerate_bias = _degenerate_bias(y[:, degenerate], tol)

    best = None
    cells = []
    for wd in wds:
        w = np.zeros((xb.shape[1], y.shape[1]))
        w[-1, degenerate] = degenerate_bias
        w_fit, iterations, grad_max = _fit_probe(xb, y_fit, wd, max_iters, tol)
        cell = {"wd": float(wd), "iterations": iterations, "grad_max": grad_max,
                "converged": w_fit is not None, "val_micro_f1": None}
        cells.append(cell)
        if w_fit is None:
            continue
        w[:, fitted] = w_fit
        pred = (sigmoid(xvb @ w) >= 0.5).astype(np.int8)
        cell["val_micro_f1"] = score = float(micro_f1(pred, yv))
        if best is None or score > best[0]:
            best = (score, float(wd), w)
    if best is None:
        raise TrainingDivergence(
            f"every linear-eval grid cell was dropped (max_iters={max_iters}, tol={tol})")
    score, wd, w = best
    return LinearEvalResult(
        weights=w,
        feature_mean=mean,
        feature_scale=scale,
        chosen_wd=wd,
        val_micro_f1=score,
        degenerate_labels=degenerate,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


_JSON_CHUNK = 1024


def _write_json(fh, obj) -> None:
    """Write obj as json.dump(obj, fh, sort_keys=True) would, byte for byte.

    json.dump streams through the pure-Python encoder, and json.dumps of the
    whole document holds every float's text at once. Here each leaf goes
    through the C encoder, and an array as a flat list of floats, 1024 at a
    time."""
    if isinstance(obj, dict):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, obj[key])
        fh.write("}")
    elif isinstance(obj, np.ndarray):
        flat = obj.ravel()
        fh.write("[")
        for i in range(0, flat.size, _JSON_CHUNK):
            fh.write((", " if i else "") + json.dumps(flat[i:i + _JSON_CHUNK].tolist())[1:-1])
        fh.write("]")
    else:
        fh.write(json.dumps(obj, sort_keys=True))


def save_checkpoint(model: TrainedModel, path, dataset_meta: dict | None = None) -> None:
    """Write the model as deterministic JSON text. Floats are serialized via
    their shortest round-trip representation, so save/load is exact and two
    identical runs produce byte-identical files."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "loss_id": model.loss_id,
        "loss_config": asdict(model.loss_cfg),
        "train_config": asdict(model.train_cfg),
        "n_features": model.n_features,
        "n_labels": model.n_labels,
        "dataset_meta": dataset_meta or {},
        "params": {k: {"shape": list(v.shape), "data": v} for k, v in model.params().items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, doc)
        fh.write("\n")


def _param_shapes(loss_id: str, n_features: int, n_labels: int,
                  tcfg: TrainConfig) -> dict[str, tuple]:
    """The one table of a model's parameters, name -> (shape, initial scale),
    in the order _init_model draws them; TrainedModel.params() keys them the
    same. Scale 0 draws zeros (the biases)."""
    h, d = tcfg.hidden, tcfg.proj_dim
    he = np.sqrt(2.0 / h)  # He scale of a layer with fan-in h
    table = {"w1": ((n_features, h), np.sqrt(2.0 / n_features)), "b1": ((h,), 0.0),
             "w2": ((h, h), he), "b2": ((h,), 0.0)}
    if is_contrastive(loss_id):
        table.update(v1=((h, h), he), v2=((h, d), he))
        if needs_prototypes(loss_id):
            table["prototypes"] = ((n_labels, d), 1.0)
    else:
        table.update(cls_w=((h, n_labels), np.sqrt(1.0 / h)), cls_b=((n_labels,), 0.0))
    return table


def load_checkpoint(path) -> tuple[TrainedModel, dict]:
    """Read a checkpoint that save_checkpoint wrote. A file that is not JSON,
    not a checkpoint, of another version, missing a field, whose params or
    dataset_meta is not a JSON object, or whose parameters are not the
    finite arrays its loss id, sizes and train config call for is a
    ConfigError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"not a checkpoint file: {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"not a checkpoint file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('version')}: {path}")
    for key in ("params", "dataset_meta"):
        if not isinstance(doc.get(key, {}), dict):
            raise ConfigError(f"malformed checkpoint {path}: {key} is not a JSON object")
    try:
        params = {k: np.asarray(v["data"], dtype=np.float64).reshape(v["shape"])
                  for k, v in doc["params"].items()}
        tcfg = TrainConfig(**doc["train_config"])
        if not all(type(doc[k]) is int and doc[k] > 0 for k in ("n_features", "n_labels")):
            raise ConfigError("n_features and n_labels must be positive integers")
        table = _param_shapes(check_loss_id(doc["loss_id"]), doc["n_features"],
                              doc["n_labels"], tcfg)
        if sorted(params) != sorted(table):
            raise ConfigError(f"params {sorted(params)}, expected {sorted(table)}")
        for k, (shape, _) in table.items():
            if params[k].shape != shape:
                raise ConfigError(f"{k} has shape {params[k].shape}, expected {shape}")
            if not np.isfinite(params[k]).all():
                raise ConfigError(f"{k} has non-finite entries")
        model = TrainedModel.from_params(params, doc["loss_id"], LossConfig(**doc["loss_config"]),
                                         tcfg, doc["n_features"], doc["n_labels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc
    return model, doc.get("dataset_meta", {})
