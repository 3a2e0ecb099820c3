"""Desk-scale two-stage training: contrastive pre-training of a small MLP
encoder with a projection head (and trainable label prototypes where the loss
wants them), then frozen-feature linear evaluation with per-label logistic
regression.

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

from .datamodel import ContrastiveBatch, MultiLabelDataset
from .errors import ConfigError, DomainError, TrainingDivergence
from .losses import (
    LossConfig,
    check_loss_id,
    contrastive_loss,
    is_contrastive,
    logit_loss,
    needs_prototypes,
    needs_single_label,
    prr,
)
from .numerics import require_finite_floats, sigmoid

CHECKPOINT_FORMAT = "mlclab-checkpoint"
CHECKPOINT_VERSION = 4

# parameters exempt from weight decay (biases)
_BIAS_KEYS = ("b1", "b2", "cls_b")


@dataclass
class TrainConfig:
    """Optimizer and architecture settings; every float must be finite."""

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
        require_finite_floats(self)
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

    def backward(self, cache, d_f):
        x, h1, a1 = cache
        g = {
            "w2": a1.T @ d_f,
            "b2": d_f.sum(axis=0),
        }
        d_a1 = d_f @ self.w2.T
        d_h1 = d_a1 * (h1 > 0.0)
        g["w1"] = x.T @ d_h1
        g["b1"] = d_h1.sum(axis=0)
        return g


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

    def backward(self, cache, d_z):
        f, p1, r1 = cache
        g = {"v2": r1.T @ d_z}
        d_r1 = d_z @ self.v2.T
        d_p1 = d_r1 * (p1 > 0.0)
        g["v1"] = f.T @ d_p1
        d_f = d_p1 @ self.v1.T
        return g, d_f


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
        p = {
            "w1": self.encoder.w1,
            "b1": self.encoder.b1,
            "w2": self.encoder.w2,
            "b2": self.encoder.b2,
        }
        if self.head is not None:
            p["v1"] = self.head.v1
            p["v2"] = self.head.v2
        if self.classifier_w is not None:
            p["cls_w"] = self.classifier_w
            p["cls_b"] = self.classifier_b
        if self.prototypes is not None:
            p["prototypes"] = self.prototypes
        return p

    def project(self, x) -> np.ndarray:
        if self.head is None:
            raise ConfigError("model has no projection head")
        f, _ = self.encoder.forward(np.asarray(x, dtype=np.float64))
        z, _ = self.head.forward(f)
        return z


def lr_schedule(step: int, total_steps: int, base_lr: float, warmup_frac: float) -> float:
    """Linear ramp from 0 to base_lr over the warmup window, then cosine
    decay from base_lr to 0 at the final step."""
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")
    if not (0 <= step < total_steps):
        raise ConfigError(f"step {step} outside [0, {total_steps})")
    warm = int(np.floor(warmup_frac * total_steps))
    if step < warm:
        return base_lr * step / warm
    span = max(total_steps - 1 - warm, 1)
    progress = (step - warm) / span
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def clip_gradient(grads, threshold: float):
    """Global-norm gradient clip: if the joint Euclidean norm exceeds the
    threshold, every gradient is scaled by threshold / norm. Direction is
    preserved and the output norm never exceeds the threshold."""
    if threshold <= 0:
        raise ConfigError(f"clip threshold must be positive, got {threshold}")
    if isinstance(grads, dict):
        sq = sum(float(np.sum(g * g)) for g in grads.values())
        norm = np.sqrt(sq)
        if norm <= threshold:
            return {k: g.copy() for k, g in grads.items()}
        scale = threshold / norm
        return {k: g * scale for k, g in grads.items()}
    g = np.asarray(grads, dtype=np.float64)
    norm = float(np.linalg.norm(g))
    if norm <= threshold:
        return g.copy()
    return g * (threshold / norm)


def _init_model(loss_id: str, n_features: int, n_labels: int,
                loss_cfg: LossConfig, tcfg: TrainConfig,
                rng: np.random.Generator) -> TrainedModel:
    h = tcfg.hidden
    enc = Encoder(
        w1=rng.normal(0.0, np.sqrt(2.0 / n_features), size=(n_features, h)),
        b1=np.zeros(h),
        w2=rng.normal(0.0, np.sqrt(2.0 / h), size=(h, h)),
        b2=np.zeros(h),
    )
    head = None
    cls_w = cls_b = None
    protos = None
    if is_contrastive(loss_id):
        head = ProjectionHead(
            v1=rng.normal(0.0, np.sqrt(2.0 / h), size=(h, h)),
            v2=rng.normal(0.0, np.sqrt(2.0 / h), size=(h, tcfg.proj_dim)),
        )
        if needs_prototypes(loss_id):
            raw = rng.normal(0.0, 1.0, size=(n_labels, tcfg.proj_dim))
            protos = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    else:
        cls_w = rng.normal(0.0, np.sqrt(1.0 / h), size=(h, n_labels))
        cls_b = np.zeros(n_labels)
    return TrainedModel(
        encoder=enc,
        head=head,
        classifier_w=cls_w,
        classifier_b=cls_b,
        prototypes=protos,
        loss_id=loss_id,
        loss_cfg=loss_cfg,
        train_cfg=tcfg,
        n_features=n_features,
        n_labels=n_labels,
    )


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    out = []
    for start in range(0, n, batch_size):
        idx = perm[start:start + batch_size]
        if idx.size >= 2:
            out.append(idx)
    return out


def _batch_step(model: TrainedModel, xb, yb):
    """Forward + backward for one batch; returns (loss, grads, batch prr)."""
    f, enc_cache = model.encoder.forward(xb)
    if model.head is not None:
        z, head_cache = model.head.forward(f)
        batch = ContrastiveBatch(z=z, y=yb, prototypes=model.prototypes)
        bundle = contrastive_loss(model.loss_id, batch, model.loss_cfg)
        head_grads, d_f = model.head.backward(head_cache, bundle.d_z)
        grads = model.encoder.backward(enc_cache, d_f)
        grads.update(head_grads)
        if model.prototypes is not None:
            grads["prototypes"] = bundle.d_prototypes
        return bundle.loss_value, grads, prr(bundle.gate_value)
    logits = f @ model.classifier_w + model.classifier_b
    res = logit_loss(model.loss_id, logits, yb, model.loss_cfg)
    grads = model.encoder.backward(enc_cache, res.d_logits @ model.classifier_w.T)
    grads["cls_w"] = f.T @ res.d_logits
    grads["cls_b"] = res.d_logits.sum(axis=0)
    return res.loss_value, grads, None


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
    if x_train.shape[0] == 0:
        raise DomainError("train split is empty")
    if needs_single_label(loss_id) and np.any(y_train.sum(axis=1) != 1):
        raise ConfigError(
            f"{loss_id} requires exactly one label per training instance; "
            "use a multi-label loss for multi-label data"
        )
    rng = np.random.default_rng(tcfg.seed)
    model = _init_model(loss_id, x_train.shape[1], y_train.shape[1], loss_cfg, tcfg, rng)
    # the optimizer updates the model's own arrays in place
    params = model.params()
    velocity = {k: np.zeros_like(v) for k, v in params.items()}

    steps_per_epoch = len(_epoch_batches(x_train.shape[0], tcfg.batch_size,
                                         np.random.default_rng(0)))
    total_steps = max(tcfg.epochs * steps_per_epoch, 1)

    log = []
    step = 0
    for epoch in range(tcfg.epochs):
        losses = []
        prrs = []
        lr_now = 0.0
        for idx in _epoch_batches(x_train.shape[0], tcfg.batch_size, rng):
            try:
                loss_val, grads, batch_prr = _batch_step(model, x_train[idx], y_train[idx])
            except DomainError as exc:
                # the dataset was validated up front, so a domain error here
                # means the parameters have gone non-finite
                raise TrainingDivergence(f"non-finite forward at step {step}: {exc}") from exc
            if not np.isfinite(loss_val):
                raise TrainingDivergence(f"non-finite loss at step {step}")
            grads = clip_gradient(grads, tcfg.clip)
            lr_now = lr_schedule(step, total_steps, tcfg.lr, tcfg.warmup_frac)
            for key, p in params.items():
                v = velocity[key]
                v *= tcfg.momentum
                v += grads[key]
                p -= lr_now * v
                if tcfg.weight_decay > 0 and key not in _BIAS_KEYS:
                    p -= lr_now * tcfg.weight_decay * p
            losses.append(loss_val)
            if batch_prr is not None:
                prrs.append(batch_prr)
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
    """Per-label logistic probes on frozen features, with the grid choice."""

    weights: np.ndarray           # (p + 1, L), last row is the bias
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    chosen_lr: float
    chosen_wd: float
    val_micro_f1: float
    degenerate_labels: np.ndarray  # labels with no positive training example

    def scores(self, features) -> np.ndarray:
        x = (np.asarray(features, dtype=np.float64) - self.feature_mean) / self.feature_scale
        xb = np.hstack([x, np.ones((x.shape[0], 1))])
        return sigmoid(xb @ self.weights)

    def predict(self, features) -> np.ndarray:
        return (self.scores(features) >= 0.5).astype(np.int8)


def _fit_probe(xb, y, lr, wd, max_iters, tol):
    """Full-batch gradient descent on mean BCE + L2 (bias exempt), all labels
    jointly; deterministic from the zero initialization."""
    n = xb.shape[0]
    w = np.zeros((xb.shape[1], y.shape[1]))
    penalty_mask = np.ones((xb.shape[1], 1))
    penalty_mask[-1, 0] = 0.0
    for _ in range(max_iters):
        p = sigmoid(xb @ w)
        g = xb.T @ (p - y) / n + wd * w * penalty_mask
        if not np.all(np.isfinite(g)):
            return None
        if np.max(np.abs(g)) < tol:
            break
        w = w - lr * g
    if not np.all(np.isfinite(w)):
        return None
    return w


def linear_eval(
    train_features,
    train_labels,
    val_features,
    val_labels,
    lrs=(1.0, 0.1),
    wds=(1e-2, 1e-4),
    max_iters: int = 5000,
    tol: float = 1e-8,
) -> LinearEvalResult:
    """Train one logistic regressor per label on frozen features and pick
    (lr, weight decay) from the grid by validation micro-F1 at threshold 0.5.

    Features are standardized with train-split statistics. Labels with no
    positive training instance degenerate to the prior and are flagged.
    """
    from .evaluation import micro_f1  # local import to avoid a module cycle

    x = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.float64)
    mean = x.mean(axis=0)
    scale = np.maximum(x.std(axis=0), 1e-8)
    xb = np.hstack([(x - mean) / scale, np.ones((x.shape[0], 1))])

    xv = (np.asarray(val_features, dtype=np.float64) - mean) / scale
    xvb = np.hstack([xv, np.ones((xv.shape[0], 1))])
    yv = np.asarray(val_labels)

    best = None
    for lr in lrs:
        for wd in wds:
            w = _fit_probe(xb, y, lr, wd, max_iters, tol)
            if w is None:
                continue
            pred = (sigmoid(xvb @ w) >= 0.5).astype(np.int8)
            score = micro_f1(pred, yv)
            if best is None or score > best[0]:
                best = (score, lr, wd, w)
    if best is None:
        raise TrainingDivergence("every linear-eval grid cell diverged")
    score, lr, wd, w = best
    return LinearEvalResult(
        weights=w,
        feature_mean=mean,
        feature_scale=scale,
        chosen_lr=lr,
        chosen_wd=wd,
        val_micro_f1=score,
        degenerate_labels=(y.sum(axis=0) == 0),
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _array_to_jsonable(a: np.ndarray):
    return {"shape": list(a.shape), "data": [float(v) for v in a.ravel()]}


def _array_from_jsonable(d) -> np.ndarray:
    return np.asarray(d["data"], dtype=np.float64).reshape(d["shape"])


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
        "params": {k: _array_to_jsonable(v) for k, v in sorted(model.params().items())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[TrainedModel, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"not a checkpoint file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('version')}")
    params = {k: _array_from_jsonable(v) for k, v in doc["params"].items()}
    enc = Encoder(w1=params["w1"], b1=params["b1"], w2=params["w2"], b2=params["b2"])
    head = None
    if "v1" in params:
        head = ProjectionHead(v1=params["v1"], v2=params["v2"])
    model = TrainedModel(
        encoder=enc,
        head=head,
        classifier_w=params.get("cls_w"),
        classifier_b=params.get("cls_b"),
        prototypes=params.get("prototypes"),
        loss_id=doc["loss_id"],
        loss_cfg=LossConfig(**doc["loss_config"]),
        train_cfg=TrainConfig(**doc["train_config"]),
        n_features=doc["n_features"],
        n_labels=doc["n_labels"],
    )
    return model, doc.get("dataset_meta", {})
