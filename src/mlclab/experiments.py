"""End-to-end experiment pipelines shared by the command-line interface:
dataset acquisition, train + linear-eval runs, PRR measurement on trained
embeddings, and the comparison / sweep / fraction studies. All outputs are
deterministic in (config, seed) and contain no timestamps, so re-running a
command overwrites files with identical bytes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import ExperimentConfig
from .datamodel import ContrastiveBatch, MultiLabelDataset, generate_longtail, read_dataset
from .errors import ConfigError, DomainError
from .evaluation import MetricsReport, compute_report, macro_f1
from .losses import contrastive_loss, is_contrastive, prr
from .training import (
    TrainResult,
    TrainedModel,
    _epoch_batches,
    linear_eval,
    train_model,
)


def get_dataset(cfg: ExperimentConfig) -> MultiLabelDataset:
    """Load the dataset named by data.source, or generate the synthetic
    long-tailed default when data.source is 'generate'."""
    source = cfg["data.source"]
    if source != "generate":
        return read_dataset(source)
    split = cfg["data.split"]
    if len(split) != 3:
        raise ConfigError(f"data.split needs three fractions, got {split}")
    return generate_longtail(
        n=cfg["data.n"],
        n_labels=cfg["data.labels"],
        n_features=cfg["data.features"],
        seed=cfg["data.seed"],
        tail_exponent=cfg["data.tail_exponent"],
        avg_labels=cfg["data.avg_labels"],
        noise=cfg["data.noise"],
        cooccur_boost=cfg["data.cooccur_boost"],
        split_fractions=tuple(split),
    )


def run_training(
    dataset: MultiLabelDataset,
    cfg: ExperimentConfig,
    loss_id: str | None = None,
    seed: int | None = None,
) -> TrainResult:
    loss_id = loss_id or cfg["loss.id"]
    return train_model(dataset, loss_id, cfg.loss_config(), cfg.train_config(seed=seed))


def measure_prr(
    model: TrainedModel,
    dataset: MultiLabelDataset,
    tau: float | None = None,
) -> float | None:
    """Pooled positive regularization ratio over the train split: the
    fraction, across one deterministic pass of training-sized batches of the
    trained projections, of positive pairs whose gate is open. Requires a
    contrastive model; tau optionally overrides the evaluation temperature."""
    if model.head is None:
        raise ConfigError("PRR needs a contrastive model (no projection head found)")
    loss_cfg = model.loss_cfg if tau is None else replace(model.loss_cfg, tau=tau)
    x_train, y_train = dataset.subset("train")
    gates = []
    for idx in _epoch_batches(x_train.shape[0], model.train_cfg.batch_size,
                              np.random.default_rng(model.train_cfg.seed)):
        z = model.project(x_train[idx])
        batch = ContrastiveBatch(z=z, y=y_train[idx], prototypes=model.prototypes)
        bundle = contrastive_loss(model.loss_id, batch, loss_cfg)
        gates.append(bundle.gate_value)
    return prr(np.concatenate(gates) if gates else np.empty(0))


def evaluate_trained(
    model: TrainedModel,
    dataset: MultiLabelDataset,
    cfg: ExperimentConfig,
) -> tuple[MetricsReport, dict]:
    """Frozen-feature linear evaluation plus representation metrics on the
    test split; PRR is attached for contrastive models."""
    x_train, y_train = dataset.subset("train")
    x_val, y_val = dataset.subset("val")
    x_test, y_test = dataset.subset("test")
    if x_test.shape[0] == 0:
        raise DomainError("dataset has no test split to evaluate on")
    if x_val.shape[0] == 0:
        # degenerate datasets: select the probe on the train split
        x_val, y_val = x_train, y_train
    f_train = model.encoder.features(x_train)
    f_val = model.encoder.features(x_val)
    f_test = model.encoder.features(x_test)
    probe = linear_eval(
        f_train, y_train, f_val, y_val,
        lrs=cfg["eval.lrs"], wds=cfg["eval.wds"],
    )
    scores = probe.scores(f_test)
    pred = (scores >= 0.5).astype(np.int8)
    prr_value = None
    if model.head is not None and is_contrastive(model.loss_id):
        prr_value = measure_prr(model, dataset)
    report = compute_report(
        pred, y_test, scores=scores, features=f_test, labels=y_test,
        prr_value=prr_value,
    )
    details = {
        "chosen_lr": probe.chosen_lr,
        "chosen_wd": probe.chosen_wd,
        "val_micro_f1": probe.val_micro_f1,
        "degenerate_labels": int(probe.degenerate_labels.sum()),
    }
    return report, details


def run_single(
    dataset: MultiLabelDataset,
    cfg: ExperimentConfig,
    loss_id: str,
    seed: int,
) -> tuple[MetricsReport, dict]:
    result = run_training(dataset, cfg, loss_id=loss_id, seed=seed)
    return evaluate_trained(result.model, dataset, cfg)


_COMPARE_METRICS = ("micro_f1", "macro_f1", "hamming_x1000", "map", "align", "uniform")


def run_compare(dataset: MultiLabelDataset, cfg: ExperimentConfig) -> list[dict]:
    """Train and evaluate every loss in run.losses over run.seeds; one row
    per loss with mean and population standard deviation per metric."""
    rows = []
    for loss_id in cfg["run.losses"]:
        per_seed = {m: [] for m in _COMPARE_METRICS}
        for seed in cfg["run.seeds"]:
            report, _ = run_single(dataset, cfg, loss_id, seed)
            d = report.to_dict()
            for m in _COMPARE_METRICS:
                val = d.get(m)
                if val is not None:
                    per_seed[m].append(val)
        row = {"loss": loss_id}
        for m in _COMPARE_METRICS:
            vals = per_seed[m]
            row[f"{m}_mean"] = float(np.mean(vals)) if vals else None
            row[f"{m}_std"] = float(np.std(vals)) if vals else None
        rows.append(row)
    return rows


def run_sweep_tau(dataset: MultiLabelDataset, cfg: ExperimentConfig) -> list[dict]:
    """Train once per the config, then measure PRR of the trained embeddings
    at each temperature in run.taus."""
    loss_id = cfg["loss.id"]
    if not is_contrastive(loss_id):
        raise ConfigError("sweep-tau requires a contrastive loss.id")
    result = run_training(dataset, cfg)
    rows = []
    for tau in cfg["run.taus"]:
        value = measure_prr(result.model, dataset, tau=tau)
        rows.append({"tau": float(tau), "prr": value})
    return rows


def _subsample_train(dataset: MultiLabelDataset, fraction: float, seed: int) -> MultiLabelDataset:
    train_idx = np.nonzero(dataset.split == "train")[0]
    other_idx = np.nonzero(dataset.split != "train")[0]
    keep = max(int(np.floor(fraction * train_idx.size)), 2)
    rng = np.random.default_rng([seed, 9173])
    kept = np.sort(rng.permutation(train_idx)[:keep])
    order = np.concatenate([kept, other_idx])
    meta = dict(dataset.meta)
    meta["train_fraction"] = float(fraction)
    return MultiLabelDataset(
        features=dataset.features[order],
        labels=dataset.labels[order],
        split=dataset.split[order],
        meta=meta,
    )


def run_fraction(dataset: MultiLabelDataset, cfg: ExperimentConfig) -> list[dict]:
    """Macro-F1 of each loss as the train split shrinks; mean over seeds."""
    rows = []
    for fraction in cfg["run.fractions"]:
        if not (0 < fraction <= 1):
            raise ConfigError(f"fractions must be in (0, 1], got {fraction}")
        for loss_id in cfg["run.losses"]:
            scores = []
            for seed in cfg["run.seeds"]:
                sub = _subsample_train(dataset, fraction, seed)
                report, _ = run_single(sub, cfg, loss_id, seed)
                scores.append(report.macro_f1)
            rows.append({
                "fraction": float(fraction),
                "loss": loss_id,
                "macro_f1": float(np.mean(scores)),
            })
    return rows


def format_csv(header: list[str], rows: list[dict]) -> str:
    """CSV with '.' decimals and shortest round-trip float formatting;
    None renders as an empty field."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(row.get(h)) for h in header))
    return "\n".join(lines) + "\n"


def training_log_csv(log: list[dict]) -> str:
    return format_csv(["epoch", "loss", "lr", "prr"], log)
