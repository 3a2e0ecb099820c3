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
from .datamodel import (SPLIT_NAMES, ContrastiveBatch, MultiLabelDataset, generate_longtail,
                        read_dataset)
from .errors import ConfigError, DomainError
from .evaluation import MetricsReport, compute_report
from .losses import contrastive_loss, is_contrastive
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
    return generate_longtail(cfg.data_config())


def run_training(
    dataset: MultiLabelDataset,
    cfg: ExperimentConfig,
    loss_id: str | None = None,
    seed: int | None = None,
) -> TrainResult:
    loss_id = loss_id or cfg["loss.id"]
    return train_model(dataset, loss_id, cfg.loss_config(), cfg.train_config(seed=seed))


def _check_sizes(model: TrainedModel, dataset: MultiLabelDataset) -> None:
    """A model of another feature or label count than the dataset's is a config error."""
    for what in ("features", "labels"):
        trained, given = getattr(model, f"n_{what}"), getattr(dataset, f"n_{what}")
        if trained != given:
            raise ConfigError(f"the model was trained on {trained} {what}, the dataset has {given}")


def measure_prr(
    model: TrainedModel,
    dataset: MultiLabelDataset,
    tau: float | None = None,
) -> float | None:
    """Pooled positive regularization ratio over the train split: the
    fraction, across one deterministic pass of training-sized batches of the
    trained projections, of positive pairs whose gate is open. Requires a
    contrastive model of the dataset's sizes; tau overrides the temperature."""
    if model.head is None:
        raise ConfigError("PRR needs a contrastive model (no projection head found)")
    _check_sizes(model, dataset)
    # the batches below skip validation, so the model is checked once here
    if not all(np.all(np.isfinite(p)) for p in model.params().values()):
        raise DomainError("model has non-finite parameters")
    loss_cfg = model.loss_cfg if tau is None else replace(model.loss_cfg, tau=tau)
    x_train, y_train = dataset.subset("train")
    n_open = positives = 0
    for idx in _epoch_batches(x_train.shape[0], model.train_cfg.batch_size,
                              np.random.default_rng(model.train_cfg.seed)):
        z = model.project(x_train[idx])
        batch = ContrastiveBatch._trusted(z, y_train[idx], model.prototypes)
        # the gates come from the forward alone
        bundle = contrastive_loss(model.loss_id, batch, loss_cfg, compute_gradients=False)
        batch_open, batch_positives = bundle.prr_counts()
        n_open += batch_open
        positives += batch_positives
    # the quotient of the counts is prr() of the concatenated gate values
    return n_open / positives if positives else None


def evaluate_trained(
    model: TrainedModel,
    dataset: MultiLabelDataset,
    cfg: ExperimentConfig,
) -> tuple[MetricsReport, dict]:
    """Frozen-feature linear evaluation plus representation metrics on the
    test split; PRR is attached for contrastive models. The details dict
    records the probe's chosen weight decay, its validation micro-F1, the
    number of degenerate labels and one record per weight-decay cell. A
    model trained on a different feature or label count is a config error."""
    _check_sizes(model, dataset)
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
    probe = linear_eval(f_train, y_train, f_val, y_val, wds=cfg["eval.wds"])
    scores = probe.scores(f_test)
    pred = (scores >= 0.5).astype(np.int8)
    prr_value = measure_prr(model, dataset) if model.head is not None else None
    report = compute_report(
        pred, y_test, scores=scores, features=f_test, labels=y_test,
        prr_value=prr_value,
    )
    details = {
        "chosen_wd": probe.chosen_wd,
        "val_micro_f1": probe.val_micro_f1,
        "degenerate_labels": int(probe.degenerate_labels.sum()),
        "probe_cells": probe.cells,
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
    """The dataset with its train block cut to a seeded, order-kept sample of
    max(floor(fraction * rows), 2) rows; the val and test blocks follow.
    Its meta records the fraction, the seed and the new block sizes."""
    n_train, n_val, n_test = dataset.split_counts
    keep = max(int(np.floor(fraction * n_train)), 2)
    rng = np.random.default_rng([seed, 9173])
    kept = np.sort(rng.permutation(n_train)[:keep])
    counts = (kept.size, n_val, n_test)
    meta = {**dataset.meta, "train_fraction": float(fraction), "subsample_seed": int(seed),
            "split_counts": dict(zip(SPLIT_NAMES, counts))}
    return MultiLabelDataset(
        features=np.concatenate([dataset.features[kept], dataset.features[n_train:]]),
        labels=np.concatenate([dataset.labels[kept], dataset.labels[n_train:]]),
        split_counts=counts,
        meta=meta,
    )


def run_fraction(dataset: MultiLabelDataset, cfg: ExperimentConfig) -> list[dict]:
    """Macro-F1 of each loss as the train split shrinks; mean over seeds."""
    rows = []
    for fraction in cfg["run.fractions"]:
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
