"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop: one caller, one operation at a time, in one
process. It drives mlclab only through public functions of its modules and
hands mlclab only inputs generated from the benchmark seed. ``setup`` builds
the inputs (timed separately as set-up), ``prepare`` computes the
benchmark's own reference values (untimed), and ``op(i)`` runs operation i
and checks its outputs. Every operation of a run uses the same inputs.

Why these three (see README.md for the layer map):
- experiment: the gen-data -> train -> eval path a user waits for; mostly the
  linear probe.
- pretrain: contrastive pre-training across the default loss list, with no
  probe (the loss engine, cosine kernels, encoder and head), then
  finite-difference gradient checks of every loss id on tiny batches, where
  per-call overhead in the same loss code dominates instead of BLAS.
- eval-wide: the metrics on a 2000-row split, where their O(n^2 L) memory
  and time show.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mlclab import datamodel, evaluation, experiments, training, verification
from mlclab.config import default_config
from mlclab.losses import LOGIT_LOSS_IDS, LOSS_IDS

# The default config scores 0.95-0.99 macro-F1 on the test split; a broken
# pipeline falls far below this.
MACRO_F1_FLOOR = 0.9
# Acceptance tolerances of the gradient checks (the closed-form check of the
# gate regularizer, 1e-10, is part of every report's passed flag).
CONTRASTIVE_TOL = 1e-5
LOGIT_TOL = 1e-6
GRADCHECK_TRIALS_PER_ID = 3
# Metric values recomputed by the benchmark must agree to this relative error.
ORACLE_RTOL = 1e-9
REPORT_FIELDS = ("micro_f1", "macro_f1", "hamming", "map", "align", "uniform")


@dataclass
class OpResult:
    """Outputs of one operation: a digest of everything it produced, how many
    units it attempted and how many failed, and what failed."""

    digest: str
    units: int = 1
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _seeded_config(seed: int):
    cfg = default_config()
    cfg.override("data.seed", seed)
    cfg.override("train.seed", seed)
    return cfg


def reference_report(pred, truth, scores, features, labels) -> dict:
    """The report's metrics computed independently of mlclab.evaluation:
    vectorized confusion counts, mAP by lexsort ranking, alignment by
    grouping identical label sets, and uniformity from the Gram matrix
    (|a - b|^2 = 2 - 2 cos on unit vectors)."""
    p = np.asarray(pred).astype(bool)
    t = np.asarray(truth).astype(bool)
    tp = (p & t).sum(axis=0)
    fp = (p & ~t).sum(axis=0)
    fn = (~p & t).sum(axis=0)
    den = 2 * tp + fp + fn
    micro_den = den.sum()
    ref = {
        "micro_f1": 2.0 * tp.sum() / micro_den if micro_den else 0.0,
        "macro_f1": float(np.mean(np.where(den > 0, 2.0 * tp / np.maximum(den, 1), 0.0))),
        "hamming": float(np.mean(p != t)),
    }

    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[0]
    aps = []
    for j in range(s.shape[1]):
        if not t[:, j].any():
            continue
        hits = t[np.lexsort((np.arange(n), -s[:, j])), j]
        ranks = np.flatnonzero(hits) + 1
        aps.append(np.mean(np.arange(1, ranks.size + 1) / ranks))
    ref["map"] = float(np.mean(aps)) if aps else None

    f = np.asarray(features, dtype=np.float64)
    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    _, group = np.unique(np.asarray(labels), axis=0, return_inverse=True)
    group = group.ravel()
    total = 0.0
    pairs = 0
    for g in np.unique(group):
        members = f[group == g]
        k = members.shape[0]
        if k < 2:
            continue
        # sum over i < j of |f_i - f_j|^2 = k * sum |f_i|^2 - |sum f_i|^2
        col = members.sum(axis=0)
        total += k * float(np.sum(members * members)) - float(col @ col)
        pairs += k * (k - 1) // 2
    ref["align"] = total / pairs if pairs else None
    if n < 2:
        ref["uniform"] = None
    else:
        cos = (f @ f.T)[np.triu_indices(n, k=1)]
        ref["uniform"] = float(np.log(np.mean(np.exp(-2.0 * (2.0 - 2.0 * cos)))))
    return ref


def report_mismatches(report, ref: dict) -> list[str]:
    out = []
    for key in REPORT_FIELDS:
        got, want = getattr(report, key), ref[key]
        if got is None or want is None:
            if got is not want:
                out.append(f"report.{key} = {got}, reference {want}")
        elif not abs(got - want) <= ORACLE_RTOL * max(abs(got), abs(want)) + 1e-15:
            out.append(f"report.{key} = {got!r}, reference {want!r}")
    return out


class Workload:
    name = ""
    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs: data generation and any model made before timing."""

    def prepare(self) -> None:
        """Compute the benchmark's own reference values (untimed)."""

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def summary(self, median_op_s: float, last: OpResult | None) -> dict:
        """The workload's own named figures, derived from the median operation."""
        return {}


class Experiment(Workload):
    name = "experiment"

    def setup(self):
        self.cfg = _seeded_config(self.seed)

    def op(self, i):
        cfg = self.cfg
        failures = []
        generated = experiments.get_dataset(cfg)
        data_path = self.workdir / "dataset.txt"
        datamodel.write_dataset(generated, data_path)
        ds = datamodel.read_dataset(data_path)
        if not (_bits_equal(generated.features, ds.features)
                and _bits_equal(generated.labels, ds.labels)
                and list(generated.split) == list(ds.split)):
            failures.append("dataset write/read round trip is not bit-exact")

        trained = training.train_model(ds, cfg["loss.id"], cfg.loss_config(), cfg.train_config())
        ckpt_path = self.workdir / "checkpoint.json"
        training.save_checkpoint(trained.model, ckpt_path, dataset_meta=ds.meta)
        model, _ = training.load_checkpoint(ckpt_path)
        saved, loaded = trained.model.params(), model.params()
        if saved.keys() != loaded.keys() or not all(_bits_equal(saved[k], loaded[k]) for k in saved):
            failures.append("checkpoint save/load round trip is not bit-exact")

        x_train, y_train = ds.subset("train")
        x_val, y_val = ds.subset("val")
        x_test, y_test = ds.subset("test")
        f_train = model.encoder.features(x_train)
        f_val = model.encoder.features(x_val)
        f_test = model.encoder.features(x_test)
        probe = training.linear_eval(f_train, y_train, f_val, y_val,
                                     lrs=cfg["eval.lrs"], wds=cfg["eval.wds"])
        scores = probe.scores(f_test)
        pred = (scores >= 0.5).astype(np.int8)
        prr_value = experiments.measure_prr(model, ds)
        report = evaluation.compute_report(pred, y_test, scores=scores, features=f_test,
                                           labels=y_test, prr_value=prr_value)
        failures += report_mismatches(report, reference_report(pred, y_test, scores, f_test, y_test))
        if not (np.isfinite(report.macro_f1) and report.macro_f1 >= MACRO_F1_FLOOR):
            failures.append(f"macro_f1 {report.macro_f1!r} below the floor {MACRO_F1_FLOOR}")

        digest = _digest(ckpt_path.read_bytes(), json.dumps(trained.log), report.to_json(),
                         probe.weights.tobytes())
        return OpResult(digest=digest, failed=int(bool(failures)), failures=failures,
                        summary={"macro_f1": report.macro_f1})

    def summary(self, median_op_s, last):
        out = {"experiment_s": median_op_s}
        if last is not None:
            out["macro_f1"] = last.summary["macro_f1"]
        return out


class Pretrain(Workload):
    name = "pretrain"

    def setup(self):
        self.cfg = _seeded_config(self.seed)
        self.dataset = experiments.get_dataset(self.cfg)

    def op(self, i):
        cfg = self.cfg
        parts = []
        failures = []
        for loss_id in cfg["run.losses"]:
            result = training.train_model(self.dataset, loss_id, cfg.loss_config(),
                                          cfg.train_config())
            if len(result.log) != cfg["train.epochs"]:
                failures.append(f"{loss_id}: {len(result.log)} log rows for "
                                f"{cfg['train.epochs']} epochs")
            params = result.model.params()
            parts += [loss_id, json.dumps(result.log)]
            parts += [params[k].tobytes() for k in sorted(params)]
        failed = int(bool(failures))
        trials = 0
        for j, loss_id in enumerate(LOSS_IDS):
            tol = LOGIT_TOL if loss_id in LOGIT_LOSS_IDS else CONTRASTIVE_TOL
            trial_seed = int(np.random.SeedSequence([self.seed, j]).generate_state(1)[0])
            reports = verification.check_gradients(loss_id, GRADCHECK_TRIALS_PER_ID, tol, trial_seed)
            trials += len(reports)
            for r in reports:
                parts.append(r.to_json())
                if not r.passed:
                    failed += 1
                    failures.append(f"gradcheck {loss_id} seed {trial_seed} trial {r.trial}: "
                                    f"rel err {r.max_rel_err:.3e}, "
                                    f"closed form {r.reg_closed_form_err}")
        return OpResult(digest=_digest(*parts), units=1 + trials, failed=failed,
                        failures=failures)

    def steps_per_op(self) -> int:
        n_train = int((self.dataset.split == "train").sum())
        size = self.cfg["train.batch_size"]
        per_epoch = sum(1 for s in range(0, n_train, size) if min(size, n_train - s) >= 2)
        return per_epoch * self.cfg["train.epochs"] * len(self.cfg["run.losses"])

    def summary(self, median_op_s, last):
        return {"train_steps": self.steps_per_op(),
                "gradcheck_trials": GRADCHECK_TRIALS_PER_ID * len(LOSS_IDS)}


class EvalWide(Workload):
    name = "eval-wide"

    def setup(self):
        cfg = _seeded_config(self.seed)
        dataset = experiments.get_dataset(cfg)
        # a logit-loss model gives encoder features and per-label scores at once
        model = training.train_model(dataset, "bce", cfg.loss_config(), cfg.train_config()).model
        x, self.labels = dataset.subset("train")
        self.features = model.encoder.features(x)
        logits = self.features @ model.classifier_w + model.classifier_b
        self.scores = 1.0 / (1.0 + np.exp(-logits))
        self.pred = (self.scores >= 0.5).astype(np.int8)

    def prepare(self):
        self.reference = reference_report(self.pred, self.labels, self.scores,
                                          self.features, self.labels)

    def op(self, i):
        report = evaluation.compute_report(self.pred, self.labels, scores=self.scores,
                                           features=self.features, labels=self.labels)
        failures = report_mismatches(report, self.reference)
        return OpResult(digest=_digest(report.to_json()), failed=int(bool(failures)),
                        failures=failures)

    def summary(self, median_op_s, last):
        n = self.features.shape[0]
        pairs = n * (n - 1) // 2
        return {"rows": n, "pairs": pairs, "eval_pairs_per_s": pairs / median_op_s}


WORKLOADS = {w.name: w for w in (Experiment, Pretrain, EvalWide)}
