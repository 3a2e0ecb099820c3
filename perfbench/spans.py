"""Outside-in tracing of mlclab: spans recorded around calls into its layers.

The tracer replaces public functions and methods of mlclab's modules with
thin wrappers, including every name another module imported directly (for
example ``training.contrastive_loss``), so a call is seen whichever module
makes it. Each call records one span: name, start, end and parent span.
Spans stay in memory in compact arrays and are written out once, at the end
of the run. Nothing under ``src/`` is changed; the wrappers are removed when
tracing stops.

A few wrappers also take counts at the boundary, computed by the benchmark
from the call's own inputs and outputs: finite-difference evaluations, the
gradient norm that ``clip_gradient`` receives, the bytes written to disk, the
probe objective's gradient at the weights ``linear_eval`` returns, and a
tracemalloc peak during ``compute_report``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from array import array

import numpy as np

SETUP_ROOT = "bench.setup"
OP_ROOT = "bench.op"


def probe_grad_max(train_features, train_labels, result) -> float:
    """max |grad| of the probe objective (mean BCE plus L2 on the weights,
    bias exempt) at the weights linear_eval returned for its chosen cell."""
    x = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.float64)
    xs = (x - result.feature_mean) / result.feature_scale
    xb = np.hstack([xs, np.ones((xs.shape[0], 1))])
    w = result.weights
    p = 1.0 / (1.0 + np.exp(-(xb @ w)))
    penalty = np.ones((w.shape[0], 1))
    penalty[-1, 0] = 0.0
    g = xb.T @ (p - y) / xb.shape[0] + result.chosen_wd * w * penalty
    return float(np.max(np.abs(g)))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "B"), ("_frac", "ratio"),
                         ("_per_step", "count/step"), ("_per_trial", "count/trial"),
                         ("_grad_max", "1")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span recorder plus the patch table that routes mlclab calls through it.

    The runner opens one root span per set-up (``bench.setup``) and per
    operation (``bench.op``); every span and counter belongs to the root it
    was recorded under.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self._stack: list[int] = []
        self.counters = {SETUP_ROOT: {}, OP_ROOT: {}}
        self.probe_grad_max = 0.0
        self.alloc_peak_mb = 0.0
        self.t0 = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter() - self.t0)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter() - self.t0
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        kind = self.names[self.name[self._stack[0]]] if self._stack else SETUP_ROOT
        bucket = self.counters[kind]
        bucket[key] = bucket.get(key, 0.0) + amount

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, span, before=None, after=None, alloc=False):
        """Span around fn; with alloc, the outermost such call also records
        its tracemalloc peak."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            outermost_alloc = alloc and not tracemalloc.is_tracing()
            if outermost_alloc:
                tracemalloc.start()
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if outermost_alloc:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.alloc_peak_mb = max(tracer.alloc_peak_mb, peak_mb)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch_function(self, module, attr, span, **hooks):
        """Wrap module.attr and every mlclab module attribute bound to the
        same function object (names imported with ``from x import f``)."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, span, **hooks)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mlclab" or name.startswith("mlclab.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr, span):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, span))

    def _count_fd(self, args, kwargs):
        self.count("fd_evals", 2 * np.size(_arg(args, kwargs, 1, "x")))

    def _count_clip(self, args, kwargs):
        grads = _arg(args, kwargs, 0, "grads")
        threshold = _arg(args, kwargs, 1, "threshold")
        if isinstance(grads, dict):
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        else:
            norm = float(np.linalg.norm(np.asarray(grads, dtype=np.float64)))
        self.count("clip_fired", float(norm > threshold))

    def _count_bytes(self, key):
        def after(args, kwargs, result):
            self.count(key, os.path.getsize(_arg(args, kwargs, 1, "path")))
        return after

    def _record_probe(self, args, kwargs, result):
        g = probe_grad_max(_arg(args, kwargs, 0, "train_features"),
                           _arg(args, kwargs, 1, "train_labels"), result)
        self.probe_grad_max = max(self.probe_grad_max, g)

    def _count_trials(self, args, kwargs, result):
        self.count("trials", len(result))

    def install(self) -> None:
        """Route calls into mlclab's layers through the span recorder."""
        # imported here: mlclab is importable once the runner has put the
        # checkout's src/ on the path
        from mlclab import (
            datamodel, evaluation, experiments, losses, numerics, training, verification,
        )

        patch = self._patch_function
        patch(numerics, "tempered_cosine_matrix", "numerics.cosine_fwd")
        patch(numerics, "tempered_cosine_backward", "numerics.cosine_bwd")
        patch(numerics, "masked_logsumexp", "numerics.logsumexp")
        patch(numerics, "finite_difference_gradient", "numerics.fd", before=self._count_fd)
        patch(datamodel, "generate_longtail", "datamodel.generate")
        patch(datamodel, "write_dataset", "datamodel.write",
              after=self._count_bytes("dataset_bytes"))
        patch(datamodel, "read_dataset", "datamodel.read")
        self._patch_method(datamodel.ContrastiveBatch, "__post_init__", "datamodel.batch")
        patch(losses, "contrastive_loss", "losses.contrastive")
        patch(losses, "reg_term", "losses.reg_term")
        patch(losses, "logit_loss", "losses.logit")
        for method in ("forward", "backward"):
            self._patch_method(training.Encoder, method, "training.encoder")
            self._patch_method(training.ProjectionHead, method, "training.head")
        patch(training, "clip_gradient", "training.clip", before=self._count_clip)
        patch(training, "train_model", "training.train")
        patch(training, "linear_eval", "training.probe", after=self._record_probe)
        patch(training, "save_checkpoint", "training.checkpoint_save",
              after=self._count_bytes("checkpoint_bytes"))
        patch(training, "load_checkpoint", "training.checkpoint_load")
        patch(evaluation, "compute_report", "evaluation.report", alloc=True)
        patch(evaluation, "alignment", "evaluation.alignment")
        patch(evaluation, "uniformity", "evaluation.uniformity")
        patch(evaluation, "mean_average_precision", "evaluation.map")
        patch(verification, "check_gradients", "verification.check", after=self._count_trials)
        patch(verification, "reg_gradient_reference", "verification.reg_reference")
        patch(experiments, "measure_prr", "experiments.prr")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one operation.

        Spans and counters under the set-up root count once; those under
        operation roots are averaged over the traced operations. Self time is
        a span's duration minus the time its child spans cover.
        """
        n = len(self.name)
        names = self.names
        op_id = self._name_ids.get(OP_ROOT, -1)
        n_ops = max(sum(1 for i in range(n) if self.parent[i] < 0 and self.name[i] == op_id), 1)
        in_op = [self.name[self.root[i]] == op_id for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]

        # each sum is kept per root kind (set-up, operations) and combined as
        # set-up + operations / n_ops
        sums = {key: ({}, {}) for key in ("total", "own", "calls")}

        def add(key, name, i, value):
            bucket = sums[key][in_op[i]]
            bucket[name] = bucket.get(name, 0.0) + value

        for i in range(n):
            if self.parent[i] < 0:
                continue
            nm = names[self.name[i]]
            dur = self.end[i] - self.start[i]
            add("total", nm, i, dur)
            add("own", nm, i, dur - child[i])
            add("calls", nm, i, 1)

        def combine(key, name):
            setup, ops = sums[key]
            return setup.get(name, 0.0) + ops.get(name, 0.0) / n_ops

        total = functools.partial(combine, "total")
        own = functools.partial(combine, "own")
        calls = functools.partial(combine, "calls")

        def under(span_name, ancestor_name):
            """Count of span_name spans inside an ancestor_name span."""
            sid = self._name_ids.get(span_name)
            aid = self._name_ids.get(ancestor_name)
            found = [0, 0]
            for i in range(n):
                if self.name[i] != sid:
                    continue
                p = self.parent[i]
                while p >= 0 and self.name[p] != aid:
                    p = self.parent[p]
                if p >= 0:
                    found[in_op[i]] += 1
            return found[0] + found[1] / n_ops

        def counter(key):
            return (self.counters[SETUP_ROOT].get(key, 0.0)
                    + self.counters[OP_ROOT].get(key, 0.0) / n_ops)

        def ratio(num, den):
            return num / den if den else 0.0

        steps = under("training.clip", "training.train")
        trials = counter("trials")
        fd_evals = counter("fd_evals")
        return {
            "numerics.cosine_fwd_s": total("numerics.cosine_fwd"),
            "numerics.cosine_fwd_calls": calls("numerics.cosine_fwd"),
            "numerics.cosine_bwd_s": total("numerics.cosine_bwd"),
            "numerics.cosine_bwd_calls": calls("numerics.cosine_bwd"),
            "numerics.cosine_bwd_per_step": ratio(under("numerics.cosine_bwd", "training.train"), steps),
            "numerics.logsumexp_s": total("numerics.logsumexp"),
            "numerics.fd_evals": fd_evals,
            "numerics.fd_evals_per_trial": ratio(fd_evals, trials),
            "numerics.fd_s": own("numerics.fd"),
            "datamodel.generate_s": total("datamodel.generate"),
            "datamodel.batch_calls": calls("datamodel.batch"),
            "datamodel.batch_s": total("datamodel.batch"),
            "datamodel.write_s": total("datamodel.write"),
            "datamodel.read_s": total("datamodel.read"),
            "datamodel.dataset_bytes": counter("dataset_bytes"),
            "losses.contrastive_calls": calls("losses.contrastive"),
            "losses.contrastive_self_s": own("losses.contrastive"),
            "losses.reg_term_calls": calls("losses.reg_term"),
            "losses.reg_term_s": total("losses.reg_term"),
            "losses.logit_s": total("losses.logit"),
            "training.encoder_s": own("training.encoder"),
            "training.head_s": own("training.head"),
            "training.clip_s": total("training.clip"),
            "training.train_self_s": own("training.train"),
            "training.steps": steps,
            "training.clip_fired_frac": ratio(counter("clip_fired"), steps),
            "training.probe_s": total("training.probe"),
            "training.probe_grad_max": self.probe_grad_max,
            "training.checkpoint_save_s": total("training.checkpoint_save"),
            "training.checkpoint_load_s": total("training.checkpoint_load"),
            "training.checkpoint_bytes": counter("checkpoint_bytes"),
            "evaluation.report_s": total("evaluation.report"),
            "evaluation.alignment_s": total("evaluation.alignment"),
            "evaluation.uniformity_s": total("evaluation.uniformity"),
            "evaluation.map_s": total("evaluation.map"),
            "evaluation.peak_alloc_mb": self.alloc_peak_mb,
            "verification.trials": trials,
            "verification.trial_s": ratio(total("verification.check"), trials),
            "verification.reg_reference_s": total("verification.reg_reference"),
            "experiments.prr_s": total("experiments.prr"),
            "experiments.prr_batches": under("losses.contrastive", "experiments.prr"),
            "trace.spans": sum(calls(nm) for nm in names),
        }

    def write(self, path, extra: dict) -> None:
        """Write every span (column-wise) with the run's metadata as JSON."""
        doc = dict(extra)
        doc["span_names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
