#!/usr/bin/env python3
"""Layered benchmark for mlclab.

    python3 perfbench/run.py --workload experiment --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; mlclab is imported from that checkout's
``src/`` and nowhere else. Workloads: experiment, pretrain, eval-wide (see
workloads.py and README.md).

With ``--trace 0`` the run times operations back to back until ``--seconds``
have passed and at least two operations are done (each operation repeats the
same seeded inputs, so the repeat checks determinism), then reports the
end-to-end metrics: op_s, setup_s and peak_rss_mb. With ``--trace 1`` it runs
each operation untraced and then traced until ``--seconds`` have passed, and
reports the per-layer metrics of the traced operations plus the tracing
overhead; the spans go to ``.perfbench_out/trace-<workload>-seed<n>.json``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Lines before it, starting with ``#``, give the environment and a summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: arithmetic then does not depend on the machine's core
# count, and a shared two-core machine gives steadier timings. numpy reads
# the count when it loads, so it is pinned before anything imports numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import spans  # noqa: E402  (loads numpy)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_TIMED_OPS = 2
CHILD_TIMEOUT_S = 120


def import_workloads():
    """Import mlclab from this checkout's src/ and the workload definitions."""
    src = ROOT / "src"
    if not (src / "mlclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mlclab sources at {src}")
    sys.path.insert(0, str(src))
    import mlclab
    import workloads

    if Path(mlclab.__file__).resolve().parent != (src / "mlclab").resolve():
        raise SystemExit(f"perfbench: imported mlclab from {mlclab.__file__}, not {src}")
    return workloads


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "blas_threads": BLAS_THREADS,
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def time_setups(args) -> list[float]:
    """Set up the workload in fresh interpreters, so each time includes the
    imports; return the seconds each took."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Tally:
    """Attempted and failed units. Every operation of a run uses the same
    inputs, so every digest must equal the first one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.last = None

    def record(self, workload, i, result) -> None:
        if result is None:
            self.attempted += 1
            self.failed += 1
            return
        self.last = result
        self.attempted += result.units
        self.failed += result.failed
        for msg in result.failures:
            print(f"perfbench: op {i}: {msg}", file=sys.stderr)
        if self.digest is None:
            self.digest = result.digest
        else:
            self.attempted += 1
            if result.digest != self.digest:
                self.failed += 1
                print(f"perfbench: op {i} output differs from the first operation's",
                      file=sys.stderr)


def time_op(workload, i, tally, tracer=None) -> float:
    """Run operation i once, record its outcome and return its wall time."""
    root = tracer.open(spans.OP_ROOT) if tracer else None
    t0 = time.perf_counter()
    try:
        result = workload.op(i)
    except Exception:  # an operation that raises is counted as failed
        traceback.print_exc()
        result = None
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
    tally.record(workload, i, result)
    return elapsed


def run_ops(workload, budget_s, min_ops, tally) -> list[float]:
    """Closed loop: one operation at a time until budget_s has passed and at
    least min_ops are done. Returns each operation's wall time."""
    times = []
    begin = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - begin < budget_s:
        times.append(time_op(workload, len(times), tally))
    return times


def run_pairs(workload, budget_s, tally, tracer) -> tuple[list[float], list[float]]:
    """Operation i untraced, then operation i traced, for i = 0, 1, ... until
    budget_s has passed; interleaving keeps drift out of the overhead. An
    untimed first operation takes the process's first-call costs, which
    would otherwise land on the first untraced operation only."""
    time_op(workload, 0, tally)
    plain, traced = [], []
    begin = time.perf_counter()
    while not plain or time.perf_counter() - begin < budget_s:
        i = len(plain)
        plain.append(time_op(workload, i, tally))
        tracer.install()
        try:
            traced.append(time_op(workload, i, tally, tracer))
        finally:
            tracer.uninstall()
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for mlclab.")
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "pretrain", "eval-wide"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and print the seconds")
    args = parser.parse_args(argv)

    if args.setup_only:
        t0 = time.perf_counter()
        wl = import_workloads()
        wl.WORKLOADS[args.workload](args.seed).setup()
        print(time.perf_counter() - t0)
        return 0

    wl = import_workloads()

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    setup_times = time_setups(args)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
            root = tracer.open(spans.SETUP_ROOT)
            workload.setup()
            tracer.close(root)
            tracer.uninstall()
        else:
            workload.setup()
        workload.prepare()

        if tracer:
            plain, traced = run_pairs(workload, args.seconds, tally, tracer)
            op_times = plain
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = statistics.median(
                t - p for p, t in zip(plain, traced))
            units = {k: spans.unit_of(k) for k in metrics}
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                         {"env": env, "workload": args.workload, "seed": args.seed,
                          "untraced_op_s": plain, "traced_op_s": traced, "metrics": metrics})
        else:
            op_times = run_ops(workload, args.seconds, MIN_TIMED_OPS, tally)
            metrics = {
                "op_s": statistics.median(op_times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(op_times),
        "op_s_each": op_times,
        "setup_s_each": setup_times,
        "failed_frac": tally.failed / tally.attempted,
    }
    summary.update(workload.summary(statistics.median(op_times), tally.last))
    print("# summary " + json.dumps(summary, sort_keys=True), flush=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
