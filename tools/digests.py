"""Golden digests: SHA-256 prefixes of the checkpoint and the training log
that `mlclab train` writes for every loss id, at the default config and seed
0, and of the dataset.txt that `mlclab gen-data` writes at the default
config, recorded in DIGESTS.json at the repository root.

    python tools/digests.py            # print the digests, compare with DIGESTS.json
    python tools/digests.py --write    # record them in DIGESTS.json

The commands run in one subprocess, from this checkout's src/, with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1.
`supcon` and `supcon-reg` need one label per row, so they train on the
default dataset cut to each row's first label, written to a dataset file
that data.source names. The bytes depend on the BLAS library, numpy and the
thread count, so DIGESTS.json keys each table by those fields. The compare
exits 1 when a digest differs and 3 when no table matches the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "DIGESTS.json"
PREFIX = 16
THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:PREFIX]


def _child(workdir: Path) -> None:
    """Run `mlclab gen-data`, train every loss id with `mlclab train` and
    write the environment and the digests to workdir/digests.json."""
    import contextlib
    import io

    import numpy as np

    from mlclab.cli import main
    from mlclab.config import default_config
    from mlclab.datamodel import MultiLabelDataset, write_dataset
    from mlclab.experiments import get_dataset
    from mlclab.losses import LOSS_IDS, needs_single_label

    ds = get_dataset(default_config())
    first = np.zeros_like(ds.labels)
    first[np.arange(ds.n), np.argmax(ds.labels, axis=1)] = 1
    cut_data = workdir / "first_label.txt"
    write_dataset(MultiLabelDataset(features=ds.features, labels=first, split=ds.split,
                                    meta=ds.meta), cut_data)
    cut_config = workdir / "first_label.cfg"
    cut_config.write_text(f"data.source = {cut_data}\n", encoding="utf-8")

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"mlclab {' '.join(argv[:3])} exited {code}")

    run(["gen-data", "--out", str(workdir / "gen-data")])
    digests = {"gen-data": {"dataset": _sha(workdir / "gen-data" / "dataset.txt")}}
    for loss_id in LOSS_IDS:
        out = workdir / loss_id
        argv = ["train", "--loss", loss_id, "--seed", "0", "--out", str(out)]
        if needs_single_label(loss_id):
            argv += ["--config", str(cut_config)]
        run(argv)
        digests[loss_id] = {"checkpoint": _sha(out / "checkpoint.json"),
                            "log": _sha(out / "training_log.csv")}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"blas": blas["name"], "blas_version": blas["version"], "numpy": np.__version__,
           "threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    (workdir / "digests.json").write_text(json.dumps({"env": env, "digests": digests}),
                                          encoding="utf-8")


def compute(workdir) -> dict:
    """{"env": ..., "digests": {loss id: {"checkpoint", "log"}, "gen-data":
    {"dataset"}}} of this checkout, from a subprocess pinned to one BLAS
    thread."""
    workdir = Path(workdir)
    env = dict(os.environ)
    env.update({var: THREADS for var in _THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(workdir)],
                   env=env, check=True)
    return json.loads((workdir / "digests.json").read_text(encoding="utf-8"))


def load_manifest() -> list[dict]:
    if not MANIFEST.exists():
        return []
    return json.loads(MANIFEST.read_text(encoding="utf-8"))["tables"]


def match(env: dict, tables: list[dict]):
    """(the table recorded for env, None), or (None, a note naming the
    fields in which env differs from each recorded table)."""
    notes = []
    for table in tables:
        differ = [f"{k}: {table['env'].get(k)!r} recorded, {v!r} here"
                  for k, v in env.items() if table["env"].get(k) != v]
        if not differ:
            return table, None
        notes.append("; ".join(differ))
    return None, " | ".join(notes) or "no table recorded"


def mismatches(got: dict, want: dict) -> list[str]:
    """One line per digest that differs from the recorded table."""
    lines = [f"{loss_id}: recorded, not produced" for loss_id in want if loss_id not in got]
    for loss_id, files in got.items():
        for kind, value in files.items():
            recorded = want.get(loss_id, {}).get(kind)
            if recorded != value:
                lines.append(f"{loss_id} {kind}: {recorded} recorded, {value} now")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="record the digests in DIGESTS.json")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(Path(args.child))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        result = compute(tmp)
    print("# env " + json.dumps(result["env"], sort_keys=True))
    for name, files in result["digests"].items():
        print(f"{name:<11} " + " / ".join(files.values()))
    tables = load_manifest()
    if args.write:
        tables = [t for t in tables if t["env"] != result["env"]] + [result]
        MANIFEST.write_text(json.dumps({"tables": tables}, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {MANIFEST.name}")
        return 0
    table, note = match(result["env"], tables)
    if table is None:
        print(f"no recorded table for this environment: {note}")
        return 3
    bad = mismatches(result["digests"], table["digests"])
    for line in bad:
        print("MISMATCH " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
