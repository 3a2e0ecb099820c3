"""The benchmark drives mlclab through its public functions and config keys.
Running one operation of each workload (the probe and the metrics, the
training step and the gradient checks) makes a changed call signature, a
removed config key or a failed gradient check fail the suite rather than
the benchmark."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["experiment", "pretrain", "eval-wide"])
def test_workload_op_succeeds(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](seed=0, workdir=tmp_path)
    workload.setup()
    workload.prepare()
    result = workload.op(0)
    assert result.failed == 0, result.failures
    workload.summary(1.0, result)
