"""The benchmark drives mlclab through its public functions and config keys.
Running one operation of the workloads that call the probe and the metrics
makes a changed call signature or a removed config key fail the suite
rather than the benchmark."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["experiment", "eval-wide"])
def test_workload_op_succeeds(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](seed=0, workdir=tmp_path)
    workload.setup()
    workload.prepare()
    result = workload.op(0)
    assert result.failed == 0, result.failures
    workload.summary(1.0, result)
