"""Golden digests: `mlclab train` writes the checkpoint and log bytes that
DIGESTS.json records for every loss id (default config, seed 0, one BLAS
thread), and `mlclab gen-data` the recorded dataset.txt bytes. The bytes
depend on the BLAS library, numpy and the thread count; in an environment
with no recorded table the test skips and names the fields that differ."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_train_bytes_match_recorded_digests(tmp_path):
    tool = _tool()
    result = tool.compute(tmp_path)
    table, note = tool.match(result["env"], tool.load_manifest())
    if table is None:
        pytest.skip(f"no digests recorded for this environment: {note}")
    assert tool.mismatches(result["digests"], table["digests"]) == []


def test_match_names_the_differing_fields():
    tool = _tool()
    env = {"blas": "b", "blas_version": "1", "numpy": "2", "threads": 1}
    tables = [{"env": dict(env, numpy="3", threads=2), "digests": {}}]
    table, note = tool.match(env, tables)
    assert table is None
    assert "numpy: '3' recorded, '2' here" in note and "threads: 2 recorded, 1 here" in note
    assert tool.match(env, tables + [{"env": env, "digests": {"x": 1}}])[0]["digests"] == {"x": 1}
