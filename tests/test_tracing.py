"""The benchmark's tracer patches mlclab functions by name. Installing and
removing it here makes a rename of any traced or imported name fail the
suite rather than the benchmark's trace mode."""

import importlib
from pathlib import Path

import mlclab.losses as losses
import mlclab.training as training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    original = losses.contrastive_loss
    tracer = spans.Tracer()
    try:
        tracer.install()
        # names imported with `from .losses import ...` are patched as well
        assert losses.contrastive_loss is not original
        assert training.contrastive_loss is losses.contrastive_loss
    finally:
        tracer.uninstall()
    assert losses.contrastive_loss is original
    assert training.contrastive_loss is original
