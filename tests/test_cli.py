"""Command-line behavior: every verb produces its documented artifacts,
outputs are idempotent, and exit codes follow the 0/1/2 contract. Tiny
configs keep these fast; the full-scale runs live in the acceptance suite."""

import json

import numpy as np
import pytest

from mlclab.cli import main
from mlclab.datamodel import read_dataset

TINY = (
    "data.n = 160\n"
    "data.labels = 5\n"
    "data.features = 6\n"
    "data.split = 0.7,0.15,0.15\n"
    "train.epochs = 2\n"
    "train.batch_size = 16\n"
    "train.hidden = 12\n"
    "train.proj_dim = 16\n"
    "eval.lrs = 1.0\n"
    "eval.wds = 0.0001\n"
    "run.seeds = 0,1\n"
    "run.losses = bce,reg\n"
    "run.taus = 0.1,1.0\n"
    "run.fractions = 0.5,1.0\n"
)


@pytest.fixture
def tiny_config(tmp_path):
    p = tmp_path / "config.txt"
    p.write_text(TINY)
    return p


def test_gen_data(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
    ds = read_dataset(out / "dataset.txt")
    assert ds.n == 160
    assert (out / "config_echo.txt").exists()
    first = (out / "dataset.txt").read_bytes()
    main(["gen-data", "--config", str(tiny_config), "--out", str(out)])
    assert (out / "dataset.txt").read_bytes() == first


def test_gen_data_seed_override(tiny_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["gen-data", "--config", str(tiny_config), "--out", str(out1), "--seed", "1"])
    main(["gen-data", "--config", str(tiny_config), "--out", str(out2), "--seed", "2"])
    assert (out1 / "dataset.txt").read_bytes() != (out2 / "dataset.txt").read_bytes()


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--loss", "base", "--trials", "5", "--seed", "42"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["passed"] for line in lines)


def test_gradcheck_zero_tolerance_fails(capsys):
    assert main(["gradcheck", "--loss", "base", "--trials", "2", "--seed", "42",
                 "--tol", "0"]) == 1


def test_gradcheck_unknown_loss(capsys):
    assert main(["gradcheck", "--loss", "focal", "--trials", "1", "--seed", "0"]) == 2
    assert "unknown loss id" in capsys.readouterr().err


def test_gradcheck_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["gradcheck", "--loss", "zlpr", "--trials", "3", "--seed", "1",
                 "--out", str(out)]) == 0
    lines = (out / "gradcheck_zlpr.jsonl").read_text().splitlines()
    assert len(lines) == 3


def test_train_eval_cycle(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "checkpoint.json").exists()
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,loss,lr,prr"
    assert len(log_lines) == 3  # header + 2 epochs

    data_dir = tmp_path / "data"
    main(["gen-data", "--config", str(tiny_config), "--out", str(data_dir)])
    eval_dir = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--dataset", str(data_dir / "dataset.txt"), "--out", str(eval_dir)])
    assert code == 0
    report = json.loads((eval_dir / "metrics.json").read_text())
    for key in ("micro_f1", "macro_f1", "hamming_x1000", "map"):
        assert key in report
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == report


def test_train_loss_override(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out", str(out),
                 "--loss", "mulsupcon"]) == 0
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["loss_id"] == "mulsupcon"


def test_train_idempotent(tiny_config, tmp_path):
    out = tmp_path / "run"
    main(["train", "--config", str(tiny_config), "--out", str(out)])
    first_ckpt = (out / "checkpoint.json").read_bytes()
    first_log = (out / "training_log.csv").read_bytes()
    main(["train", "--config", str(tiny_config), "--out", str(out)])
    assert (out / "checkpoint.json").read_bytes() == first_ckpt
    assert (out / "training_log.csv").read_bytes() == first_log


def test_config_echo_reproduces(tiny_config, tmp_path):
    out1 = tmp_path / "r1"
    main(["train", "--config", str(tiny_config), "--out", str(out1)])
    out2 = tmp_path / "r2"
    main(["train", "--config", str(out1 / "config_echo.txt"), "--out", str(out2)])
    assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()


def test_compare_csv(tiny_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(tiny_config), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("loss,micro_f1_mean,micro_f1_std")
    assert len(lines) == 3  # header + bce + reg
    assert lines[1].split(",")[0] == "bce"


def test_compare_single_cell(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(TINY + "run.losses = reg\nrun.seeds = 0\n")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 2


def test_sweep_tau_csv(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep-tau", "--config", str(tiny_config), "--out", str(out)]) == 0
    lines = (out / "sweep_tau.csv").read_text().splitlines()
    assert lines[0] == "tau,prr"
    assert len(lines) == 3
    for line in lines[1:]:
        tau, prr = line.split(",")
        assert 0.0 <= float(prr) <= 1.0


def test_sweep_tau_requires_contrastive(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(TINY + "loss.id = bce\n")
    assert main(["sweep-tau", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2


def test_fraction_csv(tiny_config, tmp_path):
    out = tmp_path / "frac"
    assert main(["fraction", "--config", str(tiny_config), "--out", str(out)]) == 0
    lines = (out / "fraction.csv").read_text().splitlines()
    assert lines[0] == "fraction,loss,macro_f1"
    # 2 fractions x 2 losses
    assert len(lines) == 5


def test_fraction_degenerate_single_row(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(TINY + "run.fractions = 1.0\nrun.losses = reg\nrun.seeds = 0\n")
    out = tmp_path / "frac"
    assert main(["fraction", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "fraction.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1.0,reg,")


def test_train_single_label_loss_on_multi_label_data_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("loss.id = supcon\ntrain.epochs = 1\ndata.n = 200\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("line", ["train.lr = nan", "train.clip = nan", "loss.alpha = nan",
                                  "train.lr = inf"])
def test_train_non_finite_value_exits_2(line, tmp_path, capsys, monkeypatch):
    import mlclab.training as training

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "_batch_step", no_step)
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"{line}\ntrain.epochs = 1\ndata.n = 200\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("loss.tau = not_a_number\n")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
