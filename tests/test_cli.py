"""Command-line behavior: every verb produces its documented artifacts,
outputs are idempotent, and exit codes follow the 0/1/2 contract. Tiny
configs keep these fast; the full-scale runs live in the acceptance suite."""

import json

import numpy as np
import pytest

from mlclab.cli import main
from mlclab.datamodel import read_dataset
from mlclab.losses import LossConfig
from mlclab.training import TrainConfig, _init_model, save_checkpoint

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


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "c.json", "--dataset", "d.txt", "--seed", "1"],
    ["compare", "--seed", "1"],
    ["fraction", "--seed", "1"],
    ["sweep-tau", "--seed", "1"],
    ["gen-data", "--loss", "bce"],
])
def test_flag_the_verb_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--loss", "base", "--trials", "5", "--seed", "42"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["passed"] for line in lines)


def test_gradcheck_zero_tolerance_fails(capsys):
    # the smallest positive tol: only exact agreement passes (0 itself exits 2)
    assert main(["gradcheck", "--loss", "base", "--trials", "2", "--seed", "42",
                 "--tol", "5e-324"]) == 1


def test_gradcheck_unknown_loss(capsys):
    assert main(["gradcheck", "--loss", "focal", "--trials", "1", "--seed", "0"]) == 2
    assert "unknown loss id" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--trials", "0", "trials must be at least 1"),
    ("--trials", "-1", "trials must be at least 1"),
    ("--seed", "-1", "seed must be nonnegative"),
    ("--tol", "nan", "tol must be finite and positive, got nan"),
    ("--tol", "inf", "tol must be finite and positive, got inf"),
    ("--tol", "-1", "tol must be finite and positive, got -1.0"),
    ("--tol", "0", "tol must be finite and positive, got 0.0"),
])
def test_gradcheck_rejects_bad_count_or_seed(capsys, flag, value, message):
    args = {"--trials": "1", "--seed": "0", flag: value}
    assert main(["gradcheck", "--loss", "reg", *(x for kv in args.items() for x in kv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


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


def test_train_one_row_train_split_exits_1_without_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("data.n = 5\ndata.split = 0.2,0.4,0.4\ntrain.epochs = 1\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "at least 2 train rows, got 1" in capsys.readouterr().err
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


def test_train_one_row_train_split_exits_1_without_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("data.n = 5\ndata.split = 0.2,0.4,0.4\ntrain.epochs = 1\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "at least 2 train rows, got 1" in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("line", ["train.lr = nan", "loss.tau = -0.1", "eval.wds = -1",
                                  "eval.wds = nan"])
def test_gen_data_invalid_value_exits_2_before_output(line, tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"{line}\ndata.n = 200\n")
    out = tmp_path / "o"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "data.n = 0", "data.labels = 0", "data.features = 0", "data.seed = -1",
    "data.tail_exponent = 0", "data.tail_exponent = inf", "data.avg_labels = 0",
    "data.avg_labels = 21", "data.avg_labels = nan", "data.noise = -0.1", "data.noise = nan",
    "data.cooccur_boost = nan", "data.cooccur_boost = 1.5", "data.split = 0.5,0.5",
    "data.split = 0.8,0.3,-0.1", "data.split = 0.8,0.1,nan", "run.taus = nan",
    "run.taus = 0", "run.fractions = nan", "run.fractions = 0", "run.fractions = 1.5",
    "run.seeds = -1", "train.seed = -1", "run.seeds =", "run.losses =", "run.taus =",
    "run.fractions =",
])
def test_gen_data_bad_data_or_run_value_exits_2_before_output(line, tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"data.n = 200\n{line}\n")
    out = tmp_path / "o"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_eval_checkpoint_params_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    save_checkpoint(_init_model("reg", 6, 5, LossConfig(), TrainConfig(), np.random.default_rng(0)),
                    path)
    doc = json.loads(path.read_text())
    doc["params"] = []
    path.write_text(json.dumps(doc))
    assert main(["eval", "--checkpoint", str(path), "--dataset", str(tmp_path / "d.txt")]) == 2
    assert "config error: malformed checkpoint" in capsys.readouterr().err


def test_eval_details_record_probe_cells(tiny_config, tmp_path):
    run, data, ev = tmp_path / "run", tmp_path / "data", tmp_path / "eval"
    main(["train", "--config", str(tiny_config), "--out", str(run)])
    main(["gen-data", "--config", str(tiny_config), "--out", str(data)])
    args = ["eval", "--checkpoint", str(run / "checkpoint.json"),
            "--dataset", str(data / "dataset.txt"), "--config", str(tiny_config)]
    assert main(args + ["--out", str(ev)]) == 0
    details = json.loads((ev / "eval_details.json").read_text())
    assert set(details) == {"chosen_wd", "val_micro_f1", "degenerate_labels", "probe_cells"}
    (cell,) = details["probe_cells"]
    assert cell["wd"] == details["chosen_wd"] == 1e-4
    assert cell["converged"] and cell["grad_max"] < 1e-8
    assert cell["val_micro_f1"] == details["val_micro_f1"]
    # deterministic values only: a rerun writes the same bytes
    assert main(args + ["--out", str(tmp_path / "eval2")]) == 0
    assert (tmp_path / "eval2" / "eval_details.json").read_bytes() == \
        (ev / "eval_details.json").read_bytes()


@pytest.mark.parametrize("line, what", [("data.features = 7", "trained on 6 features, the dataset has 7"),
                                        ("data.labels = 6", "trained on 5 labels, the dataset has 6")])
def test_eval_shape_mismatch_exits_2(line, what, tiny_config, tmp_path, capsys):
    run, data, ev = tmp_path / "run", tmp_path / "data", tmp_path / "eval"
    assert main(["train", "--config", str(tiny_config), "--out", str(run)]) == 0
    other = tmp_path / "other.txt"
    other.write_text(TINY + line + "\n")
    assert main(["gen-data", "--config", str(other), "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--dataset", str(data / "dataset.txt"), "--out", str(ev)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and what in err
    assert not ev.exists()


def _cut_w2(params):
    w2 = np.asarray(params["w2"]["data"]).reshape(params["w2"]["shape"])[:, :-1]
    params["w2"] = {"shape": list(w2.shape), "data": w2.ravel().tolist()}


def _nan_in_w1(params):
    params["w1"]["data"][3] = float("nan")


@pytest.mark.parametrize("text, what", [
    ("{not json", "not a checkpoint file"),
    ('{"format": "mlclab-checkpoint", "version": 4}', "KeyError: 'params'"),
    pytest.param(_cut_w2, "w2 has shape (4, 3), expected (4, 4)", id="w2-cut"),
    pytest.param(_nan_in_w1, "w1 has non-finite entries", id="w1-nan"),
])
def test_eval_bad_checkpoint_exits_2(text, what, tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.json"
    if callable(text):
        # a real checkpoint of a small model, with one parameter spoiled
        cfg = TrainConfig(hidden=4, proj_dim=4)
        save_checkpoint(_init_model("reg", 6, 5, LossConfig(), cfg, np.random.default_rng(0)),
                        ckpt)
        doc = json.loads(ckpt.read_text())
        text(doc["params"])
        text = json.dumps(doc)
    ckpt.write_text(text)
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(tmp_path / "d.txt"),
                 "--out", str(tmp_path / "eval")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("config error:") and what in line and str(ckpt) in line


@pytest.mark.parametrize("args", [["gen-data", "--config"], ["train", "--config"],
                                  ["eval", "--dataset", "d.txt", "--checkpoint"]])
@pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "not-utf8"])
def test_missing_or_unreadable_input_file_exits_2(args, content, tmp_path, capsys):
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert main([*args, str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("config error:") and (content is not None or str(path) in line)
    assert not out.exists()


def test_train_seed_is_echoed_and_reruns_from_the_echo(tiny_config, tmp_path):
    seeded, rerun, default = tmp_path / "s3", tmp_path / "rerun", tmp_path / "s0"
    assert main(["train", "--config", str(tiny_config), "--out", str(seeded), "--seed", "3"]) == 0
    assert "train.seed = 3\n" in (seeded / "config_echo.txt").read_text()
    assert main(["train", "--config", str(seeded / "config_echo.txt"), "--out", str(rerun)]) == 0
    assert main(["train", "--config", str(tiny_config), "--out", str(default)]) == 0
    first = (seeded / "checkpoint.json").read_bytes()
    assert (rerun / "checkpoint.json").read_bytes() == first
    assert (default / "checkpoint.json").read_bytes() != first
