"""Config format: parse / render round trips, defaults, and error reporting."""

from dataclasses import fields

import pytest

from mlclab.config import (
    SCHEMA,
    ExperimentConfig,
    default_config,
    load_config,
    parse_config_text,
)
from mlclab.errors import ConfigError, ParseError
from mlclab.losses import LossConfig
from mlclab.training import TrainConfig


class TestParsing:
    def test_empty_text_is_fully_defaulted(self):
        cfg = parse_config_text("")
        assert cfg["loss.tau"] == 0.1
        assert cfg["train.epochs"] == SCHEMA["train.epochs"][1]
        assert cfg["run.seeds"] == (0, 1, 2, 3, 4)

    def test_overrides_and_comments(self):
        cfg = parse_config_text(
            "# an experiment\n"
            "loss.tau = 0.5\n"
            "\n"
            "run.seeds = 3,4\n"
            "loss.alpha = 2.0\n"
        )
        assert cfg["loss.tau"] == 0.5
        assert cfg["run.seeds"] == (3, 4)
        assert cfg["loss.alpha"] == 2.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("loss.temperature = 0.1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config_text("loss.tau = 0.1\ntrain.epochs = many\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="key = value"):
            parse_config_text("loss.tau 0.1\n")

    def test_unknown_loss_id_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss id"):
            parse_config_text("loss.id = focal\n")
        with pytest.raises(ConfigError, match="run.losses"):
            parse_config_text("run.losses = bce,focal\n")


class TestRenderRoundTrip:
    def test_round_trip_identity(self):
        cfg = parse_config_text(
            "loss.tau = 0.25\n"
            "data.split = 0.7,0.2,0.1\n"
            "train.weight_decay = 3e-05\n"
            "run.losses = bce,reg\n"
            "loss.alpha = 0.5\n"
        )
        text = cfg.render()
        cfg2 = parse_config_text(text)
        assert cfg.values == cfg2.values
        assert cfg2.render() == text

    def test_render_covers_every_key(self):
        text = default_config().render()
        keys = {line.split(" = ")[0] for line in text.strip().splitlines()}
        assert keys == set(SCHEMA)

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("loss.tau = 0.05\nrun.out = elsewhere\n")
        cfg = load_config(p)
        assert cfg["loss.tau"] == 0.05
        assert cfg["run.out"] == "elsewhere"


class TestAccessors:
    def test_loss_config_built_from_values(self):
        cfg = parse_config_text("loss.tau = 0.3\nloss.beta = 0.5\n")
        lc = cfg.loss_config()
        assert lc.tau == 0.3
        assert lc.beta == 0.5

    def test_train_config_seed_override(self):
        cfg = default_config()
        assert cfg.train_config().seed == cfg["train.seed"]
        assert cfg.train_config(seed=99).seed == 99

    def test_getitem_unknown(self):
        with pytest.raises(ConfigError):
            default_config()["nope"]

    def test_override_parses_strings(self):
        cfg = default_config()
        cfg.override("loss.tau", "0.7")
        assert cfg["loss.tau"] == 0.7
        cfg.override("loss.id", "bce")
        assert cfg["loss.id"] == "bce"

    def test_constructor_rejects_unknown(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(values={"whatever": 1})


class TestSectionsFromDataclasses:
    @pytest.mark.parametrize("section,cls", [("loss", LossConfig), ("train", TrainConfig)])
    def test_one_key_per_field_with_its_default(self, section, cls):
        keys = {k for k in SCHEMA if k.startswith(section + ".")} - {"loss.id"}
        assert keys == {f"{section}.{f.name}" for f in fields(cls)}
        rendered = dict(line.split(" = ") for line in default_config().render().splitlines())
        for f in fields(cls):
            key = f"{section}.{f.name}"
            parser, default = SCHEMA[key]
            assert default == f.default and type(default) is type(f.default)
            assert parser(rendered[key]) == f.default

    def test_defaults_build_default_dataclasses(self):
        cfg = default_config()
        assert cfg.loss_config() == LossConfig()
        assert cfg.train_config() == TrainConfig()

    def test_every_field_is_read(self):
        cfg = parse_config_text(
            "loss.alpha = 0.5\n"
            "loss.proto_denominator = batch+prototypes\ntrain.hidden = 7\ntrain.clip = 2.5\n"
        )
        lc, tc = cfg.loss_config(), cfg.train_config(seed=3)
        assert (lc.alpha, lc.proto_denominator) == (0.5, "batch+prototypes")
        assert (tc.hidden, tc.clip, tc.seed) == (7, 2.5, 3)

    def test_removed_epsilon_key_rejected(self):
        for line in ("loss.epsilon = 1e-12\n", "loss.use_alpha_weighting = true\n"):
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config_text(line)
