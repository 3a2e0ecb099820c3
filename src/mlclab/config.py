"""Experiment configuration: one flat text format with dotted keys.

A config file is a sequence of `key = value` lines ('#' starts a comment).
Every key has a default, so an empty file is a complete configuration. The
effective (defaulted) config can be rendered back to text; render-then-parse
is an exact round trip, which is what makes the echoed config in an output
directory re-runnable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError, ParseError
from .losses import LOSS_IDS, LossConfig
from .training import TrainConfig


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _parse_list(item_parser):
    def parse(s: str):
        s = s.strip()
        if not s:
            return tuple()
        return tuple(item_parser(tok.strip()) for tok in s.split(","))
    return parse


# section -> the dataclass whose fields are that section's keys
_SECTIONS = {"loss": LossConfig, "train": TrainConfig}


def _section_schema(section: str) -> dict:
    """'<section>.<field>' -> (parser, field default) for every field."""
    return {
        f"{section}.{f.name}": (type(f.default), f.default)
        for f in fields(_SECTIONS[section])
    }


# key -> (parser, default)
SCHEMA: dict = {
    "data.source": (str, "generate"),
    "data.n": (int, 2500),
    "data.labels": (int, 20),
    "data.features": (int, 32),
    "data.seed": (int, 7),
    "data.tail_exponent": (float, 1.2),
    "data.avg_labels": (float, 2.5),
    "data.noise": (float, 0.5),
    "data.cooccur_boost": (float, 0.35),
    "data.split": (_parse_list(float), (0.8, 0.1, 0.1)),
    "loss.id": (str, "reg"),
    **_section_schema("loss"),
    **_section_schema("train"),
    "eval.lrs": (_parse_list(float), (1.0, 0.1)),
    "eval.wds": (_parse_list(float), (1e-2, 1e-4)),
    "run.seeds": (_parse_list(int), (0, 1, 2, 3, 4)),
    "run.losses": (_parse_list(str), ("bce", "zlpr", "base", "mulsupcon", "reg-noreg", "reg")),
    "run.taus": (_parse_list(float), (0.05, 0.1, 0.5, 1.0)),
    "run.fractions": (_parse_list(float), (0.2, 0.5, 1.0)),
    "run.out": (str, "runs"),
}


@dataclass
class ExperimentConfig:
    """Fully-defaulted experiment configuration keyed by dotted names."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (_, default) in SCHEMA.items()}
        for key, val in self.values.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = val
        self.values = merged
        if self.values["loss.id"] not in LOSS_IDS:
            raise ConfigError(
                f"unknown loss id {self.values['loss.id']!r}; valid: {' | '.join(LOSS_IDS)}"
            )
        for loss in self.values["run.losses"]:
            if loss not in LOSS_IDS:
                raise ConfigError(f"unknown loss id {loss!r} in run.losses")

    def __getitem__(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def override(self, key: str, value) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        parser, _ = SCHEMA[key]
        self.values[key] = parser(value) if isinstance(value, str) else value

    def _section_config(self, section: str, **overrides):
        cls = _SECTIONS[section]
        kwargs = {f.name: self.values[f"{section}.{f.name}"] for f in fields(cls)}
        return cls(**{**kwargs, **overrides})

    def loss_config(self) -> LossConfig:
        return self._section_config("loss")

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return self._section_config("train", **({} if seed is None else {"seed": seed}))

    def render(self) -> str:
        lines = [f"{key} = {_fmt(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(val)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return ExperimentConfig(values=values)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
