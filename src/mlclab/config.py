"""Experiment configuration: one flat text format with dotted keys.

A config file is a sequence of `key = value` lines ('#' starts a comment).
Every key has a default, so an empty file is a complete configuration. The
effective (defaulted) config can be rendered back to text; render-then-parse
is an exact round trip, which is what makes the echoed config in an output
directory re-runnable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .datamodel import DataConfig
from .errors import ConfigError, ParseError
from .losses import LOSS_IDS, LossConfig
from .training import TrainConfig, check_weight_decays


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
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
_SECTIONS = {"data": DataConfig, "loss": LossConfig, "train": TrainConfig}


def _section_schema(section: str) -> dict:
    """'<section>.<field>' -> (parser, field default) for every field; a
    tuple field is a list of floats."""
    return {
        f"{section}.{f.name}": (
            _parse_list(float) if isinstance(f.default, tuple) else type(f.default), f.default)
        for f in fields(_SECTIONS[section])
    }


# key -> (parser, default)
SCHEMA: dict = {
    "data.source": (str, "generate"),
    **_section_schema("data"),
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


# key -> (test every value of the key must pass, the rule it states); a list
# key is tested item by item, and every number must also be finite
_RANGES = {
    # eval.lrs is not read by the Newton probe; it stays a valid key
    "eval.lrs": (lambda v: v > 0, "> 0"),
    "run.seeds": (lambda v: v >= 0, ">= 0"),
    "run.taus": (lambda v: v > 0, "> 0"),
    "run.fractions": (lambda v: 0 < v <= 1, "in (0, 1]"),
}


# the list keys a study iterates over: an empty one would run nothing
_NON_EMPTY = ("run.seeds", "run.losses", "run.taus", "run.fractions")


def _read(key: str, value):
    """What the key's parser makes of value's config-file text. Construction,
    override and parsing then accept the same values, and a rendered echo
    always parses back."""
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return SCHEMA[key][0](_fmt(value))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """Fully-defaulted experiment configuration keyed by dotted names.

    Construction and every override validate the whole config: the loss
    ids, the `data.*`, `loss.*` and `train.*` sections (by building their
    dataclasses), the probe grid, and the ranges of the `run.*` keys, none of
    whose lists may be empty, so a bad value fails before any data is
    generated."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (_, default) in SCHEMA.items()}
        for key, val in self.values.items():
            merged[key] = _read(key, val)
        self.values = merged
        self._validate()

    def _validate(self) -> None:
        if self.values["loss.id"] not in LOSS_IDS:
            raise ConfigError(
                f"unknown loss id {self.values['loss.id']!r}; valid: {' | '.join(LOSS_IDS)}"
            )
        for loss in self.values["run.losses"]:
            if loss not in LOSS_IDS:
                raise ConfigError(f"unknown loss id {loss!r} in run.losses")
        self.data_config()
        self.loss_config()
        self.train_config()
        check_weight_decays(self.values["eval.wds"])
        for key in _NON_EMPTY:
            if not self.values[key]:
                raise ConfigError(f"{key} must not be empty")
        for key, (ok, rule) in _RANGES.items():
            value = self.values[key]
            items = value if isinstance(value, (tuple, list)) else (value,)
            if not all(np.isfinite(x) and ok(x) for x in items):
                raise ConfigError(f"{key} must be finite and {rule}, got {_fmt(value)}")

    def __getitem__(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def override(self, key: str, value) -> None:
        value = _read(key, value)
        previous = self.values[key]
        self.values[key] = value
        try:
            self._validate()
        except ConfigError:
            self.values[key] = previous
            raise

    def _section_config(self, section: str, **overrides):
        cls = _SECTIONS[section]
        kwargs = {f.name: self.values[f"{section}.{f.name}"] for f in fields(cls)}
        return cls(**{**kwargs, **overrides})

    def data_config(self) -> DataConfig:
        return self._section_config("data")

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
