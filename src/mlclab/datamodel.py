"""Multi-label data: label matrices, batches, synthetic long-tailed dataset
generation, and the on-disk text format.

A label matrix is an (n, L) array with entries in {0, 1}. Instances with zero
labels are rejected: the contrastive losses divide by per-instance label
counts, which is undefined at 0, and failing fast beats a silent skip.

Labels are validated once, at the boundary: when a MultiLabelDataset is built
(generated or read from disk) and when a ContrastiveBatch is built through
its public constructor. Training and PRR measurement slice their batches
from an already-validated dataset and build them with
ContrastiveBatch._trusted, which skips the checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ParseError
from .numerics import _inverse_norms, as_matrix, require_finite_floats

RNG_ALGORITHM = "numpy-pcg64"

SPLIT_NAMES = ("train", "val", "test")


def validate_label_matrix(y, require_nonempty_rows: bool = False) -> np.ndarray:
    """Coerce to an (n, L) int8 binary matrix; optionally require >= 1 label per row."""
    arr = np.asarray(y)
    if arr.ndim != 2:
        raise DomainError(f"label matrix must be 2-D, got ndim={arr.ndim}")
    if not np.isin(arr, (0, 1)).all():
        raise DomainError("label matrix entries must be 0 or 1")
    arr = arr.astype(np.int8)
    if require_nonempty_rows:
        empty = np.nonzero(arr.sum(axis=1) == 0)[0]
        if empty.size:
            raise DomainError(
                f"instances with zero labels rejected (first offender: row {int(empty[0])})"
            )
    return arr


@dataclass
class ContrastiveBatch:
    """Embeddings, binary labels, and an optional prototype matrix.

    Invariants checked at construction: matching row counts, binary labels
    with at least one label per instance, embedding and prototype rows whose
    norms the cosine kernels can scale (numerics._inverse_norms), and a
    prototype per label when prototypes are present. `_trusted` skips these
    checks for callers that already hold them.
    """

    z: np.ndarray
    y: np.ndarray
    prototypes: np.ndarray | None = None

    def __post_init__(self):
        self.z = as_matrix(self.z, "embeddings")
        self.y = validate_label_matrix(self.y, require_nonempty_rows=True)
        if self.z.shape[0] != self.y.shape[0]:
            raise DomainError(
                f"embedding rows ({self.z.shape[0]}) != label rows ({self.y.shape[0]})"
            )
        _inverse_norms(self.z, "embeddings")
        if self.prototypes is not None:
            self.prototypes = as_matrix(self.prototypes, "prototypes")
            if self.prototypes.shape != (self.y.shape[1], self.z.shape[1]):
                raise DomainError(
                    f"prototypes must be ({self.y.shape[1]}, {self.z.shape[1]}), "
                    f"got {self.prototypes.shape}"
                )
            _inverse_norms(self.prototypes, "prototypes")

    @classmethod
    def _trusted(cls, z: np.ndarray, y: np.ndarray,
                 prototypes: np.ndarray | None = None) -> "ContrastiveBatch":
        """A batch built without the construction checks.

        For the training step and PRR measurement only: y is rows of a
        MultiLabelDataset's labels (binary int8, no empty row), z is a
        float64 output of the projection head with one row per label row,
        and prototypes are the model's own (L, dim) matrix. The loss engine
        still rejects zero-norm rows of z and of the prototypes.
        """
        batch = cls.__new__(cls)
        batch.z, batch.y, batch.prototypes = z, y, prototypes
        return batch

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]

    @property
    def n_labels(self) -> int:
        return self.y.shape[1]


@dataclass(eq=False)
class MultiLabelDataset:
    """Feature matrix, label matrix, per-instance split tags, and generation
    metadata sufficient to regenerate the dataset bit-exactly."""

    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray                     # array of 'train'/'val'/'test' tags
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = validate_label_matrix(self.labels, require_nonempty_rows=True)
        self.split = np.asarray(self.split, dtype=object)
        if not (self.features.shape[0] == self.labels.shape[0] == self.split.shape[0]):
            raise DomainError("features, labels, and split must agree on instance count")
        unknown = set(self.split.tolist()) - set(SPLIT_NAMES)
        if unknown:
            raise DomainError(f"unknown split tags: {sorted(unknown)}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, split_name: str) -> tuple[np.ndarray, np.ndarray]:
        if split_name not in SPLIT_NAMES:
            raise ConfigError(f"unknown split {split_name!r}")
        idx = np.nonzero(self.split == split_name)[0]
        return self.features[idx], self.labels[idx]


@dataclass
class DataConfig:
    """Parameters of the synthetic long-tailed generator, the config's
    `data.*` keys: n instances with `labels` labels and `features` features,
    split into (train, val, test) fractions. Every float must be finite.
    """

    n: int = 2500
    labels: int = 20
    features: int = 32
    seed: int = 7
    tail_exponent: float = 1.2
    avg_labels: float = 2.5
    noise: float = 0.5
    cooccur_boost: float = 0.35
    split: tuple[float, ...] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        require_finite_floats(self)
        for name, low in (("n", 1), ("labels", 1), ("features", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= low):
                raise ConfigError(f"{name} must be finite and >= {low}, got {value}")
        if self.tail_exponent <= 0:
            raise ConfigError(f"tail_exponent must be positive, got {self.tail_exponent}")
        if not (0 < self.avg_labels <= self.labels):
            raise ConfigError(f"avg_labels must be in (0, labels = {self.labels}], "
                              f"got {self.avg_labels}")
        if self.noise < 0:
            raise ConfigError(f"noise must be nonnegative, got {self.noise}")
        if not (0 <= self.cooccur_boost <= 1):
            raise ConfigError(f"cooccur_boost must be in [0, 1], got {self.cooccur_boost}")
        # a NaN fails f >= 0 and an infinity the sum
        split = self.split
        if len(split) != 3 or not all(f >= 0 for f in split) or abs(sum(split) - 1.0) > 1e-9:
            raise ConfigError(f"split must be three fractions >= 0 summing to 1, "
                              f"got {tuple(split)}")


def generate_longtail(cfg: DataConfig) -> MultiLabelDataset:
    """Synthetic long-tailed multi-label dataset, deterministic in cfg.seed.

    Label marginals follow a power law: the probability of label of rank r is
    proportional to r ** -tail_exponent, scaled so the expected label count
    per instance is avg_labels. Tail labels pull in their adjacent head label
    with probability cooccur_boost, so rare labels co-occur with common ones.
    Features are a noisy linear image of the label vector (fixed mixing
    matrix drawn from the seed), which keeps the task learnable.
    """
    n, n_labels, n_features, seed = cfg.n, cfg.labels, cfg.features, cfg.seed
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_labels + 1, dtype=np.float64)
    weights = ranks ** (-cfg.tail_exponent)
    marginals = np.minimum(cfg.avg_labels * weights / weights.sum(), 0.95)

    labels = (rng.random((n, n_labels)) < marginals[None, :]).astype(np.int8)
    if n_labels > 1 and cfg.cooccur_boost > 0:
        # tail label present -> adjacent head label joins with fixed probability
        boost = rng.random((n, n_labels - 1)) < cfg.cooccur_boost
        labels[:, :-1] |= (labels[:, 1:].astype(bool) & boost).astype(np.int8)
    empty = np.nonzero(labels.sum(axis=1) == 0)[0]
    if empty.size:
        # every instance needs at least one label; draw one from the marginal law
        fallback = rng.choice(n_labels, size=empty.size, p=marginals / marginals.sum())
        labels[empty, fallback] = 1

    mixing = rng.normal(0.0, 1.0, size=(n_labels, n_features))
    features = labels.astype(np.float64) @ mixing
    features += cfg.noise * rng.normal(0.0, 1.0, size=(n, n_features))

    n_train = int(np.floor(cfg.split[0] * n))
    n_val = int(np.floor(cfg.split[1] * n))
    split = np.array(
        ["train"] * n_train + ["val"] * n_val + ["test"] * (n - n_train - n_val),
        dtype=object,
    )

    meta = {
        "generator": "longtail-v1",
        "rng": RNG_ALGORITHM,
        "seed": int(seed),
        "n": int(n),
        "n_labels": int(n_labels),
        "n_features": int(n_features),
        "tail_exponent": float(cfg.tail_exponent),
        "avg_labels": float(cfg.avg_labels),
        "noise": float(cfg.noise),
        "cooccur_boost": float(cfg.cooccur_boost),
        "split_counts": {
            "train": int(n_train),
            "val": int(n_val),
            "test": int(n - n_train - n_val),
        },
    }
    return MultiLabelDataset(features=features, labels=labels, split=split, meta=meta)


def _format_float(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(x))


def write_dataset(dataset: MultiLabelDataset, path) -> None:
    """Write the line-oriented text format: a `# meta:` comment, a header
    `n L p`, then one instance per line as `label,indices<TAB>features`.
    The file keeps only the split counts and read_dataset rebuilds the tags
    as train, val, test blocks, so a row out of that order is a DomainError."""
    rank = np.select([dataset.split == name for name in SPLIT_NAMES], range(len(SPLIT_NAMES)))
    behind = np.nonzero(np.diff(rank) < 0)[0]
    if behind.size:
        i = int(behind[0]) + 1
        raise DomainError(f"row {i} is tagged {dataset.split[i]!r} after a "
                          f"{dataset.split[i - 1]!r} row; splits must come as "
                          f"{', '.join(SPLIT_NAMES)} blocks")
    lines = []
    meta = dict(dataset.meta)
    meta.setdefault("rng", RNG_ALGORITHM)
    meta["split_counts"] = {
        name: int((dataset.split == name).sum()) for name in SPLIT_NAMES
    }
    lines.append("# meta: " + json.dumps(meta, sort_keys=True))
    lines.append(f"{dataset.n} {dataset.n_labels} {dataset.n_features}")
    for i in range(dataset.n):
        label_idx = np.nonzero(dataset.labels[i])[0]
        label_part = ",".join(str(int(j)) for j in label_idx)
        feat_part = " ".join(_format_float(v) for v in dataset.features[i])
        lines.append(label_part + "\t" + feat_part)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path) -> MultiLabelDataset:
    """Read the text format written by write_dataset. Write-then-read is a
    bit-exact round trip. Malformed lines, among them a repeated label index
    and a non-finite feature, raise ParseError with the line number
    (1-based) and, for field errors, the field position."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    meta: dict = {}
    header = None
    header_lineno = 0
    body_start = 0
    for lineno, line in enumerate(raw_lines, start=1):
        if line.startswith("#"):
            stripped = line[1:].strip()
            if stripped.startswith("meta:"):
                try:
                    meta = json.loads(stripped[len("meta:"):])
                except json.JSONDecodeError as exc:
                    raise ParseError(f"line {lineno}: bad meta JSON ({exc})") from exc
                if not isinstance(meta, dict) or not isinstance(
                        meta.get("split_counts", {}), dict):
                    raise ParseError(f"line {lineno}: meta and its split_counts must be "
                                     "JSON objects")
            continue
        header = line
        header_lineno = lineno
        body_start = lineno
        break
    if header is None:
        raise ParseError("line 1: missing header 'n L p'")

    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"line {header_lineno}: header must be 'n L p', got {header!r}")
    try:
        n, n_labels, n_features = (int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"line {header_lineno}: header fields must be integers") from exc
    if n < 1 or n_labels < 1 or n_features < 1:
        raise ParseError(f"line {header_lineno}: header counts must be >= 1")

    body = [
        (lineno, line)
        for lineno, line in enumerate(raw_lines, start=1)
        if lineno > body_start and not line.startswith("#") and line.strip() != ""
    ]
    if len(body) != n:
        raise ParseError(
            f"line {header_lineno}: header declares {n} instances, file has {len(body)}"
        )

    labels = np.zeros((n, n_labels), dtype=np.int8)
    features = np.zeros((n, n_features), dtype=np.float64)
    for row, (lineno, line) in enumerate(body):
        if "\t" not in line:
            raise ParseError(f"line {lineno}: expected '<labels>\\t<features>'")
        label_part, feat_part = line.split("\t", 1)
        if label_part.strip() == "":
            raise ParseError(
                f"line {lineno}, column 1: empty label field; "
                "instances with zero labels rejected"
            )
        for col, tok in enumerate(label_part.split(","), start=1):
            try:
                j = int(tok)
            except ValueError as exc:
                raise ParseError(
                    f"line {lineno}, label field {col}: not an integer: {tok!r}"
                ) from exc
            if not (0 <= j < n_labels):
                raise ParseError(
                    f"line {lineno}, label field {col}: label index {j} out of range "
                    f"for L={n_labels}"
                )
            if labels[row, j]:
                raise ParseError(f"line {lineno}, label field {col}: duplicate label index {j}")
            labels[row, j] = 1
        toks = feat_part.split()
        if len(toks) != n_features:
            raise ParseError(
                f"line {lineno}: expected {n_features} features, got {len(toks)}"
            )
        for col, tok in enumerate(toks, start=1):
            try:
                features[row, col - 1] = float(tok)
            except ValueError as exc:
                raise ParseError(
                    f"line {lineno}, feature field {col}: not a number: {tok!r}"
                ) from exc
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        row, col = bad[0]
        raise ParseError(f"line {body[row][0]}, feature field {col + 1}: "
                         f"not finite: {features[row, col]}")

    counts = meta.get("split_counts")
    if counts:
        sizes = [counts.get(name, 0) for name in SPLIT_NAMES]
        for name, size in zip(SPLIT_NAMES, sizes):
            # bool is an int subclass; JSON true is not a count
            if type(size) is not int or size < 0:
                raise ParseError(f"meta split_counts[{name!r}] must be a non-negative "
                                 f"integer, got {size!r}")
        split = np.repeat(np.array(SPLIT_NAMES, dtype=object), sizes)
        if split.shape[0] != n:
            raise ParseError(
                f"meta split_counts sum to {split.shape[0]}, header declares {n}"
            )
    else:
        split = np.array(["train"] * n, dtype=object)
    return MultiLabelDataset(features=features, labels=labels, split=split, meta=meta)

