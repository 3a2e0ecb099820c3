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
import os
import stat
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
    # two comparisons: np.isin holds about 12 bytes per entry of an int8 matrix
    binary = arr == 0
    binary |= arr == 1
    if not binary.all():
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
        """(features, labels) of the split's rows. When they form one
        contiguous block, as in every generated or read dataset, these are
        read-only views of the dataset's arrays; otherwise they are copies."""
        if split_name not in SPLIT_NAMES:
            raise ConfigError(f"unknown split {split_name!r}")
        idx = np.flatnonzero(self.split == split_name)
        if idx.size == 0 or idx[-1] - idx[0] + 1 != idx.size:
            return self.features[idx], self.labels[idx]
        views = self.features[idx[0]:idx[-1] + 1], self.labels[idx[0]:idx[-1] + 1]
        for view in views:
            view.flags.writeable = False
        return views


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


def write_dataset(dataset: MultiLabelDataset, path) -> None:
    """Write the line-oriented text format: a `# meta:` comment, a header
    `n L p`, then one instance per line as `label,indices<TAB>features`,
    each feature the repr of a Python float (the shortest string that reads
    back exactly). Rows go to the file one at a time. The file keeps only
    the split counts and read_dataset rebuilds the tags as train, val, test
    blocks, so a row out of that order is a DomainError."""
    rank = np.select([dataset.split == name for name in SPLIT_NAMES], range(len(SPLIT_NAMES)))
    behind = np.nonzero(np.diff(rank) < 0)[0]
    if behind.size:
        i = int(behind[0]) + 1
        raise DomainError(f"row {i} is tagged {dataset.split[i]!r} after a "
                          f"{dataset.split[i - 1]!r} row; splits must come as "
                          f"{', '.join(SPLIT_NAMES)} blocks")
    meta = dict(dataset.meta)
    meta.setdefault("rng", RNG_ALGORITHM)
    meta["split_counts"] = {
        name: int((dataset.split == name).sum()) for name in SPLIT_NAMES
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(f"{dataset.n} {dataset.n_labels} {dataset.n_features}\n")
        for y, x in zip(dataset.labels, dataset.features):
            fh.write(",".join(map(str, np.flatnonzero(y).tolist())) + "\t"
                     + " ".join(map(repr, x.tolist())) + "\n")


def _lines(fh):
    """(line number, line) of each line of fh, split as str.splitlines would
    split the whole text, one line at a time."""
    lineno = 0
    for chunk in fh:
        for line in chunk.splitlines():
            lineno += 1
            yield lineno, line


def _read_header(lines) -> tuple[dict, int, tuple[int, int, int]]:
    """(meta, header line number, (n, L, p)) from the comments before the
    header and the header itself."""
    meta: dict = {}
    for lineno, line in lines:
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
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: header must be 'n L p', got {line!r}")
        try:
            counts = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: header fields must be integers") from exc
        if min(counts) < 1:
            raise ParseError(f"line {lineno}: header counts must be >= 1")
        return meta, lineno, counts
    raise ParseError("line 1: missing header 'n L p'")


def _convert(convert, text: str, tokens: list[str]) -> list | None:
    """[convert(tok) for tok in tokens], or None when a token does not
    convert. Python reads "_" in a number as a digit separator ("1_0" is
    10); the format has none, so a "_" anywhere in text fails too."""
    if "_" in text:
        return None
    try:
        return list(map(convert, tokens))
    except ValueError:
        return None


def _parse_row(lineno: int, line: str, n_labels: int, n_features: int):
    """(label indices, feature values) of one instance line. Each field list
    is converted in one pass; only a row that fails is scanned field by
    field for the first bad one."""
    if "\t" not in line:
        raise ParseError(f"line {lineno}: expected '<labels>\\t<features>'")
    label_part, feat_part = line.split("\t", 1)
    if label_part.strip() == "":
        raise ParseError(
            f"line {lineno}, column 1: empty label field; "
            "instances with zero labels rejected"
        )
    tokens = label_part.split(",")
    idx = _convert(int, label_part, tokens)
    if idx is None or min(idx) < 0 or max(idx) >= n_labels or len(set(idx)) < len(idx):
        seen = set()
        for col, tok in enumerate(tokens, start=1):
            where = f"line {lineno}, label field {col}"
            converted = _convert(int, tok, [tok])
            if converted is None:
                raise ParseError(f"{where}: not an integer: {tok!r}")
            j = converted[0]
            if not (0 <= j < n_labels):
                raise ParseError(f"{where}: label index {j} out of range for L={n_labels}")
            if j in seen:
                raise ParseError(f"{where}: duplicate label index {j}")
            seen.add(j)
    tokens = feat_part.split()
    if len(tokens) != n_features:
        raise ParseError(
            f"line {lineno}: expected {n_features} features, got {len(tokens)}"
        )
    values = _convert(float, feat_part, tokens)
    if values is None:
        col = next(col for col, tok in enumerate(tokens, start=1)
                   if _convert(float, tok, [tok]) is None)
        raise ParseError(
            f"line {lineno}, feature field {col}: not a number: {tokens[col - 1]!r}")
    return idx, values


def read_dataset(path) -> MultiLabelDataset:
    """Read the text format written by write_dataset, one line at a time
    into arrays sized by the header. Write-then-read is a bit-exact round
    trip. Malformed lines, among them a repeated label index, a non-finite
    feature and a number with a "_", raise ParseError with the line number
    (1-based) and, for field errors, the field position. A header whose
    instance count differs from the file's is reported before any error in
    the rows."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _lines(fh)
        meta, header_lineno, (n, n_labels, n_features) = _read_header(lines)

        st = os.fstat(fh.fileno())
        # a valid row takes 2p + 1 characters and a line break at least, so
        # a header that declares more rows than the file can hold allocates
        # only what fits; the count check below rejects it
        fit = n
        if stat.S_ISREG(st.st_mode):
            fit = min(n, (st.st_size + 1) // (2 * n_features + 2))
        labels = np.zeros((fit, n_labels), dtype=np.int8)
        features = np.empty((fit, n_features), dtype=np.float64)
        linenos = np.empty(fit, dtype=np.int64)
        rows = ((lineno, line) for lineno, line in lines
                if not line.startswith("#") and line.strip() != "")
        found = 0
        try:
            for lineno, line in rows:
                if found < n:  # rows past the declared count are only counted
                    idx, values = _parse_row(lineno, line, n_labels, n_features)
                    labels[found, idx] = 1
                    features[found] = values
                    linenos[found] = lineno
                found += 1
        except ParseError:
            found += 1 + sum(1 for _ in rows)
            if found == n:
                raise
        if found != n:
            raise ParseError(
                f"line {header_lineno}: header declares {n} instances, file has {found}")

    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise ParseError(f"line {linenos[row]}, feature field {col + 1}: "
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

