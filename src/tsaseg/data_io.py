"""Loading and saving of feature matrices, label sequences, and run configuration.

Two feature formats are supported:

* text: line 1 is ``"N n"``; then N lines of n space-separated floats,
  each terminated by ``\\n``. Human readable, canonical for fixtures.
* binary: magic ``b"TSAF"``, u32-LE frame count, u32-LE dimension count,
  then N*n little-endian float32 values in row-major order.

Binary storage is float32; everything in memory is float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

MAGIC = b"TSAF"


class DataFormatError(ValueError):
    """A file does not conform to one of the on-disk formats."""


@dataclass(frozen=True)
class FeatureMatrix:
    """N x n matrix of per-frame feature vectors (row i = frame i)."""

    values: np.ndarray

    def __post_init__(self):
        values = as_values(self.values)
        if values.shape[0] < 2:
            raise ValueError(f"feature matrix needs at least 2 frames, got {values.shape}")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_dims(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelSequence:
    """Per-frame integer labels in [0, K) with the token names behind them."""

    labels: np.ndarray
    names: tuple[str, ...]
    background_id: int | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        k = len(self.names)
        if k < 1:
            raise ValueError("at least one label name is required")
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError(f"labels must lie in [0, {k})")
        if self.background_id is not None and not 0 <= self.background_id < k:
            raise ValueError(f"background_id {self.background_id} outside [0, {k})")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_frames(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameters for representation learning.

    ``L`` is the expected action count (temporal window parameter), ``h``
    the semantic kernel bandwidth, and ``batch_size`` doubles as the
    downsampling window length. ``epsilon_stop`` is the loss-delta
    threshold of early stopping and ``max_epochs`` its cap; the rest of
    the schedule is the same for every dataset (``model.LR_DECAY``,
    ``WEIGHT_DECAY`` and ``PATIENCE``).
    """

    L: int = 6
    h: float = 1.0
    batch_size: int = 32
    learning_rate: float = 0.1
    epsilon_stop: float = 1e-3
    max_epochs: int = 50
    seed: int = 0
    positive_fraction: float = 0.05
    # Ablation switches: which distributions feed selection and loss, and
    # whether the loss compares similarity PDFs or raw feature distances.
    similarity_mode: str = "combined"
    loss_features: str = "pdf"
    per_anchor: int = 1
    pool_mode: str = "self_affinity"

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be a positive integer")
        for name in ("h", "learning_rate", "epsilon_stop"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0 < self.positive_fraction < 1:
            raise ValueError("positive_fraction must lie in (0, 1)")
        if self.similarity_mode not in ("combined", "semantic_only", "temporal_only"):
            raise ValueError(
                "similarity_mode must be 'combined', 'semantic_only' or 'temporal_only'"
            )
        if self.loss_features not in ("pdf", "raw"):
            raise ValueError("loss_features must be 'pdf' or 'raw'")
        if self.per_anchor < 1:
            raise ValueError("per_anchor must be a positive integer")
        if self.pool_mode not in ("self_affinity", "uniform"):
            raise ValueError("pool_mode must be 'self_affinity' or 'uniform'")


#: Published per-dataset hyperparameter presets. The INRIA protocol also
#: removes 75% of the background frames before scoring (tau handled by the
#: evaluation pipeline, not the config).
DATASET_PRESETS: dict[str, RunConfig] = {
    "breakfast": RunConfig(learning_rate=0.051, epsilon_stop=0.032, batch_size=128, L=6),
    "inria": RunConfig(learning_rate=0.403, epsilon_stop=0.892, batch_size=12, L=9),
}


def as_values(m: FeatureMatrix | np.ndarray) -> np.ndarray:
    """The float64 rows of a feature matrix or array, checked 2-D, non-empty and finite.

    Every library function that takes features reads them through here.
    A single row passes, so :func:`save_features` can write one; callers
    that need more frames check the count themselves.
    """
    if isinstance(m, FeatureMatrix):
        return m.values
    values = np.asarray(m, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ValueError(f"expected a non-empty 2-D array, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"non-finite feature value at frame {bad[0]}, dim {bad[1]}")
    return values


def save_features(m: FeatureMatrix | np.ndarray, path: str | Path, fmt: str = "text") -> None:
    """Write a feature matrix in the text or binary format."""
    values = as_values(m)
    path = Path(path)
    if fmt == "text":
        lines = [f"{values.shape[0]} {values.shape[1]}\n"]
        for row in values:
            lines.append(" ".join(repr(float(v)) for v in row) + "\n")
        path.write_text("".join(lines), encoding="ascii")
    elif fmt == "binary":
        header = MAGIC + struct.pack("<II", values.shape[0], values.shape[1])
        payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
        path.write_bytes(header + payload)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_features(path: str | Path) -> FeatureMatrix:
    """Load a feature matrix: binary if the file starts with the magic bytes, text otherwise."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"feature file not found: {path}")
    with path.open("rb") as fh:
        binary = fh.read(len(MAGIC)) == MAGIC
    values = _load_binary(path) if binary else _load_text(path)
    if values.shape[0] < 2 or values.shape[1] < 1:
        raise DataFormatError(
            f"{path}: needs at least 2 frames of at least 1 dimension, got shape {values.shape}"
        )
    return FeatureMatrix(values)


def _read_text(path: Path, encoding: str) -> str:
    try:
        return path.read_text(encoding=encoding)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start}: not valid {encoding}") from exc


def _decimal(text: str) -> str:
    """``text`` unchanged, unless it holds ``_`` or a non-ASCII character.

    int() and float() skip digit separators ('1_5' is 15) and read any
    Unicode digit ('１２' is 12); a value is plain ASCII decimal text.
    """
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    if not text.isascii():
        raise ValueError(f"non-ASCII character in {text!r}")
    return text


def _load_text(path: Path) -> np.ndarray:
    raw = _read_text(path, "ascii").split("\n")
    if raw and raw[-1] == "":
        raw = raw[:-1]
    if not raw:
        raise DataFormatError(f"{path}: empty file")
    header = raw[0].split()
    if len(header) != 2:
        raise DataFormatError(f"{path}: line 1: header must be 'N n', got {raw[0]!r}")
    try:
        n_frames, n_dims = int(_decimal(header[0])), int(_decimal(header[1]))
    except ValueError as exc:
        raise DataFormatError(f"{path}: line 1: non-integer header {raw[0]!r}") from exc
    if n_frames < 1 or n_dims < 1:
        raise DataFormatError(f"{path}: line 1: non-positive dimensions {raw[0]!r}")
    body = raw[1:]
    if len(body) != n_frames:
        raise DataFormatError(
            f"{path}: row count mismatch: header declares {n_frames} rows, file has {len(body)}"
        )
    values = np.empty((n_frames, n_dims), dtype=np.float64)
    for i, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != n_dims:
            raise DataFormatError(
                f"{path}: line {i + 2}: expected {n_dims} values, got {len(tokens)}"
            )
        try:
            _decimal(line)
            values[i] = [float(t) for t in tokens]
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {i + 2}: unparsable float") from exc
        if not np.all(np.isfinite(values[i])):
            j = int(np.argwhere(~np.isfinite(values[i]))[0][0])
            raise DataFormatError(f"{path}: line {i + 2}: non-finite value at column {j + 1}")
    return values


def _load_binary(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    if len(blob) < 12:
        raise DataFormatError(f"{path}: truncated header")
    n_frames, n_dims = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * n_frames * n_dims
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(blob) - 12} bytes, header implies {expected - 12}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=12).reshape(n_frames, n_dims)
    values = values.astype(np.float64)
    if not np.all(np.isfinite(values)):
        offset = int(np.argwhere(~np.isfinite(values.ravel()))[0][0])
        raise DataFormatError(f"{path}: non-finite value at element {offset}")
    return values


def load_labels(path: str | Path, background: str | None = None) -> LabelSequence:
    """Load one label token per line; tokens map to [0, K) in first-appearance order."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"label file not found: {path}")
    raw = _read_text(path, "utf-8").split("\n")
    if raw and raw[-1] == "":
        raw = raw[:-1]
    if not raw:
        raise DataFormatError(f"{path}: empty label file")
    ids: dict[str, int] = {}
    labels = np.empty(len(raw), dtype=np.int64)
    for i, token in enumerate(raw):
        token = token.strip()
        if not token:
            raise DataFormatError(f"{path}: line {i + 1}: blank label line")
        labels[i] = ids.setdefault(token, len(ids))
    background_id = None
    if background is not None:
        if background not in ids:
            raise DataFormatError(f"{path}: background token {background!r} never appears")
        background_id = ids[background]
    return LabelSequence(labels, tuple(ids), background_id=background_id)


def save_labels(labels, path: str | Path) -> None:
    """Write one label token per line.

    Accepts a LabelSequence (tokens are its names) or a plain integer
    array (tokens are the decimal label values).
    """
    if isinstance(labels, LabelSequence):
        tokens = [labels.names[v] for v in labels.labels.tolist()]
    else:
        tokens = [str(v) for v in np.asarray(labels, dtype=np.int64).tolist()]
    Path(path).write_text("".join(t + "\n" for t in tokens), encoding="utf-8")


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a line-oriented ``key = value`` configuration file.

    Keys must be RunConfig field names, and numeric values must parse as
    their field's type. Blank lines and ``#`` comments are ignored.
    Values are returned raw; ``make_config`` coerces them.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for i, line in enumerate(_read_text(path, "utf-8").splitlines()):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataFormatError(f"{path}: line {i + 1}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        try:
            _coerce(key, value)
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {i + 1}: {exc}") from None
        out[key] = value
    return out


def _coerce(key: str, value):
    """``value`` as the type of RunConfig field ``key``: int and float strings are parsed."""
    kinds = {f.name: str(f.type) for f in fields(RunConfig)}
    if key not in kinds:
        raise ValueError(f"unknown config key {key!r}")
    kind = kinds[key]
    if not isinstance(value, str) or kind not in ("int", "float"):
        return value
    try:
        return int(_decimal(value)) if kind == "int" else float(_decimal(value))
    except ValueError:
        article = "an" if kind == "int" else "a"
        raise ValueError(f"config key {key!r}: {value!r} is not {article} {kind}") from None


def make_config(**overrides) -> RunConfig:
    """Build a RunConfig from the defaults plus string or typed overrides."""
    return RunConfig(**{key: _coerce(key, value) for key, value in overrides.items()})


def config_lines(config: RunConfig) -> list[str]:
    """Render a config as the ``key = value`` lines accepted by load_config."""
    out = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        out.append(f"{f.name} = {value}")
    return out
