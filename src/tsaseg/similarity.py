"""Per-frame similarity distributions over a video.

Three row-stochastic N x N matrices are built here: a semantic
distribution from an exponential kernel over cosine similarity, a
temporal distribution from a decaying window kernel, and their per-frame
convex combination. Every row is a PDF over frames. The temporal kernel
is non-zero only within L/2 of a frame, so its distribution is built
once as a banded sparse matrix (:func:`temporal_band`) of O(N L)
entries; the dense :func:`temporal_distribution` is a view of the same
band, and the training engine gathers the rows it needs from it
(:func:`band_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .data_io import FeatureMatrix, as_values

ROW_SUM_TOL = 1e-9
KL_SMOOTHING = 1e-8
"""Mass added to every entry of a combined row before renormalizing, so KL sees full support."""
BAND_SLACK = 1e-9
"""Relative widening of the band search, so rounding in p +- L/2 drops no entry the kernel keeps."""
ROW_BLOCK = 128
"""Rows of an N-wide matrix built at once by the training epoch head, selection and FINCH."""


class ZeroNormRowError(ValueError):
    """Cosine similarity is undefined for a zero-norm feature row."""


@dataclass(frozen=True)
class AffinityMatrix:
    """N x N matrix whose rows are probability distributions over frames."""

    rows: np.ndarray
    kind: str  # "semantic" | "temporal" | "combined"

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError(f"affinity matrix must be square, got shape {rows.shape}")
        if self.kind not in ("semantic", "temporal", "combined"):
            raise ValueError(f"unknown affinity kind {self.kind!r}")
        if not np.all(np.isfinite(rows)):
            bad = np.argwhere(~np.isfinite(rows))[0]
            raise ValueError(f"non-finite affinity entry at row {bad[0]}, column {bad[1]}")
        if rows.min() < 0:
            raise ValueError("affinity entries must be non-negative")
        sums = rows.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"row {worst} sums to {sums[worst]!r}, not 1")
        if self.kind == "combined" and rows.min() <= 0:
            raise ValueError("combined distribution must be strictly positive")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class TemporalKernel:
    """Decaying temporal weight w(d) = -1 + 2 exp(-d / beta).

    beta = L / (2 ln 2) so that the weight crosses zero exactly at
    distance L/2; beyond that frames are considered unrelated.
    """

    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("window length L must be a positive integer")

    @property
    def beta(self) -> float:
        return self.L / (2.0 * math.log(2.0))


def temporal_weight(d, kernel: TemporalKernel):
    """Evaluate w(d) = -1 + 2 exp(-d/beta); vectorized over d >= 0."""
    d = np.asarray(d, dtype=np.float64)
    if not np.all(d >= 0):
        raise ValueError("temporal distance must be non-negative")
    w = -1.0 + 2.0 * np.exp(-d / kernel.beta)
    return float(w) if w.ndim == 0 else w


def _unit_rows(values: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(values, axis=1)
    if np.any(norms == 0):
        i = int(np.argwhere(norms == 0)[0][0])
        raise ZeroNormRowError(f"feature row {i} has zero norm; cosine similarity undefined")
    return values / norms[:, None]


def cosine_similarity_matrix(values: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of matrix rows."""
    unit = _unit_rows(np.asarray(values, dtype=np.float64))
    return unit @ unit.T


def semantic_distribution(m: FeatureMatrix | np.ndarray, h: float) -> AffinityMatrix:
    """Row-normalized kernel exp(-(1 - cos_sim)/h) over pairwise cosine similarity."""
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    weights = np.exp((cosine_similarity_matrix(as_values(m)) - 1.0) / h)
    rows = weights / weights.sum(axis=1, keepdims=True)
    return AffinityMatrix(rows, kind="semantic")


def frame_positions(n_frames: int, positions: np.ndarray | None = None) -> np.ndarray:
    """Validated, strictly increasing frame positions for the temporal kernel; 0..N-1 by default."""
    if n_frames < 2:
        raise ValueError("need at least 2 frames")
    if positions is None:
        return np.arange(n_frames, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (n_frames,):
        raise ValueError("positions must have one entry per frame")
    if not np.all(np.isfinite(positions)):
        i = int(np.argwhere(~np.isfinite(positions))[0][0])
        raise ValueError(f"non-finite frame position {positions[i]} at index {i}")
    steps = np.diff(positions)
    if not np.all(steps > 0):
        i = int(np.argmin(steps > 0)) + 1
        raise ValueError(
            f"frame positions must increase strictly: {positions[i]} at index {i}"
            f" follows {positions[i - 1]}"
        )
    return positions


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integer ranges [starts[i], starts[i] + counts[i]) laid end to end."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def temporal_band(positions: np.ndarray, kernel: TemporalKernel) -> csr_matrix:
    """The temporal distribution over frames at strictly increasing ``positions``, as sparse CSR.

    Row i is the clipped kernel max(0, w(|p_i - p_j|)) normalized to a
    PDF. It is evaluated only for the frames j within L/2 of frame i,
    found by binary search; the band is closed, since w(L/2) rounds to
    2.2e-16 rather than 0 for some L (7 and 14). Entries the clip zeroes
    are not stored, so the band holds O(N L) entries.
    """
    n = positions.size
    reach = kernel.L / 2.0 * (1.0 + BAND_SLACK)
    lo = np.searchsorted(positions, positions - reach, side="left")
    widths = np.searchsorted(positions, positions + reach, side="right") - lo
    rows = np.repeat(np.arange(n), widths)
    cols = _spans(lo, widths)
    weights = np.maximum(temporal_weight(np.abs(positions[rows] - positions[cols]), kernel), 0.0)
    keep = weights > 0
    rows, cols, weights = rows[keep], cols[keep], weights[keep]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    sums = np.bincount(rows, weights, minlength=n)
    return csr_matrix((weights / sums[rows], cols, indptr), shape=(n, n))


def band_rows(band: csr_matrix, index: np.ndarray) -> np.ndarray:
    """Rows ``index`` of a CSR matrix as a dense len(index) x N array, gathered with numpy."""
    starts = band.indptr[index]
    counts = band.indptr[index + 1] - starts
    entries = _spans(starts, counts)
    out = np.zeros((index.size, band.shape[1]))
    out[np.repeat(np.arange(index.size), counts), band.indices[entries]] = band.data[entries]
    return out


def temporal_distribution(
    n_frames: int, kernel: TemporalKernel, positions: np.ndarray | None = None
) -> AffinityMatrix:
    """Row-normalized clipped temporal kernel over frame distance: the dense :func:`temporal_band`.

    Negative weights (distances beyond L/2) are clipped to zero before
    normalization so that each row remains a PDF; the diagonal weight
    w(0) = 1 keeps every row normalizable.

    ``positions`` supplies the original frame indices when the rows of
    the accompanying feature matrix are a subsequence of a longer video
    (distances are then measured in original frame units).
    """
    positions = frame_positions(n_frames, positions)
    return AffinityMatrix(temporal_band(positions, kernel).toarray(), kind="temporal")


def combine(
    fs: AffinityMatrix | np.ndarray,
    ft: AffinityMatrix | np.ndarray,
    alpha: np.ndarray,
) -> AffinityMatrix:
    """Per-frame convex combination alpha*f_t + (1-alpha)*f_s, smoothed.

    KL_SMOOTHING is added to every entry (then rows renormalized) so the
    result has full support, which the KL divergence downstream requires.
    """
    fs = fs.rows if isinstance(fs, AffinityMatrix) else np.asarray(fs, dtype=np.float64)
    ft = ft.rows if isinstance(ft, AffinityMatrix) else np.asarray(ft, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if fs.shape != ft.shape:
        raise ValueError(f"shape mismatch: semantic {fs.shape} vs temporal {ft.shape}")
    if alpha.shape != (fs.shape[0],):
        raise ValueError(f"alpha must have length {fs.shape[0]}, got shape {alpha.shape}")
    if alpha.min() < 0 or alpha.max() > 1:
        raise ValueError("alpha entries must lie in [0, 1]")
    mixed = alpha[:, None] * ft + (1.0 - alpha[:, None]) * fs
    smoothed = mixed + KL_SMOOTHING
    return AffinityMatrix(smoothed / smoothed.sum(axis=1, keepdims=True), kind="combined")
