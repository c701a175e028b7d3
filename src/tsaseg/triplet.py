"""Anchor downsampling and triplet selection from a combined affinity matrix.

Anchors come from stochastic pooling: the video is cut into contiguous
windows of ``batch_size`` frames and one representative is drawn per
window, by default with probability proportional to the frame's
self-affinity. Positives are the top fraction of an anchor's affinity
row; negatives sit in the one-standard-deviation band above the row mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .similarity import AffinityMatrix, as_rows


@dataclass(frozen=True)
class DownsampleSet:
    """Strictly increasing frame indices, one per pooling window."""

    indices: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("downsample set must be a non-empty 1-D index list")
        if np.any(np.diff(indices) <= 0):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class Triplet:
    anchor: int
    positive: int
    negative: int

    def __post_init__(self):
        if len({self.anchor, self.positive, self.negative}) != 3:
            raise ValueError("anchor, positive and negative must be pairwise distinct")
        if min(self.anchor, self.positive, self.negative) < 0:
            raise ValueError("triplet frame indices must be non-negative")


def stochastic_pool(
    f_ts: AffinityMatrix | np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
    mode: str = "self_affinity",
) -> DownsampleSet:
    """Pick one representative frame per contiguous window of ``batch_size``.

    ``mode='self_affinity'`` samples within each window with probability
    proportional to the row's diagonal entry; ``mode='uniform'`` samples
    uniformly. The last window may be shorter. Deterministic under rng.
    """
    return pool_anchors(np.diag(as_rows(f_ts)), batch_size, rng, mode)


def pool_anchors(
    diag: np.ndarray, batch_size: int, rng: np.random.Generator, mode: str = "self_affinity"
) -> DownsampleSet:
    """Core of :func:`stochastic_pool`: it reads only the diagonal of the matrix."""
    n = diag.shape[0]
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must lie in [1, {n}], got {batch_size}")
    if mode not in ("self_affinity", "uniform"):
        raise ValueError(f"unknown pooling mode {mode!r}")
    picks = []
    for start in range(0, n, batch_size):
        window = np.arange(start, min(start + batch_size, n))
        if mode == "self_affinity" and diag[window].sum() > 0:
            probs = diag[window] / diag[window].sum()
            picks.append(int(rng.choice(window, p=probs)))
        else:
            picks.append(int(rng.choice(window)))
    return DownsampleSet(np.array(picks, dtype=np.int64))


def positive_set(row: np.ndarray, anchor: int, fraction: float = 0.05) -> np.ndarray:
    """Indices of the ceil(fraction * N) highest-affinity frames in the anchor's row.

    Ties break toward smaller temporal distance, then smaller index. The
    anchor itself is excluded; the count is capped so at least one frame
    stays available as a negative candidate.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie in (0, 1)")
    n = row.shape[0]
    count = math.ceil(fraction * n)
    count = max(1, min(count, n - 2 if n > 2 else 1))
    others = np.delete(np.arange(n, dtype=np.int64), anchor)
    order = np.lexsort((others, np.abs(others - anchor), -row[others]))
    return np.sort(others[order[:count]])


def negative_set(row: np.ndarray, anchor: int, exclude: np.ndarray | None = None) -> np.ndarray:
    """Indices whose affinity in the anchor's row lies in [mean, mean + std].

    Statistics are taken over the row with the anchor's own entry
    excluded (the self-affinity would inflate both). ``exclude`` removes
    the positive set so positives and negatives never overlap. If the
    band is empty the single frame closest to the mean is returned.
    """
    others = np.delete(np.arange(row.shape[0], dtype=np.int64), anchor)
    off_diag = row[others]
    mean = off_diag.mean()
    std = off_diag.std()
    if exclude is not None:
        kept = ~np.isin(others, np.asarray(exclude, dtype=np.int64))
        others, off_diag = others[kept], off_diag[kept]
    if not others.size:
        raise ValueError("no negative candidates remain outside the positive set")
    band = others[(mean <= off_diag) & (off_diag <= mean + std)]
    if band.size:
        return band
    order = np.lexsort((others, np.abs(others - anchor), np.abs(off_diag - mean)))
    return others[order[:1]]


def sample_triplets(
    f_ts: AffinityMatrix | np.ndarray,
    pool: DownsampleSet,
    rng: np.random.Generator,
    per_anchor: int = 1,
    fraction: float = 0.05,
) -> list[Triplet]:
    """Draw ``per_anchor`` (positive, negative) pairs for every pooled anchor.

    Each anchor gets a child generator spawned from ``rng`` so that the
    outcome does not depend on anchor processing order.
    """
    if per_anchor < 1:
        raise ValueError("per_anchor must be a positive integer")
    children = rng.spawn(len(pool))
    return select_triplets(
        as_rows(f_ts)[pool.indices], pool.indices, children, per_anchor, fraction
    )


def select_triplets(
    anchor_rows: np.ndarray,
    anchors: np.ndarray,
    children: list[np.random.Generator],
    per_anchor: int = 1,
    fraction: float = 0.05,
) -> list[Triplet]:
    """Core of :func:`sample_triplets`: it reads only the anchors' rows.

    ``anchor_rows[k]`` is the full row of frame ``anchors[k]`` and
    ``children[k]`` its generator, so a pool may be selected in blocks.
    """
    triplets: list[Triplet] = []
    for row, anchor, child in zip(anchor_rows, anchors.tolist(), children):
        positives = positive_set(row, anchor, fraction)
        negatives = negative_set(row, anchor, positives)
        for _ in range(per_anchor):
            pos = int(child.choice(positives))
            neg = int(child.choice(negatives))
            triplets.append(Triplet(anchor, pos, neg))
    return triplets
