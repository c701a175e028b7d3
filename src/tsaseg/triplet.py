"""Anchor downsampling and triplet selection from a combined affinity matrix.

Anchors come from stochastic pooling: the video is cut into contiguous
windows of ``batch_size`` frames and one representative is drawn per
window, by default with probability proportional to the frame's
self-affinity. Positives are the top fraction of an anchor's affinity
row; negatives sit in the one-standard-deviation band above the row mean.

Selection works on a block of anchor rows at once, with a fixed number
of array operations per block: a ``partition`` for the positive cut, one
``lexsort`` of the frames tied at the cut, the band's mean and standard
deviation per row, and a masked minimum for the closest-to-mean
fallback. The tie orders are those of one full sort per row: positives
by (-value, distance to the anchor, index), the fallback by
(|value - mean|, distance to the anchor, index), NaN last in both.
:func:`positive_set` and :func:`negative_set` are one-row calls of the
same code.
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


def _positive_block(rows: np.ndarray, anchors: np.ndarray, fraction: float) -> np.ndarray:
    """Each row's positive set, sorted: one row of the returned len(anchors) x count array each.

    A row's positives are the first count of its other frames ordered by
    (-value, distance to the anchor, index), NaN read as -inf but after
    a true -inf. One ``partition`` along the rows gives each row's cut,
    the count-th largest value. Every frame above the cut is a positive,
    so only the frames tied at the cut need ordering: one ``lexsort``
    over those candidates of the whole block fills each row up to count.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie in (0, 1)")
    b, n = rows.shape
    # at least one frame stays a negative candidate
    count = max(1, min(math.ceil(fraction * n), n - 2 if n > 2 else 1))
    if n < 2:  # no frame besides the anchor
        return np.empty((b, 0), dtype=np.int64)
    at = np.arange(b)
    ranked = np.where(np.isnan(rows), -np.inf, rows)
    ranked[at, anchors] = -np.inf
    ranked.partition(n - count, axis=1)
    cut = ranked[:, n - count, None].copy()
    del ranked
    chosen = rows > cut
    chosen[at, anchors] = False
    tied = rows == cut
    low = np.flatnonzero(cut[:, 0] == -np.inf)
    tied[low] |= np.isnan(rows[low])
    tied[at, anchors] = False
    r, c = _nonzero(tied)
    del tied
    order = np.lexsort((c, np.abs(c - anchors[r]), np.isnan(rows[r, c]), r))
    r, c = r[order], c[order]
    rank = np.arange(r.size) - np.searchsorted(r, r)
    take = rank < count - chosen.sum(axis=1)[r]
    chosen[r[take], c[take]] = True
    return _nonzero(chosen)[1].reshape(b, count)


def _negative_block(rows: np.ndarray, anchors: np.ndarray, candidates: np.ndarray) -> list:
    """Each row's negative set: the candidates in [mean, mean + std] of the row, anchor excluded.

    ``candidates`` is a boolean mask of the frames a row may draw, false
    at its anchor. The mean and standard deviation are those of the
    row's off-diagonal entries, summed in the same order as numpy's
    ``mean`` and ``std`` of that 1-D copy, so they have the same bytes.
    Where the band holds no candidate, :func:`_nearest_mean` picks one
    without sorting the row.
    """
    b, n = rows.shape
    if not candidates.any(axis=1).all():
        raise ValueError("no negative candidates remain outside the positive set")
    at = np.arange(b)
    off_diagonal = np.ones(rows.shape, dtype=bool)
    off_diagonal[at, anchors] = False
    spread = rows[off_diagonal].reshape(b, n - 1)
    del off_diagonal
    mean = spread.sum(axis=1) / (n - 1)
    spread -= mean[:, None]
    spread *= spread
    top = mean + np.sqrt(spread.sum(axis=1) / (n - 1))
    del spread
    band = rows >= mean[:, None]
    band &= rows <= top[:, None]
    band &= candidates
    r, c = _nonzero(band)
    del band
    sizes = np.bincount(r, minlength=b)
    negatives = np.split(c, np.cumsum(sizes)[:-1])
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        nearest = _nearest_mean(rows[empty], anchors[empty], mean[empty], candidates[empty])
        for k, frame in zip(empty.tolist(), nearest[:, None]):
            negatives[k] = frame
    return negatives


def _nearest_mean(
    distance: np.ndarray, anchors: np.ndarray, mean: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Per row, the candidate with the smallest (|row - mean|, |index - anchor|, index).

    ``distance`` holds the rows and is overwritten with |row - mean|,
    NaN off the candidates, so a NaN-ignoring minimum finds the nearest
    distance. A NaN distance ranks after every other, as in ``lexsort``:
    a row whose candidates are all NaN falls back to (|index - anchor|,
    index).
    """
    distance -= mean[:, None]
    np.abs(distance, out=distance)
    distance.ravel()[np.flatnonzero(~candidates)] = np.nan
    nearest = np.fmin.reduce(distance, axis=1)  # NaN only where every entry is
    tied = distance == nearest[:, None]
    unranked = np.isnan(nearest)
    tied[unranked] = candidates[unranked]
    r, c = _nonzero(tied)
    # (|i - anchor|, i) in one key: the left neighbour first at each distance
    key = 2 * np.abs(c - anchors[r]) + (c > anchors[r])
    key = np.minimum.reduceat(key, np.flatnonzero(np.diff(r, prepend=-1)))
    return anchors + np.where(key % 2, 1, -1) * (key // 2)


def _nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of a 2-D mask's true entries in row-major order, as ``np.nonzero``.

    The flat search is much faster than the 2-D one on a sparse mask.
    """
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def positive_set(row: np.ndarray, anchor: int, fraction: float = 0.05) -> np.ndarray:
    """Indices of the ceil(fraction * N) highest-affinity frames in the anchor's row.

    Ties break toward smaller temporal distance, then smaller index. The
    anchor itself is excluded; the count is capped so at least one frame
    stays available as a negative candidate. A one-row call of the block
    selection :func:`select_triplets` runs.
    """
    return _positive_block(row[None], np.array([anchor]), fraction)[0]


def negative_set(row: np.ndarray, anchor: int, exclude: np.ndarray | None = None) -> np.ndarray:
    """Indices whose affinity in the anchor's row lies in [mean, mean + std].

    Statistics are taken over the row with the anchor's own entry
    excluded (the self-affinity would inflate both). ``exclude`` removes
    the positive set so positives and negatives never overlap; indices
    outside [0, N) are ignored. If the band is empty the single frame
    closest to the mean is returned. A one-row call of the block
    selection :func:`select_triplets` runs.
    """
    n = row.shape[0]
    candidates = np.ones((1, n), dtype=bool)
    candidates[0, anchor] = False
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.int64)
        candidates[0, exclude[(0 <= exclude) & (exclude < n)]] = False
    return _negative_block(row[None], np.array([anchor]), candidates)[0]


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
    The positive and negative sets of the whole block come from a fixed
    number of array operations (see :func:`_positive_block` and
    :func:`_negative_block`); only the draws run per anchor.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    positives = _positive_block(anchor_rows, anchors, fraction)
    candidates = np.ones(anchor_rows.shape, dtype=bool)
    candidates[np.arange(anchors.size)[:, None], positives] = False
    candidates[np.arange(anchors.size), anchors] = False
    negatives = _negative_block(anchor_rows, anchors, candidates)
    del candidates
    triplets: list[Triplet] = []
    for anchor, pos_k, neg_k, child in zip(anchors.tolist(), positives, negatives, children):
        for _ in range(per_anchor):
            pos = int(child.choice(pos_k))
            neg = int(child.choice(neg_k))
            triplets.append(Triplet(anchor, pos, neg))
    return triplets
