"""Frame clustering: k-means, first-neighbor agglomeration, spectral, equal split.

All clusterers return a :class:`Segmentation` of per-frame integer
labels; downstream evaluation is invariant to label identity, so labels
are only consistent within one result. The spectral path runs on a
dense symmetric normalized Laplacian whose k smallest eigenpairs come
from LAPACK through ``scipy.linalg.eigh`` (dense O(N^3) time and N^2
memory). k-means takes its squared distances from
``scipy.spatial.distance.cdist``. Cluster means are grouped by one
stable sort of the labels. FINCH finds first neighbours from the cosine
distance rows, built ROW_BLOCK rows at a time in one reused block, so it
holds no N x N matrix; its exact-k refinement makes mutual-nearest-mean
merges and, after each, recomputes only the merged cluster's mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist, pdist, squareform

from .data_io import FeatureMatrix, as_values
from .similarity import ROW_BLOCK, _unit_rows, cosine_similarity_matrix

KMEANS_RESTARTS = 10  # k-means++ seedings per call; the lowest WCSS wins
KMEANS_MAX_ITER = 300  # Lloyd iterations per seeding
AFFINITY_SMOOTHING = 1e-10  # added to every spectral affinity so no degree is 0


@dataclass(frozen=True)
class Segmentation:
    """Per-frame labels in [0, k) plus the derived maximal runs."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        if self.k < 1:
            raise ValueError("cluster count must be positive")
        if labels.min() < 0 or labels.max() >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")
        object.__setattr__(self, "labels", labels)

    @property
    def segments(self) -> list[tuple[int, int, int]]:
        """Maximal constant runs as (start, end, label), end exclusive."""
        starts = np.flatnonzero(np.diff(self.labels)) + 1
        bounds = np.concatenate(([0], starts, [self.labels.size]))
        return [(int(a), int(b), int(self.labels[a])) for a, b in zip(bounds[:-1], bounds[1:])]


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------


def _kmeans_pp_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    dist2 = cdist(x, centers[:1], "sqeuclidean")[:, 0]
    for c in range(1, k):
        total = dist2.sum()
        if total > 0:
            idx = rng.choice(n, p=dist2 / total)
        else:  # all remaining points coincide with chosen centers
            idx = rng.integers(n)
        centers[c] = x[idx]
        dist2 = np.minimum(dist2, cdist(x, centers[c : c + 1], "sqeuclidean")[:, 0])
    return centers


def _cluster_means(x: np.ndarray, labels: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Mean row of each cluster in [0, len(fallback)); an empty one keeps its fallback row.

    One stable sort groups the rows by label, so each cluster's members
    are a contiguous slice in frame order: the same rows in the same
    order as a boolean mask selects, hence the same bits from ``mean``.
    """
    k = fallback.shape[0]
    order = np.argsort(labels, kind="stable")
    grouped = x[order]
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    means = fallback.copy()
    for c in np.flatnonzero(np.diff(bounds)):
        means[c] = grouped[bounds[c] : bounds[c + 1]].mean(axis=0)
    return means


def _lloyd(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    prev_wcss = np.inf
    seen = set()
    for _ in range(KMEANS_MAX_ITER):
        d2 = cdist(x, centers, "sqeuclidean")
        labels = np.argmin(d2, axis=1)
        # refill empty clusters with the point farthest from its center;
        # a refill can empty the cluster it takes the point from
        sizes = np.bincount(labels, minlength=k)
        for c in range(k):
            if sizes[c] == 0:
                farthest = int(np.argmax(d2[np.arange(x.shape[0]), labels]))
                sizes[labels[farthest]] -= 1
                sizes[c] += 1
                labels[farthest] = c
                d2[farthest, :] = np.inf
                d2[farthest, c] = 0.0
        wcss = float(d2[np.arange(x.shape[0]), labels].sum())
        if not wcss <= prev_wcss + 1e-9 * (1.0 + abs(prev_wcss)):
            raise AssertionError(f"k-means objective increased: {prev_wcss} -> {wcss}")
        new_centers = _cluster_means(x, labels, centers)
        # The last assignment repeated gives the same means. An earlier one
        # repeated is a cycle: a cluster emptied and refilled by turns.
        key = labels.tobytes()
        if np.array_equal(new_centers, centers) or key in seen:
            return labels, wcss
        seen.add(key)
        centers = new_centers
        prev_wcss = wcss
    d2 = cdist(x, centers, "sqeuclidean")
    labels = np.argmin(d2, axis=1)
    return labels, float(d2[np.arange(x.shape[0]), labels].sum())


def kmeans(m: FeatureMatrix | np.ndarray, k: int, rng: np.random.Generator) -> Segmentation:
    """Lloyd's algorithm with k-means++ seeding, best of ``KMEANS_RESTARTS`` by WCSS."""
    x = as_values(m)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if k == 1:
        return Segmentation(np.zeros(n, dtype=np.int64), 1)
    if k == n:
        return Segmentation(np.arange(n, dtype=np.int64), n)
    best_labels, best_wcss = None, np.inf
    for child in rng.spawn(KMEANS_RESTARTS):
        centers = _kmeans_pp_centers(x, k, child)
        labels, wcss = _lloyd(x, centers)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return Segmentation(best_labels, k)


# ---------------------------------------------------------------------------
# First-integer-neighbor agglomeration
# ---------------------------------------------------------------------------


def _first_neighbors(points: np.ndarray) -> np.ndarray:
    """Each point's nearest other point by cosine distance; the first index wins a tie.

    The distance rows are built ROW_BLOCK rows at a time in one reused
    block, so no N x N array is held.
    """
    n = points.shape[0]
    unit = _unit_rows(points)
    nn = np.empty(n, dtype=np.int64)
    block = np.empty((min(ROW_BLOCK, n), n))
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        dist = np.matmul(unit[start:stop], unit.T, out=block[: stop - start])
        np.subtract(1.0, dist, out=dist)
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        nn[start:stop] = np.argmin(dist, axis=1)
    return nn


def _first_neighbor_partition(points: np.ndarray) -> np.ndarray:
    """Connected components of the first-nearest-neighbor graph (cosine)."""
    n = points.shape[0]
    graph = csr_matrix((np.ones(n), (np.arange(n), _first_neighbors(points))), shape=(n, n))
    _, labels = connected_components(graph, connection="weak")
    return labels


def _relabel_first_appearance(labels: np.ndarray) -> np.ndarray:
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _merge_to_k(x: np.ndarray, labels: np.ndarray, target_k: int) -> np.ndarray:
    """Repeatedly merge the mutually-nearest pair of cluster means (cosine).

    The means are taken once; a merge of clusters a < b drops row b and
    recomputes row a alone, so every other row keeps its bits and a
    merge costs O(N) mean work. The k×k cosine matrix is rebuilt from
    ``means`` on every merge: updating one row would round differently
    from the full product and could flip an ``argmin`` tie.
    """
    labels = _relabel_first_appearance(labels)
    k = int(labels.max()) + 1
    if k > target_k:
        means = _cluster_means(x, labels, np.zeros((k, x.shape[1])))
    while k > target_k:
        dist = 1.0 - cosine_similarity_matrix(means)
        np.fill_diagonal(dist, np.inf)
        a, b = np.unravel_index(np.argmin(dist), dist.shape)
        a, b = min(a, b), max(a, b)
        labels = np.where(labels == b, a, labels)
        labels = np.where(labels > b, labels - 1, labels)
        means = np.delete(means, b, axis=0)
        means[a] = x[labels == a].mean(axis=0)
        k -= 1
    return _relabel_first_appearance(labels)


def finch(
    m: FeatureMatrix | np.ndarray, required_k: int | None = None
) -> list[Segmentation] | Segmentation:
    """First-neighbor agglomerative clustering.

    Without ``required_k`` returns the partition hierarchy (coarsening
    levels, strictly decreasing cluster counts, down to one cluster).
    With ``required_k`` returns a single partition: the smallest level
    with at least that many clusters, merged down to exactly
    ``required_k`` by successive mutual-nearest-mean merges.
    """
    x = as_values(m)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 frames")
    if required_k is not None and not 1 <= required_k <= n:
        raise ValueError(f"required_k must lie in [1, {n}], got {required_k}")
    if required_k == n:
        return Segmentation(np.arange(n, dtype=np.int64), n)

    levels: list[np.ndarray] = []
    labels = _relabel_first_appearance(_first_neighbor_partition(x))
    levels.append(labels)
    while int(labels.max()) + 1 > 1:
        k = int(labels.max()) + 1
        means = _cluster_means(x, labels, np.zeros((k, x.shape[1])))
        if k == 2:
            meta = np.zeros(2, dtype=np.int64)
        else:
            meta = _first_neighbor_partition(means)
        # every first-neighbour component has two or more members, so a
        # level has at most k // 2 clusters and the loop ends at one
        labels = _relabel_first_appearance(meta[labels])
        levels.append(labels)

    if required_k is None:
        return [Segmentation(lv, int(lv.max()) + 1) for lv in levels]

    eligible = [lv for lv in levels if int(lv.max()) + 1 >= required_k]
    base = eligible[-1] if eligible else np.arange(n, dtype=np.int64)
    merged = _merge_to_k(x, base, required_k)
    return Segmentation(merged, required_k)


# ---------------------------------------------------------------------------
# Spectral clustering on the symmetric normalized Laplacian
# ---------------------------------------------------------------------------


def spectral(m: FeatureMatrix | np.ndarray, k: int, rng: np.random.Generator) -> Segmentation:
    """Normalized spectral clustering with a Gaussian affinity.

    The squared bandwidth is the median pairwise squared Euclidean
    distance; the embedding uses the k smallest-eigenvalue eigenvectors
    of I - D^{-1/2} A D^{-1/2}, rows normalized to unit length,
    partitioned by k-means.
    """
    x = as_values(m)
    n = x.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in [2, {n}], got {k}")
    if k == n:
        return Segmentation(np.arange(n, dtype=np.int64), n)
    condensed = pdist(x, "sqeuclidean")
    bandwidth2 = float(np.median(condensed))
    if bandwidth2 <= 0:
        bandwidth2 = 1.0  # all points coincide; affinity becomes uniform
    affinity = np.exp(-squareform(condensed) / (2.0 * bandwidth2)) + AFFINITY_SMOOTHING
    degree = affinity.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degree)
    laplacian = np.eye(n) - inv_sqrt[:, None] * affinity * inv_sqrt[None, :]
    laplacian = 0.5 * (laplacian + laplacian.T)
    _, embedding = eigh(laplacian, subset_by_index=[0, k - 1])
    row_norms = np.linalg.norm(embedding, axis=1)
    row_norms[row_norms == 0] = 1.0
    embedding = embedding / row_norms[:, None]
    return kmeans(embedding, k, rng)


def equal_split(n_frames: int, k: int) -> Segmentation:
    """k contiguous segments of near-equal length, longer segments first."""
    if not 1 <= k <= n_frames:
        raise ValueError(f"k must lie in [1, {n_frames}], got {k}")
    base, extra = divmod(n_frames, k)
    return Segmentation(np.repeat(np.arange(k), base + (np.arange(k) < extra)), k)
