"""Frame clustering: k-means, first-neighbor agglomeration, spectral, equal split.

All clusterers return a :class:`Segmentation` of per-frame integer
labels; downstream evaluation is invariant to label identity, so labels
are only consistent within one result. The spectral path runs on a
dense symmetric normalized Laplacian whose k smallest eigenpairs come
from LAPACK through ``scipy.linalg.eigh`` (dense O(N^3) time and N^2
memory). k-means takes its squared distances from
``scipy.spatial.distance.cdist``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist, pdist, squareform

from .data_io import FeatureMatrix, as_values
from .similarity import cosine_similarity_matrix

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
    """Mean row of each cluster in [0, len(fallback)); an empty one keeps its fallback row."""
    means = fallback.copy()
    for c in range(fallback.shape[0]):
        members = x[labels == c]
        if members.size:
            means[c] = members.mean(axis=0)
    return means


def _lloyd(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    prev_wcss = np.inf
    for _ in range(KMEANS_MAX_ITER):
        d2 = cdist(x, centers, "sqeuclidean")
        labels = np.argmin(d2, axis=1)
        # refill empty clusters with the point farthest from its center
        for c in range(k):
            if not np.any(labels == c):
                farthest = int(np.argmax(d2[np.arange(x.shape[0]), labels]))
                labels[farthest] = c
                d2[farthest, :] = np.inf
                d2[farthest, c] = 0.0
        wcss = float(d2[np.arange(x.shape[0]), labels].sum())
        if not wcss <= prev_wcss + 1e-9 * (1.0 + abs(prev_wcss)):
            raise AssertionError(f"k-means objective increased: {prev_wcss} -> {wcss}")
        new_centers = _cluster_means(x, labels, centers)
        if np.array_equal(new_centers, centers):
            return labels, wcss
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


def _first_neighbor_partition(points: np.ndarray) -> np.ndarray:
    """Connected components of the first-nearest-neighbor graph (cosine)."""
    n = points.shape[0]
    dist = 1.0 - cosine_similarity_matrix(points)
    np.fill_diagonal(dist, np.inf)
    nn = np.argmin(dist, axis=1)
    graph = csr_matrix((np.ones(n), (np.arange(n), nn)), shape=(n, n))
    _, labels = connected_components(graph, connection="weak")
    return labels


def _relabel_first_appearance(labels: np.ndarray) -> np.ndarray:
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _merge_to_k(x: np.ndarray, labels: np.ndarray, target_k: int) -> np.ndarray:
    """Repeatedly merge the mutually-nearest pair of cluster means (cosine)."""
    labels = _relabel_first_appearance(labels)
    k = int(labels.max()) + 1
    while k > target_k:
        means = _cluster_means(x, labels, np.zeros((k, x.shape[1])))
        dist = 1.0 - cosine_similarity_matrix(means)
        np.fill_diagonal(dist, np.inf)
        a, b = np.unravel_index(np.argmin(dist), dist.shape)
        a, b = min(a, b), max(a, b)
        labels = np.where(labels == b, a, labels)
        labels = np.where(labels > b, labels - 1, labels)
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
        new_labels = _relabel_first_appearance(meta[labels])
        if int(new_labels.max()) + 1 >= k:
            break  # no further coarsening possible
        labels = new_labels
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
