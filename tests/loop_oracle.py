"""Loop and full-sort implementations of library helpers, kept as a test-only oracle.

``tsaseg.cluster`` now finds first neighbours in row blocks, takes the
first-neighbor components from ``scipy.sparse.csgraph``, relabels and
splits runs with NumPy, takes its k-means distances from
``scipy.spatial.distance.cdist``, groups cluster means by one stable
sort and, in FINCH's exact-k refinement, recomputes only the merged
cluster's mean; ``tsaseg.evaluate`` reads its metrics off the
contingency table. These are the dense N x N distance matrix,
per-frame loop, union-find, N x k x d difference-tensor, per-cluster
mask, all-means-per-merge and per-class mask versions they replaced, copied
unchanged apart from the scorers' input conversion and length check,
``kmeans``' input conversion, range check and return type, and
``_lloyd``'s stop on a repeated assignment (the same rule as the
library's), so tests can require identical results.

``tsaseg.triplet`` selects a whole block of anchor rows with a fixed
number of array operations, and its ``positive_set`` and
``negative_set`` are one-row calls of that code. The per-row full-row
``lexsort`` and ``np.isin`` versions it replaced are copied below
unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from tsaseg.similarity import ZeroNormRowError, cosine_similarity_matrix


def segments(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal constant runs as (start, end, label), end exclusive."""
    out = []
    start = 0
    for i in range(1, labels.size + 1):
        if i == labels.size or labels[i] != labels[start]:
            out.append((start, i, int(labels[start])))
            start = i
    return out


def _cosine_distance_matrix(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0):
        i = int(np.argwhere(norms == 0)[0][0])
        raise ZeroNormRowError(f"row {i} has zero norm; cosine distance undefined")
    unit = x / norms[:, None]
    return 1.0 - unit @ unit.T


def _first_neighbor_partition(points: np.ndarray) -> np.ndarray:
    """Connected components of the first-nearest-neighbor graph (cosine)."""
    n = points.shape[0]
    dist = _cosine_distance_matrix(points)
    # rows with equal unit vectors are at distance exactly 0, as in ``tsaseg.cluster``
    unit = points / np.linalg.norm(points, axis=1)[:, None]
    ids = np.unique(unit, axis=0, return_inverse=True)[1]
    dist[ids[:, None] == ids[None, :]] = 0.0
    np.fill_diagonal(dist, np.inf)
    nn = np.argmin(dist, axis=1)
    # union-find over edges i-j with j = nn(i), i = nn(j), or nn(i) = nn(j)
    parent = np.arange(n)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i in range(n):
        union(i, int(nn[i]))
    for i in range(n):
        for j in range(i + 1, n):
            if nn[i] == nn[j]:
                union(i, j)
    roots = np.array([find(i) for i in range(n)])
    _, labels = np.unique(roots, return_inverse=True)
    return labels


def _relabel_first_appearance(labels: np.ndarray) -> np.ndarray:
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, lab in enumerate(labels.tolist()):
        out[i] = mapping.setdefault(lab, len(mapping))
    return out


def _cluster_means(x: np.ndarray, labels: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Mean row of each cluster in [0, len(fallback)); an empty one keeps its fallback row."""
    means = fallback.copy()
    for c in range(fallback.shape[0]):
        members = x[labels == c]
        if members.size:
            means[c] = members.mean(axis=0)
    return means


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


def _mapped(pred: np.ndarray, match) -> np.ndarray:
    """Predicted labels translated to ground-truth ids; unmatched become -1."""
    out = np.full(pred.shape, -1, dtype=np.int64)
    for p_label, g_label in match.mapping.items():
        out[pred == p_label] = g_label
    return out


def mof(p: np.ndarray, g: np.ndarray, match) -> float:
    """Fraction of frames whose mapped predicted label equals the ground truth."""
    return float(np.mean(_mapped(p, match) == g))


def iou(p: np.ndarray, g: np.ndarray, match) -> float:
    """Mean per-ground-truth-class Jaccard index of frame sets."""
    inverse = {g_label: p_label for p_label, g_label in match.mapping.items()}
    scores = []
    for c in np.unique(g):
        gt_frames = g == c
        if int(c) not in inverse:
            scores.append(0.0)
            continue
        pred_frames = p == inverse[int(c)]
        union = np.logical_or(gt_frames, pred_frames).sum()
        inter = np.logical_and(gt_frames, pred_frames).sum()
        scores.append(inter / union if union else 0.0)
    return float(np.mean(scores))


def f1(p: np.ndarray, g: np.ndarray, match) -> float:
    """Mean per-ground-truth-class frame-level F1 (2PR/(P+R))."""
    inverse = {g_label: p_label for p_label, g_label in match.mapping.items()}
    scores = []
    for c in np.unique(g):
        gt_frames = g == c
        if int(c) not in inverse:
            scores.append(0.0)
            continue
        pred_frames = p == inverse[int(c)]
        inter = np.logical_and(gt_frames, pred_frames).sum()
        denom = pred_frames.sum() + gt_frames.sum()
        scores.append(2.0 * inter / denom if denom else 0.0)
    return float(np.mean(scores))


def _kmeans_pp_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    dist2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = dist2.sum()
        if total > 0:
            idx = rng.choice(n, p=dist2 / total)
        else:  # all remaining points coincide with chosen centers
            idx = rng.integers(n)
        centers[c] = x[idx]
        dist2 = np.minimum(dist2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    prev_wcss = np.inf
    labels = np.zeros(x.shape[0], dtype=np.int64)
    seen = set()
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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
        new_centers = centers.copy()
        for c in range(k):
            members = x[labels == c]
            if members.size:
                new_centers[c] = members.mean(axis=0)
        key = labels.tobytes()
        if np.array_equal(new_centers, centers) or key in seen:
            return labels, wcss
        seen.add(key)
        centers = new_centers
        prev_wcss = wcss
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, float(d2[np.arange(x.shape[0]), labels].sum())


def kmeans(
    x: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int = 300,
    restarts: int = 10,
) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` by WCSS; returns labels."""
    n = x.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    if k == n:
        return np.arange(n, dtype=np.int64)
    best_labels, best_wcss = None, np.inf
    for child in rng.spawn(restarts):
        centers = _kmeans_pp_centers(x, k, child)
        labels, wcss = _lloyd(x, centers, max_iter)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels


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
