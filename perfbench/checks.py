"""Output and property checks, computed apart from the program.

Every function returns a list of human-readable problems; an empty list
means the check passed. Scoring is re-derived from raw label arrays with
an exhaustive search over label assignments, selection is re-derived
with numpy from the affinity rows, and gradients are compared with
central finite differences of the public loss. None of the checks
compares against a stored copy of earlier output, so they stay valid
when the engine, the clusterers or the scorer are rewritten.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Exhaustive assignment search is k! work; the workloads stay below this.
MAX_K = 8
SCORE_TOL = 1e-12


def contingency_table(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """K_pred x K_gt frame counts, built with bincount."""
    pred, gt = np.asarray(pred, dtype=np.int64), np.asarray(gt, dtype=np.int64)
    k_pred, k_gt = int(pred.max()) + 1, int(gt.max()) + 1
    counts = np.bincount(pred * k_gt + gt, minlength=k_pred * k_gt)
    return counts.reshape(k_pred, k_gt)


def best_overlap(table: np.ndarray) -> int:
    """Largest total overlap of any one-to-one label assignment, by exhaustion."""
    side = max(table.shape)
    if side > MAX_K:
        raise ValueError(f"exhaustive search is capped at k = {MAX_K}, got {side}")
    square = np.zeros((side, side), dtype=np.int64)
    square[: table.shape[0], : table.shape[1]] = table
    perms = np.array(list(itertools.permutations(range(side))), dtype=np.int64)
    return int(square[np.arange(side), perms].sum(axis=1).max())


def score_problems(pred, gt, scores, mapping: dict[int, int]) -> list[str]:
    """Re-score one segmentation and compare with what ``score`` returned.

    MoF must equal the best assignment's overlap divided by N, the
    returned mapping must be one-to-one and reach that overlap, and IoU
    and F1 are recomputed from the contingency table under the mapping.
    """
    pred, gt = np.asarray(pred, dtype=np.int64), np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        return [f"prediction has {pred.size} frames, ground truth {gt.size}"]
    table = contingency_table(pred, gt)
    best = best_overlap(table)
    problems = []
    if abs(scores.mof - best / gt.size) > SCORE_TOL:
        problems.append(f"mof {scores.mof!r} != best overlap {best}/{gt.size}")
    if len(set(mapping.values())) != len(mapping):
        problems.append(f"mapping {mapping} is not one-to-one")
    in_table = all(p < table.shape[0] and g < table.shape[1] for p, g in mapping.items())
    if not in_table:
        problems.append(f"mapping {mapping} names labels outside the table")
        return problems
    mapped = sum(int(table[p, g]) for p, g in mapping.items())
    if mapped != best:
        problems.append(f"mapping reaches overlap {mapped}, best is {best}")
    inverse = {g: p for p, g in mapping.items()}
    pred_sizes, gt_sizes = table.sum(axis=1), table.sum(axis=0)
    ious, f1s = [], []
    for c in np.flatnonzero(gt_sizes):
        p = inverse.get(int(c))
        if p is None:
            ious.append(0.0)
            f1s.append(0.0)
            continue
        inter = int(table[p, c])
        ious.append(inter / (pred_sizes[p] + gt_sizes[c] - inter))
        f1s.append(2.0 * inter / (pred_sizes[p] + gt_sizes[c]))
    for name, ref in (("iou", float(np.mean(ious))), ("f1", float(np.mean(f1s)))):
        got = getattr(scores, name)
        if abs(got - ref) > SCORE_TOL:
            problems.append(f"{name} {got!r} != recomputed {ref!r}")
    return problems


def segmentation_problems(labels, n_frames: int, k: int) -> list[str]:
    """A clusterer's result covers every frame and uses exactly k labels."""
    labels = np.asarray(labels)
    if labels.shape != (n_frames,):
        return [f"segmentation has shape {labels.shape}, expected ({n_frames},)"]
    used = np.unique(labels)
    if used.size != k or used.min() < 0 or used.max() >= k:
        return [f"segmentation uses labels {used.tolist()}, expected exactly 0..{k - 1}"]
    return []


def representation_problems(z: np.ndarray, x: np.ndarray, diverged: bool) -> list[str]:
    """A learned representation is finite, shaped like its input, and training did not diverge."""
    problems = []
    if z.shape != x.shape:
        problems.append(f"learned shape {z.shape} != input shape {x.shape}")
    if not np.all(np.isfinite(z)):
        problems.append("learned representation has non-finite entries")
    if diverged:
        problems.append("training diverged")
    return problems


def selection_problems(
    rows: np.ndarray,
    pool: np.ndarray,
    triplets,
    batch_size: int,
    per_anchor: int,
    fraction: float,
) -> list[str]:
    """Recompute the selection contract for drawn anchors and triplets.

    One anchor per pooling window; each anchor gets ``per_anchor``
    triplets; each positive is among the ceil(fraction*N) largest
    off-diagonal entries of its anchor row (ties toward smaller temporal
    distance, then smaller index); each negative lies outside that set
    in the [mean, mean + std] band of the off-diagonal row, or, when the
    band holds no candidate, is the candidate closest to the mean.
    """
    n = rows.shape[0]
    pool = np.asarray(pool, dtype=np.int64)
    problems = []
    windows = math.ceil(n / batch_size)
    if pool.size != windows or np.any(pool // batch_size != np.arange(pool.size)):
        problems.append(f"pool {pool.tolist()} is not one anchor per {batch_size}-frame window")
    anchors = [t.anchor for t in triplets]
    if anchors != np.repeat(pool, per_anchor).tolist():
        problems.append("triplet anchors do not follow the pool")
    count = max(1, min(math.ceil(fraction * n), n - 2 if n > 2 else 1))
    frames = np.arange(n)
    for t in triplets:
        a = t.anchor
        others = frames[frames != a]
        row = rows[a, others]
        order = np.lexsort((others, np.abs(others - a), -row))
        positives = set(others[order[:count]].tolist())
        if t.positive not in positives:
            problems.append(f"positive {t.positive} of anchor {a} is not in its top {count}")
        mean, std = row.mean(), row.std()
        outside = np.array([j not in positives for j in others.tolist()])
        candidates, values = others[outside], row[outside]
        band = candidates[(values >= mean) & (values <= mean + std)]
        if band.size:
            if t.negative not in set(band.tolist()):
                problems.append(f"negative {t.negative} of anchor {a} is outside the band")
        else:
            key = np.lexsort((candidates, np.abs(candidates - a), np.abs(values - mean)))
            fallback = int(candidates[key[0]])
            if t.negative != fallback:
                problems.append(f"negative {t.negative} of anchor {a} is not the fallback {fallback}")
    return problems


def gradient_problems(
    model,
    x: np.ndarray,
    triplets,
    config,
    grads: dict[str, np.ndarray],
    rng: np.random.Generator,
    positions: np.ndarray | None = None,
    per_block: int = 2,
    step: float = 1e-5,
    tol: float = 1e-4,
) -> list[str]:
    """Compare sampled gradient coordinates with central finite differences.

    The oracle is ``training_loss``, the public loss path. ``a_raw``
    coordinates are drawn from the batch's frames, where its gradient
    can be non-zero; other blocks are sampled uniformly.
    """
    from tsaseg.model import training_loss

    probe = model.copy()
    frames = sorted({i for t in triplets for i in (t.anchor, t.positive, t.negative)})
    problems = []
    for name, param in probe.param_items():
        flat = param.reshape(-1)
        pool = np.array(frames) if name == "a_raw" else np.arange(flat.size)
        for i in rng.choice(pool, size=min(per_block, pool.size), replace=False).tolist():
            orig = flat[i]
            flat[i] = orig + step
            plus = training_loss(probe, x, triplets, config, positions)
            flat[i] = orig - step
            minus = training_loss(probe, x, triplets, config, positions)
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * step)
            analytic = float(grads[name].reshape(-1)[i])
            # The floor sits above the roundoff of a difference quotient.
            if abs(analytic - numeric) > tol * max(abs(analytic), abs(numeric), 1e-5):
                problems.append(f"d loss / d {name}[{i}]: analytic {analytic!r}, numeric {numeric!r}")
    return problems
