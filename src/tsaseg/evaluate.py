"""Video-level scoring: Hungarian label matching, MoF, IoU, F1, background removal.

Predicted cluster ids carry no meaning, so scoring first computes a
one-to-one mapping between predicted and ground-truth labels that
maximizes total frame overlap, then reads all three metrics off the
contingency table at the matched pairs. IoU and F1 are frame-level, macro-averaged over the
ground-truth classes; ground-truth classes left unmatched contribute 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cluster import Segmentation
from .data_io import LabelSequence


@dataclass(frozen=True)
class MatchResult:
    """Partial injection predicted-label -> ground-truth label, plus the overlap table."""

    mapping: dict[int, int]
    overlap: np.ndarray


@dataclass(frozen=True)
class Scores:
    mof: float
    iou: float
    f1: float

    def __post_init__(self):
        for name in ("mof", "iou", "f1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")

    def as_dict(self) -> dict[str, float]:
        return {"mof": self.mof, "iou": self.iou, "f1": self.f1}


def _labels(x) -> np.ndarray:
    if isinstance(x, Segmentation):
        return x.labels
    if isinstance(x, LabelSequence):
        return x.labels
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("labels must be 1-D")
    return arr


def contingency(pred, gt) -> np.ndarray:
    """K_pred x K_gt table of frame counts."""
    p, g = _labels(pred), _labels(gt)
    if p.shape != g.shape:
        raise ValueError(f"length mismatch: {p.size} predicted vs {g.size} ground-truth frames")
    if p.min() < 0 or g.min() < 0:
        raise ValueError("labels must be non-negative")
    table = np.zeros((int(p.max()) + 1, int(g.max()) + 1), dtype=np.int64)
    np.add.at(table, (p, g), 1)
    return table


def hungarian(overlap: np.ndarray) -> MatchResult:
    """Overlap-maximizing one-to-one mapping between label sets.

    The rectangular table is zero-padded to square so the assignment
    covers min(K_pred, K_gt) real pairs.
    """
    overlap = np.asarray(overlap)
    if overlap.ndim != 2 or overlap.size == 0:
        raise ValueError("overlap table must be a non-empty 2-D matrix")
    if overlap.min() < 0:
        raise ValueError("overlap counts must be non-negative")
    k_pred, k_gt = overlap.shape
    side = max(k_pred, k_gt)
    padded = np.zeros((side, side), dtype=np.float64)
    padded[:k_pred, :k_gt] = overlap
    rows, cols = linear_sum_assignment(padded, maximize=True)
    mapping = {int(r): int(c) for r, c in zip(rows, cols) if r < k_pred and c < k_gt}
    return MatchResult(mapping=mapping, overlap=overlap.astype(np.int64))


def _scores(table: np.ndarray, match: MatchResult) -> Scores:
    """MoF, IoU and F1 read off the contingency table at the matched pairs.

    Per ground-truth class present, in class order: its frames predicted
    as its matched label, the frames of that label and its own frames. A
    class that is unmatched, or matched to a label absent from the
    prediction, overlaps a label of 0 frames.
    """
    empty = table.shape[0]  # an appended all-zero row stands for "no frames"
    table = np.vstack([table, np.zeros_like(table[:1])])
    pred_size, gt_size = table.sum(axis=1), table.sum(axis=0)
    classes = np.flatnonzero(gt_size)
    inverse = {g_label: p_label for p_label, g_label in match.mapping.items()}
    rows = np.array([inverse.get(int(c), empty) for c in classes])
    rows[(rows < 0) | (rows > empty)] = empty
    inter, pred_size, gt_size = table[rows, classes], pred_size[rows], gt_size[classes]
    return Scores(
        mof=float(inter.sum() / gt_size.sum()),
        iou=float(np.mean(inter / (pred_size + gt_size - inter))),
        f1=float(np.mean(2.0 * inter / (pred_size + gt_size))),
    )


def mof(pred, gt, match: MatchResult) -> float:
    """Fraction of frames whose mapped predicted label equals the ground truth."""
    return _scores(contingency(pred, gt), match).mof


def iou(pred, gt, match: MatchResult) -> float:
    """Mean per-ground-truth-class Jaccard index of frame sets."""
    return _scores(contingency(pred, gt), match).iou


def f1(pred, gt, match: MatchResult) -> float:
    """Mean per-ground-truth-class frame-level F1 (2PR/(P+R))."""
    return _scores(contingency(pred, gt), match).f1


def score(pred, gt) -> tuple[Scores, MatchResult]:
    """Hungarian matching plus all three metrics, off one contingency table."""
    table = contingency(pred, gt)
    match = hungarian(table)
    return _scores(table, match), match


def scores_json(
    scores: Scores, n_frames: int, k_pred: int, k_gt: int
) -> str:
    """Canonical JSON emitted by the command-line evaluator."""
    payload = {
        "mof": scores.mof,
        "iou": scores.iou,
        "f1": scores.f1,
        "n_frames": n_frames,
        "k_pred": k_pred,
        "k_gt": k_gt,
    }
    return json.dumps(payload)


def remove_background(
    values,
    gt: LabelSequence,
    tau: float = 0.75,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, LabelSequence, np.ndarray]:
    """Drop floor(tau * n_background) background frames, uniformly at random.

    Returns (filtered values, filtered ground truth, kept indices). The
    kept-index list lets callers filter any parallel per-frame array the
    same way. Note: temporal similarity must be computed from the
    *original* frame indices (pass the kept indices as ``positions``).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if gt.background_id is None:
        raise ValueError("ground truth has no background class set")
    rng = rng or np.random.default_rng()
    arr = np.asarray(values)
    if arr.shape[0] != gt.n_frames:
        raise ValueError("values and ground truth must have matching frame counts")
    bg = np.flatnonzero(gt.labels == gt.background_id)
    n_drop = int(np.floor(tau * bg.size))
    dropped = rng.choice(bg, size=n_drop, replace=False) if n_drop else np.array([], dtype=int)
    keep = np.setdiff1d(np.arange(gt.n_frames), dropped)
    filtered_gt = LabelSequence(gt.labels[keep], gt.names, background_id=gt.background_id)
    return arr[keep], filtered_gt, keep
