"""Synthetic single-video benchmarks with planted action structure.

Frames are Gaussian blobs around unit-norm class centers, laid out as
contiguous segments whose class sequence never repeats back-to-back.
Classes recur in non-adjacent segments whenever there are more segments
than classes, so a purely temporal model cannot trivially win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import FeatureMatrix, LabelSequence


@dataclass(frozen=True)
class SynthSpec:
    n_segments: int = 6
    frames_per_segment: tuple[int, int] = (30, 50)
    dims: int = 16
    n_action_classes: int = 4
    noise_sigma: float = 0.15
    center_separation: float = 1.0
    seed: int = 0
    with_background: bool = False

    def __post_init__(self):
        if self.n_segments < 1:
            raise ValueError("need at least one segment")
        lo, hi = self.frames_per_segment
        if lo < 1 or hi < lo:
            raise ValueError("frames_per_segment must be a (min, max) range with 1 <= min <= max")
        if self.dims < 1:
            raise ValueError("dims must be positive")
        if not 1 <= self.n_action_classes <= self.n_segments:
            raise ValueError("n_action_classes must lie in [1, n_segments]")
        for name in ("noise_sigma", "center_separation"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _draw_centers(
    n_centers: int, dims: int, separation: float, rng: np.random.Generator
) -> np.ndarray:
    """Unit-norm centers with pairwise Euclidean distance >= separation."""
    for _ in range(1000):
        raw = rng.standard_normal((n_centers, dims))
        centers = raw / np.linalg.norm(raw, axis=1)[:, None]
        gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        gaps[np.eye(n_centers, dtype=bool)] = np.inf
        if gaps.min() >= separation:
            return centers
    raise ValueError(
        f"could not place {n_centers} centers at separation {separation} in {dims} dims"
    )


def _class_sequence(spec: SynthSpec, rng: np.random.Generator) -> list[int]:
    """Segment classes: all classes appear, no two adjacent segments share one."""
    classes = list(rng.permutation(spec.n_action_classes))
    while len(classes) < spec.n_segments:
        options = [c for c in range(spec.n_action_classes) if c != classes[-1]]
        if options:
            classes.append(int(rng.choice(options)))
        else:  # single-class degenerate case
            classes.append(classes[-1])
    return [int(c) for c in classes]


def generate(spec: SynthSpec) -> tuple[FeatureMatrix, LabelSequence]:
    """Plant a segmented video; returns features plus per-frame ground truth.

    With ``with_background`` a background segment is inserted before
    every action segment and after the last one; the extra class is
    named "background" and flagged in the label sequence.
    """
    rng = np.random.default_rng(spec.seed)
    n_centers = spec.n_action_classes + (1 if spec.with_background else 0)
    centers = _draw_centers(n_centers, spec.dims, spec.center_separation, rng)
    sequence = _class_sequence(spec, rng)
    if spec.with_background:
        bg = spec.n_action_classes
        interleaved: list[int] = []
        for c in sequence:
            interleaved.extend((bg, c))
        interleaved.append(bg)
        sequence = interleaved
    lo, hi = spec.frames_per_segment
    blocks, labels = [], []
    for c in sequence:
        length = int(rng.integers(lo, hi + 1))
        noise = spec.noise_sigma * rng.standard_normal((length, spec.dims))
        blocks.append(centers[c] + noise)
        labels.extend([c] * length)
    names = tuple(f"action_{c}" for c in range(spec.n_action_classes))
    background_id = None
    if spec.with_background:
        names = names + ("background",)
        background_id = spec.n_action_classes
    features = FeatureMatrix(np.vstack(blocks))
    gt = LabelSequence(np.array(labels, dtype=np.int64), names, background_id=background_id)
    return features, gt
