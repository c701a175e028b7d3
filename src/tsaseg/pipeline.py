"""End-to-end runs: one video or a directory of videos under a dataset preset.

The dataset protocol mirrors the published evaluation: per video, learn
the representation with the preset hyperparameters, cluster with the
ground-truth class count, match labels at video level, and average
MoF/IoU/F1 over videos. For background-heavy material (the INRIA-style
protocol) a ratio ``tau`` of background frames is removed before
training and scoring, with temporal distances still measured on the
original frame indices.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .cluster import equal_split, finch, kmeans, spectral
from .data_io import (
    DATASET_PRESETS,
    FeatureMatrix,
    LabelSequence,
    RunConfig,
    as_values,
    load_features,
    load_labels,
)
from .evaluate import Scores, remove_background, score
from .model import train


def segment_features(
    m: FeatureMatrix | np.ndarray, method: str, k: int, rng: np.random.Generator
):
    """Dispatch to a clusterer by name: kmeans, finch, spectral, or equal."""
    values = as_values(m)
    if method == "kmeans":
        return kmeans(values, k, rng)
    if method == "finch":
        return finch(values, required_k=k)
    if method == "spectral":
        return spectral(values, k, rng)
    if method == "equal":
        return equal_split(values.shape[0], k)
    raise ValueError(f"unknown segmentation method {method!r}")


def run_video(
    features: FeatureMatrix,
    gt: LabelSequence,
    config: RunConfig,
    method: str = "kmeans",
    tau: float = 0.0,
    eval_seed: int = 0,
) -> tuple[Scores, dict]:
    """Train, segment, and score one video.

    ``tau > 0`` removes that ratio of background frames (which requires
    ``gt.background_id``) before training; the temporal kernel still
    sees original frame indices. The batch size is clamped to the frame
    count so dataset presets apply to short videos.
    """
    if features.n_frames != gt.n_frames:
        raise ValueError(
            f"feature/label length mismatch: {features.n_frames} vs {gt.n_frames}"
        )
    rng = np.random.default_rng(eval_seed)
    positions = None
    values, gt_eval = features.values, gt
    if tau > 0.0:
        values, gt_eval, kept = remove_background(features.values, gt, tau, rng)
        positions = kept.astype(np.float64)
    config = replace(config, batch_size=min(config.batch_size, values.shape[0]))
    model, z, state = train(values, config, positions=positions)
    k = int(np.unique(gt_eval.labels).size)
    seg = segment_features(z, method, k, np.random.default_rng(eval_seed))
    scores, _ = score(seg, gt_eval)
    info = {
        "n_frames": int(values.shape[0]),
        "k": k,
        "epochs": state.epoch,
        "diverged": state.diverged,
        "final_loss": state.loss_history[-1] if state.loss_history else None,
    }
    return scores, info


def run_dataset(
    features_dir: str | Path,
    labels_dir: str | Path,
    preset: str | RunConfig,
    method: str = "kmeans",
    tau: float = 0.0,
    background: str | None = None,
    seed: int = 0,
) -> dict:
    """Run the per-video protocol over a directory pair and average scores.

    Videos are paired by file stem: ``<stem>`` in ``features_dir`` (text
    or binary feature format) with ``<stem>.txt`` labels. A stem with
    more than one feature file, or a label file with no feature file, is
    rejected with a ValueError naming every offender. Returns a dict
    with per-video scores and the dataset means.
    """
    config = DATASET_PRESETS[preset] if isinstance(preset, str) else preset
    features_dir, labels_dir = Path(features_dir), Path(labels_dir)
    videos = _pair_by_stem(features_dir, labels_dir)
    per_video = {}
    for i, (stem, feature_path) in enumerate(videos.items()):
        features = load_features(feature_path)
        gt = load_labels(labels_dir / f"{stem}.txt", background=background)
        video_config = replace(config, seed=seed + i)
        scores, info = run_video(
            features, gt, video_config, method=method, tau=tau, eval_seed=seed + i
        )
        per_video[stem] = {**scores.as_dict(), **info}
    means = {
        metric: float(np.mean([v[metric] for v in per_video.values()]))
        for metric in ("mof", "iou", "f1")
    }
    return {"videos": per_video, "mean": means, "n_videos": len(per_video)}


def _pair_by_stem(features_dir: Path, labels_dir: Path) -> dict[str, Path]:
    """Map each stem to its one feature file, in stem order."""
    by_stem: dict[str, list[Path]] = {}
    for path in sorted(features_dir.iterdir()):
        if path.is_file():
            by_stem.setdefault(path.stem, []).append(path)
    if not by_stem:
        raise ValueError(f"no feature files in {features_dir}")
    problems = [
        f"stem {stem!r} has {len(paths)} feature files ({', '.join(p.name for p in paths)})"
        for stem, paths in by_stem.items()
        if len(paths) > 1
    ]
    problems += [
        f"label file {path.name!r} has no feature file"
        for path in sorted(labels_dir.glob("*.txt"))
        if path.stem not in by_stem
    ]
    if problems:
        raise ValueError("cannot pair videos by stem: " + "; ".join(problems))
    return {stem: paths[0] for stem, paths in sorted(by_stem.items())}
