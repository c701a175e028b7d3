import numpy as np
import pytest

from tsaseg import pipeline
from tsaseg.data_io import DATASET_PRESETS, RunConfig, load_features, save_features, save_labels
from tsaseg.pipeline import run_dataset, run_video, segment_features
from tsaseg.synth import SynthSpec, generate


def write_mini_dataset(root, n_videos=3, with_background=False, fmt="binary"):
    features_dir = root / "features"
    labels_dir = root / "labels"
    features_dir.mkdir(parents=True)
    labels_dir.mkdir(parents=True)
    for i in range(n_videos):
        feats, gt = generate(
            SynthSpec(
                n_segments=4,
                frames_per_segment=(10, 14),
                dims=8,
                n_action_classes=3,
                noise_sigma=0.1,
                seed=100 + i,
                with_background=with_background,
            )
        )
        ext = "bin" if fmt == "binary" else "txt"
        save_features(feats, features_dir / f"video_{i}.{ext}", fmt)
        save_labels(gt, labels_dir / f"video_{i}.txt")
    return features_dir, labels_dir


class TestRunVideo:
    def test_scores_and_info(self):
        feats, gt = generate(SynthSpec(n_segments=4, frames_per_segment=(12, 16),
                                       dims=8, n_action_classes=3, noise_sigma=0.1, seed=5))
        scores, info = run_video(feats, gt, RunConfig(batch_size=16, max_epochs=4))
        assert 0.0 <= scores.mof <= 1.0
        assert info["k"] == 3
        assert info["epochs"] >= 1

    def test_batch_size_clamped_to_video(self):
        feats, gt = generate(SynthSpec(n_segments=3, frames_per_segment=(8, 10),
                                       dims=6, n_action_classes=3, noise_sigma=0.05, seed=2))
        # breakfast preset batch (128) exceeds this video's frame count
        scores, info = run_video(feats, gt, DATASET_PRESETS["breakfast"])
        assert info["n_frames"] < 128
        assert 0.0 <= scores.mof <= 1.0

    def test_background_protocol(self):
        feats, gt = generate(SynthSpec(n_segments=3, frames_per_segment=(10, 12),
                                       dims=8, n_action_classes=3, noise_sigma=0.1,
                                       seed=8, with_background=True))
        cfg = RunConfig(batch_size=12, max_epochs=4)
        scores, info = run_video(feats, gt, cfg, tau=0.75, eval_seed=1)
        n_bg = int(np.sum(gt.labels == gt.background_id))
        assert info["n_frames"] == gt.n_frames - int(np.floor(0.75 * n_bg))

    @pytest.mark.parametrize("tau", [-0.5, float("nan")])
    def test_tau_outside_unit_interval_rejected(self, tau):
        feats, gt = generate(SynthSpec(n_segments=3, frames_per_segment=(10, 12),
                                       dims=8, n_action_classes=3, seed=8,
                                       with_background=True))
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
            run_video(feats, gt, RunConfig(batch_size=12, max_epochs=1), tau=tau)

    def test_length_mismatch_rejected(self):
        feats, gt = generate(SynthSpec(seed=1))
        bad = generate(SynthSpec(n_segments=2, frames_per_segment=(3, 4),
                                 n_action_classes=2, seed=2))[1]
        with pytest.raises(ValueError, match="mismatch"):
            run_video(feats, bad, RunConfig())


class TestRunDataset:
    def test_means_over_videos(self, tmp_path):
        features_dir, labels_dir = write_mini_dataset(tmp_path)
        cfg = RunConfig(batch_size=16, max_epochs=3)
        report = run_dataset(features_dir, labels_dir, cfg, seed=0)
        assert report["n_videos"] == 3
        assert set(report["mean"]) == {"mof", "iou", "f1"}
        for video in report["videos"].values():
            assert 0.0 <= video["mof"] <= 1.0
        assert report["mean"]["mof"] == pytest.approx(
            np.mean([v["mof"] for v in report["videos"].values()])
        )

    def test_named_preset(self, tmp_path):
        features_dir, labels_dir = write_mini_dataset(tmp_path, n_videos=2)
        report = run_dataset(features_dir, labels_dir, "breakfast", seed=3)
        assert report["n_videos"] == 2

    def test_ambiguous_stems_and_orphan_labels_rejected(self, tmp_path, monkeypatch):
        features_dir, labels_dir = write_mini_dataset(tmp_path, n_videos=3)
        for stem in ("video_0", "video_2"):  # a text copy beside each binary file
            save_features(load_features(features_dir / f"{stem}.bin"),
                          features_dir / f"{stem}.txt", "text")
        (labels_dir / "video_9.txt").write_text("a\n")
        trained = []
        monkeypatch.setattr(pipeline, "run_video", lambda *a, **k: trained.append(a))
        with pytest.raises(ValueError) as err:
            run_dataset(features_dir, labels_dir, RunConfig(batch_size=16, max_epochs=1))
        message = str(err.value)
        assert "'video_0' has 2 feature files (video_0.bin, video_0.txt)" in message
        assert "'video_2' has 2 feature files" in message
        assert "'video_1'" not in message
        assert "label file 'video_9.txt' has no feature file" in message
        assert trained == []  # rejected before any video trains

    def test_empty_dataset_rejected(self, tmp_path):
        (tmp_path / "features").mkdir()
        (tmp_path / "labels").mkdir()
        with pytest.raises(ValueError, match="no feature files"):
            run_dataset(tmp_path / "features", tmp_path / "labels", "breakfast")


class TestSegmentFeatures:
    def test_dispatch(self, rng):
        x = rng.standard_normal((20, 4))
        for method in ("kmeans", "finch", "spectral", "equal"):
            seg = segment_features(x, method, 2, np.random.default_rng(0))
            assert seg.k == 2
        with pytest.raises(ValueError, match="unknown"):
            segment_features(x, "magic", 2, rng)
