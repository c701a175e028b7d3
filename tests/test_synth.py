import numpy as np
import pytest

from tsaseg.cluster import kmeans
from tsaseg.evaluate import score
from tsaseg.synth import SynthSpec, generate


class TestGenerate:
    def test_zero_noise_is_perfectly_clusterable(self):
        feats, gt = generate(
            SynthSpec(n_segments=5, frames_per_segment=(10, 15), dims=8,
                      n_action_classes=3, noise_sigma=0.0, seed=4)
        )
        seg = kmeans(feats, 3, np.random.default_rng(0))
        assert score(seg, gt)[0].mof == 1.0

    def test_zero_noise_frames_equal_centers(self):
        feats, gt = generate(
            SynthSpec(n_segments=4, frames_per_segment=(5, 8), dims=6,
                      n_action_classes=2, noise_sigma=0.0, seed=1)
        )
        for c in range(2):
            rows = feats.values[gt.labels == c]
            assert np.allclose(rows, rows[0])
            assert np.linalg.norm(rows[0]) == pytest.approx(1.0)

    def test_class_recurs_in_non_adjacent_segments(self):
        feats, gt = generate(
            SynthSpec(n_segments=6, frames_per_segment=(5, 8),
                      n_action_classes=4, seed=11)
        )
        labels = gt.labels
        runs = [labels[0]]
        for v in labels[1:]:
            if v != runs[-1]:
                runs.append(v)
        # six segments over four classes: some class owns two runs, and
        # adjacent segments never share a class so the runs are separated
        counts = np.bincount(np.asarray(runs))
        assert counts.max() >= 2
        assert all(a != b for a, b in zip(runs, runs[1:]))

    def test_all_classes_appear(self):
        _, gt = generate(SynthSpec(n_segments=7, n_action_classes=5, seed=3))
        assert np.unique(gt.labels).size == 5

    def test_deterministic(self):
        spec = SynthSpec(seed=123)
        f1, g1 = generate(spec)
        f2, g2 = generate(spec)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(g1.labels, g2.labels)

    def test_center_separation_honored(self):
        feats, gt = generate(
            SynthSpec(n_segments=4, n_action_classes=4, noise_sigma=0.0,
                      center_separation=1.2, dims=16, seed=5)
        )
        centers = np.vstack([feats.values[gt.labels == c][0] for c in range(4)])
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        gaps[np.eye(4, dtype=bool)] = np.inf
        assert gaps.min() >= 1.2

    def test_impossible_separation_rejected(self):
        # ten unit vectors in the plane cannot be pairwise 1.9 apart
        with pytest.raises(ValueError, match="separation"):
            generate(SynthSpec(n_segments=10, n_action_classes=10, dims=2,
                               center_separation=1.9, seed=0))

    def test_background_interleaving(self):
        feats, gt = generate(
            SynthSpec(n_segments=3, frames_per_segment=(4, 6),
                      n_action_classes=3, with_background=True, seed=9)
        )
        assert gt.background_id == 3
        assert gt.names[-1] == "background"
        # background opens and closes the video and sits between actions
        assert gt.labels[0] == 3 and gt.labels[-1] == 3
        runs = [gt.labels[0]]
        for v in gt.labels[1:]:
            if v != runs[-1]:
                runs.append(v)
        assert [int(r) for r in runs[::2]] == [3, 3, 3, 3]

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n_action_classes=5, n_segments=3)
        with pytest.raises(ValueError):
            SynthSpec(frames_per_segment=(5, 2))
        with pytest.raises(ValueError):
            SynthSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("name", ["noise_sigma", "center_separation"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_spread_rejected_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            SynthSpec(**{name: value})
