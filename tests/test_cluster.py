import numpy as np
import pytest

from conftest import adjusted_rand_index
from tsaseg.cluster import Segmentation, equal_split, finch, kmeans, spectral
from tsaseg.similarity import ROW_BLOCK, ZeroNormRowError
from tsaseg.synth import SynthSpec, generate


def blobs(rng, centers, sizes, sigma=0.05):
    rows, labels = [], []
    for c, (center, size) in enumerate(zip(centers, sizes)):
        rows.append(np.asarray(center) + sigma * rng.standard_normal((size, len(center))))
        labels.extend([c] * size)
    return np.vstack(rows), np.array(labels)


class TestSegmentation:
    def test_segments_tile_frames(self):
        seg = Segmentation(np.array([0, 0, 1, 1, 1, 0, 2]), 3)
        assert seg.segments == [(0, 2, 0), (2, 5, 1), (5, 6, 0), (6, 7, 2)]
        rebuilt = np.concatenate([[lab] * (end - start) for start, end, lab in seg.segments])
        assert np.array_equal(rebuilt, seg.labels)

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            Segmentation(np.array([0, 3]), 3)


class TestKmeans:
    def test_k_one_all_zero(self, rng):
        seg = kmeans(rng.standard_normal((10, 3)), 1, rng)
        assert np.array_equal(seg.labels, np.zeros(10))

    def test_k_equals_n_singletons(self, rng):
        seg = kmeans(rng.standard_normal((7, 3)), 7, rng)
        assert np.array_equal(seg.labels, np.arange(7))

    def test_recovers_planted_blobs(self, rng):
        x, truth = blobs(rng, [[0, 0, 5], [5, 0, 0], [0, 5, 0]], [30, 25, 20])
        seg = kmeans(x, 3, np.random.default_rng(0))
        assert adjusted_rand_index(seg.labels, truth) == 1.0

    def test_deterministic_under_seed(self, rng):
        x = rng.standard_normal((40, 4))
        a = kmeans(x, 5, np.random.default_rng(3)).labels
        b = kmeans(x, 5, np.random.default_rng(3)).labels
        assert np.array_equal(a, b)

    def test_k_out_of_range(self, rng):
        x = rng.standard_normal((5, 2))
        with pytest.raises(ValueError):
            kmeans(x, 6, rng)
        with pytest.raises(ValueError):
            kmeans(x, 0, rng)

    def test_objective_never_increases(self, rng):
        # the WCSS monotonicity assert inside Lloyd iterations would trip here
        for seed in range(20):
            r = np.random.default_rng(seed)
            kmeans(r.standard_normal((60, 5)), 6, r)

    def test_duplicate_points_handled(self, rng):
        x = np.tile(rng.standard_normal((3, 4)), (10, 1))
        seg = kmeans(x, 3, np.random.default_rng(1))
        assert seg.k == 3


def angular_star(dims, hub_axis, offset_axes, theta=0.1):
    """A hub direction plus satellites tilted by ``theta`` along orthogonal axes.

    Under the cosine metric every satellite is nearer the hub
    (distance 1 - cos(theta)) than any sibling (1 - cos(theta)^2, about
    twice as far for small theta), so the first-neighbor graph of the
    blob is a single star: one connected component by construction."""
    hub = np.zeros(dims)
    hub[hub_axis] = 1.0
    rows = [hub]
    for axis in offset_axes:
        v = np.cos(theta) * hub.copy()
        v[axis] += np.sin(theta)
        rows.append(v)
    return np.vstack(rows)


class TestFinch:
    def test_two_blobs_two_components(self):
        a = angular_star(16, 0, range(2, 13))
        b = angular_star(16, 1, range(2, 13))
        x = np.vstack([a, b])
        truth = np.array([0] * 12 + [1] * 12)
        levels = finch(x)
        assert levels[0].k == 2
        assert adjusted_rand_index(levels[0].labels, truth) == 1.0

    def test_two_frames_single_level(self):
        levels = finch(np.array([[1.0, 0.0], [0.9, 0.1]]))
        assert len(levels) == 1
        assert levels[0].k == 1

    def test_required_k_equals_n_singletons(self, rng):
        x = rng.standard_normal((9, 3))
        seg = finch(x, required_k=9)
        assert np.array_equal(seg.labels, np.arange(9))

    def test_level_counts_strictly_decreasing(self, rng):
        x = rng.standard_normal((80, 6))
        counts = [lv.k for lv in finch(x)]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_exact_k_refinement(self, k):
        feats, _ = generate(
            SynthSpec(
                n_segments=6,
                frames_per_segment=(15, 20),
                dims=12,
                n_action_classes=6,
                noise_sigma=0.08,
                center_separation=1.0,
                seed=21,
            )
        )
        seg = finch(feats, required_k=k)
        assert seg.k == k
        assert np.unique(seg.labels).size == k

    def test_required_k_above_n_rejected(self, rng):
        with pytest.raises(ValueError):
            finch(rng.standard_normal((5, 2)), required_k=6)

    @pytest.mark.parametrize("row", [0, 7, ROW_BLOCK + 3])
    def test_zero_norm_row_named(self, rng, row):
        x = rng.standard_normal((ROW_BLOCK + 10, 4))
        x[row] = 0.0
        for required_k in (None, 3):
            with pytest.raises(ZeroNormRowError, match=f"row {row} "):
                finch(x, required_k=required_k)


class TestSpectral:
    def test_two_far_blocks_recovered_exactly(self, rng):
        x, truth = blobs(rng, [[0.0, 0.0], [10.0, 10.0]], [20, 22])
        seg = spectral(x, 2, np.random.default_rng(0))
        assert adjusted_rand_index(seg.labels, truth) == 1.0

    def test_three_blobs(self, rng):
        x, truth = blobs(rng, [[0, 0, 6], [6, 0, 0], [0, 6, 0]], [15, 15, 15])
        seg = spectral(x, 3, np.random.default_rng(0))
        assert adjusted_rand_index(seg.labels, truth) == 1.0

    def test_k_equals_n(self, rng):
        x = rng.standard_normal((6, 2))
        seg = spectral(x, 6, rng)
        assert np.array_equal(seg.labels, np.arange(6))

    def test_k_below_two_rejected(self, rng):
        with pytest.raises(ValueError):
            spectral(rng.standard_normal((5, 2)), 1, rng)

    def test_deterministic(self, rng):
        x = rng.standard_normal((20, 3))
        a = spectral(x, 3, np.random.default_rng(5)).labels
        b = spectral(x, 3, np.random.default_rng(5)).labels
        assert np.array_equal(a, b)


class TestEqualSplit:
    def test_even_division(self):
        assert equal_split(6, 3).labels.tolist() == [0, 0, 1, 1, 2, 2]

    def test_remainder_goes_to_leading_segments(self):
        seg = equal_split(7, 3)
        lengths = [end - start for start, end, _ in seg.segments]
        assert lengths == [3, 2, 2]

    def test_k_one(self):
        assert np.array_equal(equal_split(5, 1).labels, np.zeros(5))

    def test_k_equals_n(self):
        assert np.array_equal(equal_split(4, 4).labels, np.arange(4))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            equal_split(3, 4)
