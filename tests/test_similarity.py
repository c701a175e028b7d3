import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsaseg.model import Workspace
from tsaseg.similarity import (
    KL_SMOOTHING,
    ROW_BLOCK,
    AffinityMatrix,
    TemporalKernel,
    ZeroNormRowError,
    combine,
    semantic_distribution,
    temporal_diagonal,
    temporal_distribution,
    temporal_rows,
    temporal_weight,
)

ROW_TOL = 1e-9


class TestTemporalKernel:
    def test_beta_closed_form(self):
        # the defining relation: beta = -L / (2 ln(1/2)) = L / (2 ln 2)
        for L in range(2, 65):
            k = TemporalKernel(L)
            assert k.beta == pytest.approx(-L / (2.0 * math.log(0.5)), rel=1e-15)

    def test_weight_at_zero_is_one(self):
        assert temporal_weight(0.0, TemporalKernel(6)) == 1.0

    @pytest.mark.parametrize("L", range(2, 65))
    def test_zero_crossing_at_half_window(self, L):
        assert abs(temporal_weight(L / 2.0, TemporalKernel(L))) <= 1e-12

    def test_weight_at_full_window(self):
        # L=6: w(6) = -1 + 2 exp(-2 ln 2) = -1 + 2/4 = -0.5
        k = TemporalKernel(6)
        assert k.beta == pytest.approx(4.3280850, abs=1e-6)
        assert temporal_weight(6.0, k) == pytest.approx(-0.5, abs=1e-12)

    def test_strictly_decreasing(self):
        k = TemporalKernel(8)
        d = np.linspace(0.0, 30.0, 200)
        w = temporal_weight(d, k)
        assert np.all(np.diff(w) < 0)
        assert np.all(w > -1.0) and np.all(w <= 1.0)

    def test_sign_change_exactly_at_half_window(self):
        k = TemporalKernel(10)
        assert temporal_weight(4.999, k) > 0 > temporal_weight(5.001, k)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            temporal_weight(-1.0, TemporalKernel(4))

    def test_nan_distance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            temporal_weight(np.array([np.nan, 1.0]), TemporalKernel(4))


class TestSemanticDistribution:
    def test_identical_frames_uniform(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0]])
        for h in (0.1, 1.0, 10.0):
            fs = semantic_distribution(m, h)
            assert np.allclose(fs.rows, 0.5)

    def test_orthogonal_triple_hand_values(self):
        # three orthonormal frames, h=1: within-row weights are
        # diag exp(0)=1 and off-diag exp(-1); hand-normalized below
        m = np.eye(3)
        fs = semantic_distribution(m, 1.0)
        e = math.exp(-1.0)
        diag = 1.0 / (1.0 + 2.0 * e)
        off = e / (1.0 + 2.0 * e)
        assert fs.rows[0] == pytest.approx([diag, off, off], abs=1e-12)
        assert diag == pytest.approx(0.5761168847658291, abs=1e-12)
        assert off == pytest.approx(0.21194155761708544, abs=1e-12)

    def test_row_sums_random(self, rng):
        m = rng.standard_normal((50, 7))
        fs = semantic_distribution(m, 0.7)
        assert np.max(np.abs(fs.rows.sum(axis=1) - 1.0)) <= ROW_TOL
        assert fs.rows.min() >= 0.0

    def test_zero_norm_row_rejected(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroNormRowError, match="row 1"):
            semantic_distribution(m, 1.0)

    def test_permutation_equivariance(self, rng):
        m = rng.standard_normal((12, 5))
        perm = rng.permutation(12)
        fs = semantic_distribution(m, 1.3).rows
        fs_p = semantic_distribution(m[perm], 1.3).rows
        assert np.allclose(fs_p, fs[np.ix_(perm, perm)], atol=1e-12)

    def test_higher_similarity_higher_weight(self, rng):
        base = np.array([1.0, 0.0, 0.0])
        near = np.array([0.9, 0.1, 0.0])
        far = np.array([0.0, 1.0, 0.0])
        fs = semantic_distribution(np.vstack([base, near, far]), 1.0)
        assert fs.rows[0, 1] > fs.rows[0, 2]

    def test_invalid_bandwidth(self, rng):
        with pytest.raises(ValueError):
            semantic_distribution(rng.standard_normal((3, 2)), 0.0)


class TestTemporalDistribution:
    def test_two_frames_hand_computed(self):
        for L in (2, 4, 8):
            k = TemporalKernel(L)
            ft = temporal_distribution(2, k)
            w1 = max(0.0, temporal_weight(1.0, k))
            expected = np.array([[1.0, w1], [w1, 1.0]])
            expected /= expected.sum(axis=1, keepdims=True)
            assert np.allclose(ft.rows, expected, atol=1e-12)

    def test_support_clipped_beyond_half_window(self):
        L = 6
        ft = temporal_distribution(20, TemporalKernel(L))
        idx = np.arange(20)
        dist = np.abs(idx[:, None] - idx[None, :])
        assert np.all(ft.rows[dist > L / 2] == 0.0)
        assert np.all(ft.rows[dist < L / 2] > 0.0)

    def test_prenormalization_symmetry(self):
        # rows are rescaled copies of a symmetric weight matrix
        k = TemporalKernel(4)
        ft = temporal_distribution(15, k)
        idx = np.arange(15)
        weights = np.maximum(temporal_weight(np.abs(idx[:, None] - idx[None, :]), k), 0.0)
        assert np.allclose(ft.rows, weights / weights.sum(axis=1, keepdims=True), atol=1e-12)
        assert np.allclose(weights, weights.T)

    def test_positions_override(self):
        k = TemporalKernel(6)
        # frames 0 and 10 of the original video: too far apart to relate
        ft = temporal_distribution(2, k, positions=np.array([0.0, 10.0]))
        assert np.allclose(ft.rows, np.eye(2))

    def test_row_sums(self):
        ft = temporal_distribution(40, TemporalKernel(9))
        assert np.max(np.abs(ft.rows.sum(axis=1) - 1.0)) <= ROW_TOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, bad):
        with pytest.raises(ValueError, match=r"non-finite frame position .* at index 1"):
            temporal_distribution(3, TemporalKernel(6), positions=[0.0, bad, 2.0])

    @pytest.mark.parametrize(
        "positions, index",
        [([0.0, 2.0, 2.0, 3.0], 2), ([0.0, 3.0, 1.0, 4.0], 2), ([1.0, 0.0, 2.0, 3.0], 1)],
        ids=["repeat", "step_back", "first_step"],
    )
    def test_non_increasing_positions_rejected(self, positions, index):
        with pytest.raises(ValueError, match=rf"increase strictly: .* at index {index} follows"):
            temporal_distribution(4, TemporalKernel(6), positions=positions)


def kernel_formula(positions, kernel):
    """The clipped, row-normalized kernel over every pair of frames."""
    weights = np.maximum(temporal_weight(np.abs(positions[:, None] - positions[None, :]), kernel), 0.0)
    return weights / weights.sum(axis=1, keepdims=True)


SPACINGS = ("integer", "half_frames", "tenths", "float")


def spaced_positions(rng, n, spacing):
    """n strictly increasing frame positions of one of the SPACINGS."""
    if spacing == "integer":  # consecutive frames from an arbitrary start
        return np.arange(n, dtype=np.float64) + rng.integers(0, 1000)
    if spacing == "half_frames":  # gapped, with distances of exactly L/2 for odd L
        return np.sort(rng.choice(4 * n, size=n, replace=False)) / 2.0
    if spacing == "tenths":  # rounded steps: p_i + L/2 and p_j differ in the last bit
        return (np.arange(n) + rng.integers(0, 1000)) * 0.1
    return np.cumsum(rng.uniform(0.05, 3.0, size=n))  # gapped at arbitrary float steps


class TestTemporalBand:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        L=st.integers(1, 20),
        spacing=st.sampled_from(SPACINGS),
    )
    def test_equals_kernel_formula(self, seed, n, L, spacing):
        positions = spaced_positions(np.random.default_rng(seed), n, spacing)
        kernel = TemporalKernel(L)
        got = temporal_rows(positions, kernel, np.arange(n))
        want = kernel_formula(positions, kernel)
        assert np.array_equal(got > 0, want > 0)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.max(np.abs(temporal_diagonal(positions, kernel) - np.diag(want))) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 2 * ROW_BLOCK + 5),
        L=st.integers(1, 40),
        spacing=st.sampled_from(SPACINGS),
        size=st.integers(0, 40),
    )
    def test_rows_do_not_depend_on_the_call(self, seed, n, L, spacing, size):
        # a row's window is normalised by its own sum, so the rows asked
        # for together (any subset, order or repeats) do not change its bytes
        rng = np.random.default_rng(seed)
        positions = spaced_positions(rng, n, spacing)
        kernel = TemporalKernel(L)
        dense = temporal_distribution(n, kernel, positions).rows
        index = rng.integers(0, n, size=size)
        assert temporal_rows(positions, kernel, index).tobytes() == dense[index].tobytes()
        assert temporal_diagonal(positions, kernel).tobytes() == np.diag(dense).tobytes()

    @pytest.mark.parametrize(
        "L, positions",
        [(7, np.arange(40) * 0.5), (14, np.arange(40) * 1.0), (7, np.arange(60) * 0.1)],
        ids=["L7_half_frames", "L14_frames", "L7_tenths"],
    )
    def test_band_closed_where_half_window_weight_rounds_positive(self, L, positions):
        kernel = TemporalKernel(L)
        assert temporal_weight(L / 2, kernel) == 2.220446049250313e-16
        dist = np.abs(positions[:, None] - positions[None, :])
        band = temporal_rows(positions, kernel, np.arange(positions.size))
        assert np.any(dist == L / 2) and np.all(band[dist == L / 2] > 0)
        # at tenths, 0.1 * 3 + 3.5 rounds below 0.1 * 38, yet 0.1 * 38 - 0.1 * 3 rounds to 3.5
        want = kernel_formula(positions, kernel)
        assert np.array_equal(band > 0, want > 0)
        assert np.max(np.abs(band - want)) <= 1e-15

    def test_workspace_peak_memory_grows_with_row_blocks_not_window(self):
        # a window as wide as the video: a stored band would hold n^2 entries
        n = L = 3000
        X = np.ones((n, 2))
        tracemalloc.start()
        try:
            work = Workspace.allocate(X, None, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert work.ft_ii.shape == (n,)
        assert peak < 10 * ROW_BLOCK * n * 8  # a few arrays of one entry per block slot
        assert peak < n * n * 8 / 2  # one N x N float64 matrix is 72 MB


class TestCombine:
    @pytest.fixture
    def pair(self, rng):
        m = rng.standard_normal((10, 4))
        fs = semantic_distribution(m, 1.0)
        ft = temporal_distribution(10, TemporalKernel(4))
        return fs, ft

    def test_alpha_zero_gives_smoothed_semantic(self, pair):
        fs, ft = pair
        combined = combine(fs, ft, np.zeros(10))
        expected = (fs.rows + KL_SMOOTHING) / (fs.rows + KL_SMOOTHING).sum(axis=1, keepdims=True)
        assert np.allclose(combined.rows, expected, atol=1e-15)

    def test_alpha_one_gives_smoothed_temporal(self, pair):
        fs, ft = pair
        combined = combine(fs, ft, np.ones(10))
        expected = (ft.rows + KL_SMOOTHING) / (ft.rows + KL_SMOOTHING).sum(axis=1, keepdims=True)
        assert np.allclose(combined.rows, expected, atol=1e-15)

    def test_equal_rows_fixed_point(self):
        rows = np.full((4, 4), 0.25)
        fs = AffinityMatrix(rows, kind="semantic")
        ft = AffinityMatrix(rows.copy(), kind="temporal")
        combined = combine(fs, ft, np.full(4, 0.5))
        assert np.allclose(combined.rows, rows, atol=1e-9)

    def test_convex_combination_bounds(self, pair, rng):
        fs, ft = pair
        alpha = rng.uniform(0, 1, size=10)
        combined = combine(fs, ft, alpha)
        # smoothing is affine and both rows sum to 1, so the combined row
        # is the same convex combination of the smoothed rows
        smooth_fs = (fs.rows + KL_SMOOTHING) / (1.0 + 10 * KL_SMOOTHING)
        smooth_ft = (ft.rows + KL_SMOOTHING) / (1.0 + 10 * KL_SMOOTHING)
        lo = np.minimum(smooth_fs, smooth_ft)
        hi = np.maximum(smooth_fs, smooth_ft)
        assert np.all(combined.rows >= lo - 1e-9)
        assert np.all(combined.rows <= hi + 1e-9)

    def test_strictly_positive(self, pair):
        fs, ft = pair
        combined = combine(fs, ft, np.full(10, 0.5))
        assert combined.rows.min() > 0.0

    def test_dimension_mismatch(self, pair):
        fs, _ = pair
        ft_small = temporal_distribution(6, TemporalKernel(4))
        with pytest.raises(ValueError, match="mismatch"):
            combine(fs, ft_small, np.full(10, 0.5))

    def test_alpha_out_of_range(self, pair):
        fs, ft = pair
        with pytest.raises(ValueError, match="alpha"):
            combine(fs, ft, np.full(10, 1.5))


class TestAffinityMatrixValidation:
    def test_negative_entry_rejected(self):
        rows = np.array([[1.1, -0.1], [0.5, 0.5]])
        with pytest.raises(ValueError, match="non-negative"):
            AffinityMatrix(rows, kind="semantic")

    def test_bad_row_sum_rejected(self):
        rows = np.array([[0.6, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError, match="sums to"):
            AffinityMatrix(rows, kind="semantic")

    def test_combined_requires_full_support(self):
        rows = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="strictly positive"):
            AffinityMatrix(rows, kind="combined")
        AffinityMatrix(rows, kind="temporal")  # zeros fine for non-combined

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            AffinityMatrix(np.full((2, 3), 1 / 3), kind="semantic")

    def test_non_finite_entry_rejected(self):
        with pytest.raises(ValueError, match="non-finite affinity entry at row 0, column 0"):
            AffinityMatrix(np.full((2, 2), np.nan), kind="combined")
        rows = np.array([[0.5, 0.5], [np.inf, 0.5]])
        with pytest.raises(ValueError, match="non-finite affinity entry at row 1, column 0"):
            AffinityMatrix(rows, kind="semantic")


def test_affinity_matrix_exportable_as_features(tmp_path, rng):
    from tsaseg.data_io import load_features, save_features

    fs = semantic_distribution(rng.standard_normal((8, 3)), 1.0)
    path = tmp_path / "affinity.bin"
    save_features(fs.rows, path, "binary")
    back = load_features(path)
    assert back.values.shape == (8, 8)
    assert np.allclose(back.values, fs.rows, atol=1e-7)  # float32 storage


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_all_distributions_are_pdfs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    m = rng.standard_normal((n, int(rng.integers(2, 6))))
    h = float(rng.uniform(0.2, 3.0))
    L = int(rng.integers(2, 12))
    fs = semantic_distribution(m, h)
    ft = temporal_distribution(n, TemporalKernel(L))
    fts = combine(fs, ft, rng.uniform(0, 1, size=n))
    for mat in (fs, ft, fts):
        assert mat.rows.min() >= 0.0
        assert np.max(np.abs(mat.rows.sum(axis=1) - 1.0)) <= ROW_TOL
    assert fts.rows.min() > 0.0
