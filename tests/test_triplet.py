import numpy as np
import pytest

from tsaseg.similarity import TemporalKernel, combine, semantic_distribution, temporal_distribution
from tsaseg.triplet import (
    DownsampleSet,
    Triplet,
    negative_set,
    pool_anchors,
    positive_set,
    sample_triplets,
    stochastic_pool,
)


def make_fts(rng, n=40, dims=5, L=6):
    fs = semantic_distribution(rng.standard_normal((n, dims)), 1.0)
    ft = temporal_distribution(n, TemporalKernel(L))
    return combine(fs, ft, rng.uniform(0, 1, size=n))


class TestStochasticPool:
    def test_batch_equals_n_gives_one_anchor(self, rng):
        fts = make_fts(rng, n=30)
        pool = stochastic_pool(fts, 30, rng)
        assert len(pool) == 1

    def test_batch_one_keeps_everything(self, rng):
        fts = make_fts(rng, n=12)
        pool = stochastic_pool(fts, 1, rng)
        assert np.array_equal(pool.indices, np.arange(12))

    def test_one_representative_per_window(self, rng):
        fts = make_fts(rng, n=37)
        pool = stochastic_pool(fts, 8, rng)
        windows = pool.indices // 8
        assert np.array_equal(windows, np.arange(int(np.ceil(37 / 8))))

    def test_batch_too_large_rejected(self, rng):
        fts = make_fts(rng, n=10)
        with pytest.raises(ValueError, match="batch_size"):
            stochastic_pool(fts, 11, rng)

    def test_uniform_rows_sample_uniformly(self):
        # N=6, B=3, uniform affinity: each window entry picked ~1/3 of the time
        rows = np.full((6, 6), 1.0 / 6.0)
        rng = np.random.default_rng(99)
        counts = np.zeros(6)
        draws = 10_000
        for _ in range(draws):
            pool = stochastic_pool(rows, 3, rng)
            counts[pool.indices] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 1.0 / 3.0) < 0.05)

    def test_self_affinity_weighting(self):
        # selection within a window is proportional to the diagonal entries
        rows = np.full((4, 4), 0.1)
        np.fill_diagonal(rows, [0.6, 0.2, 0.2, 0.2])
        rows /= rows.sum(axis=1, keepdims=True)
        rng = np.random.default_rng(7)
        picks = [stochastic_pool(rows, 4, rng).indices[0] for _ in range(4000)]
        frac0 = float(np.mean(np.asarray(picks) == 0))
        expect = rows[0, 0] / np.trace(rows)
        assert abs(frac0 - expect) < 0.05

    def test_uniform_mode_draws_rng_choice_per_window(self):
        # one rng.choice(window) per window, whatever the diagonal holds
        rng = np.random.default_rng(4)
        want = [int(rng.choice(np.arange(s, min(s + 3, 8)))) for s in range(0, 8, 3)]
        for diag in (np.ones(8), np.array([1.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 1.0])):
            got = pool_anchors(diag, 3, np.random.default_rng(4), "uniform")
            assert got.indices.tolist() == want

    def test_determinism(self, rng):
        fts = make_fts(rng, n=25)
        a = stochastic_pool(fts, 5, np.random.default_rng(3)).indices
        b = stochastic_pool(fts, 5, np.random.default_rng(3)).indices
        assert np.array_equal(a, b)

    def test_downsample_set_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DownsampleSet(np.array([3, 3, 5]))


class TestPositiveSet:
    def test_ceiling_count(self, rng):
        fts = make_fts(rng, n=100)
        assert len(positive_set(fts.rows[10], 10, 0.05)) == 5

    def test_uniform_row_tie_break_temporal(self):
        rows = np.full((100, 100), 0.01)
        pos = positive_set(rows[50], 50, 0.05)
        assert sorted(abs(int(j) - 50) for j in pos) == [1, 1, 2, 2, 3]

    def test_dominant_entry_included(self, rng):
        fts = make_fts(rng, n=40)
        rows = fts.rows.copy()
        rows[5] = 1e-6
        rows[5, 20] = 1.0
        rows[5, 5] = 0.5
        rows[5] /= rows[5].sum()
        assert 20 in positive_set(rows[5], 5)

    def test_anchor_excluded(self, rng):
        fts = make_fts(rng, n=30)
        for anchor in (0, 15, 29):
            assert anchor not in positive_set(fts.rows[anchor], anchor)

    def test_bad_fraction(self, rng):
        fts = make_fts(rng, n=10)
        with pytest.raises(ValueError):
            positive_set(fts.rows[0], 0, fraction=1.0)


class TestNegativeSet:
    def test_hand_computed_band(self):
        # off-diagonal entries [0.2, 0.1]: mean 0.15, std 0.05, band [0.15, 0.2]
        rows = np.array([[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]])
        assert negative_set(rows[0], 0).tolist() == [1]

    def test_constant_row_takes_everything(self):
        rows = np.full((5, 5), 0.2)
        assert negative_set(rows[2], 2).tolist() == [0, 1, 3, 4]

    def test_empty_band_falls_back_to_nearest_mean(self):
        # strictly bimodal off-diagonal row with the band straddling the gap
        row = np.array([0.0, 0.40, 0.40, 0.40, 0.065, 0.045, 0.045, 0.045])
        rows = np.tile(row / row.sum(), (8, 1))
        off = np.delete(rows[0], 0)
        mean, std = off.mean(), off.std()
        assert not np.any((off >= mean) & (off <= mean + std))  # fixture premise
        got = negative_set(rows[0], 0)
        assert len(got) == 1
        expect = min(range(1, 8), key=lambda j: (abs(rows[0, j] - mean), abs(j - 0), j))
        assert got[0] == expect

    def test_exclusion_keeps_sets_disjoint(self, rng):
        fts = make_fts(rng, n=60)
        for anchor in range(0, 60, 7):
            pos = positive_set(fts.rows[anchor], anchor)
            neg = negative_set(fts.rows[anchor], anchor, exclude=pos)
            assert len(neg) >= 1
            assert not set(pos.tolist()) & set(neg.tolist())
            assert anchor not in neg


class TestSampleTriplets:
    def test_count_per_anchor(self, rng):
        fts = make_fts(rng, n=64)
        pool = stochastic_pool(fts, 8, rng)
        assert len(pool) == 8
        triplets = sample_triplets(fts, pool, rng, per_anchor=1)
        assert len(triplets) == 8
        triplets3 = sample_triplets(fts, pool, np.random.default_rng(0), per_anchor=3)
        assert len(triplets3) == 24

    def test_membership_contract(self, rng):
        fts = make_fts(rng, n=50)
        pool = stochastic_pool(fts, 10, rng)
        for t in sample_triplets(fts, pool, rng, per_anchor=4):
            pos = positive_set(fts.rows[t.anchor], t.anchor)
            neg = negative_set(fts.rows[t.anchor], t.anchor, exclude=pos)
            assert t.positive in pos
            assert t.negative in neg
            assert len({t.anchor, t.positive, t.negative}) == 3

    def test_equal_seeds_equal_triplets(self, rng):
        fts = make_fts(rng, n=40)
        pool = stochastic_pool(fts, 8, np.random.default_rng(5))
        a = sample_triplets(fts, pool, np.random.default_rng(11), per_anchor=2)
        b = sample_triplets(fts, pool, np.random.default_rng(11), per_anchor=2)
        assert a == b

    def test_triplet_distinctness_enforced(self):
        with pytest.raises(ValueError, match="distinct"):
            Triplet(1, 1, 2)

    def test_negative_index_rejected(self):
        # a negative index would wrap around to a frame from the end
        with pytest.raises(ValueError, match="non-negative"):
            Triplet(0, 9, -1)
