"""The library-backed clustering, scoring and selection paths against the loop oracle.

``tests/loop_oracle.py`` holds the per-frame loops, union-find,
difference-tensor k-means, per-cluster and per-class masks, the
all-means-per-merge FINCH refinement and the full-sort triplet
selection that SciPy and NumPy calls replaced. Scores, FINCH levels and
exact-k labels, relabelling, run splitting, cluster means, k-means
labels and positive and negative sets must be exactly equal to them.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import loop_oracle
from tsaseg import cluster
from tsaseg.cluster import KMEANS_RESTARTS, Segmentation, finch, kmeans, spectral
from tsaseg.evaluate import MatchResult, contingency, f1, iou, mof, score
from tsaseg.similarity import ROW_BLOCK
from tsaseg.triplet import Triplet, negative_set, positive_set, select_triplets


def labels_with_gaps(rng, n, k):
    """n labels drawn from a random subset of [0, k), so some ids are absent."""
    used = rng.choice(k, size=rng.integers(1, k + 1), replace=False)
    return rng.choice(used, size=n)


class TestScoresMatchOracle:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
           k_pred=st.integers(1, 24), k_gt=st.integers(1, 24))
    def test_score_equals_mask_loops(self, seed, n, k_pred, k_gt):
        rng = np.random.default_rng(seed)
        pred, gt = labels_with_gaps(rng, n, k_pred), labels_with_gaps(rng, n, k_gt)
        scores, match = score(pred, gt)
        assert scores.mof == loop_oracle.mof(pred, gt, match)
        assert scores.iou == loop_oracle.iou(pred, gt, match)
        assert scores.f1 == loop_oracle.f1(pred, gt, match)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
           k_pred=st.integers(1, 16), k_gt=st.integers(1, 16))
    def test_hand_built_match_with_unmatched_and_absent_labels(self, seed, n, k_pred, k_gt):
        rng = np.random.default_rng(seed)
        pred, gt = labels_with_gaps(rng, n, k_pred), labels_with_gaps(rng, n, k_gt)
        # a partial injection whose predicted side may name labels past pred.max()
        pairs = min(k_pred + 3, k_gt + 2)
        size = int(rng.integers(0, pairs + 1))
        keys = rng.choice(k_pred + 3, size=size, replace=False)
        values = rng.choice(k_gt + 2, size=size, replace=False)
        match = MatchResult(dict(zip(keys.tolist(), values.tolist())), contingency(pred, gt))
        assert mof(pred, gt, match) == loop_oracle.mof(pred, gt, match)
        assert iou(pred, gt, match) == loop_oracle.iou(pred, gt, match)
        assert f1(pred, gt, match) == loop_oracle.f1(pred, gt, match)

    def test_label_absent_from_pred_overlaps_nothing(self):
        pred, gt = np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])
        match = MatchResult({0: 0, 5: 1}, contingency(pred, gt))
        assert mof(pred, gt, match) == 0.5
        assert iou(pred, gt, match) == 0.5
        assert f1(pred, gt, match) == 0.5

    def test_negative_labels_rejected(self):
        # np.add.at would wrap a negative index into the last row
        with pytest.raises(ValueError, match="non-negative"):
            mof(np.array([-1, 0, 1]), np.array([0, 1, 1]), MatchResult({0: 0}, np.ones((1, 1))))


def oracle_finch_helpers():
    """Patch FINCH's union-find, relabel, mask means and full-recompute merge into ``cluster``."""
    names = ("_first_neighbor_partition", "_relabel_first_appearance", "_cluster_means",
             "_merge_to_k")
    return mock.patch.multiple(cluster, **{name: getattr(loop_oracle, name) for name in names})


def assert_finch_equals_oracle(x, required_k):
    """Every FINCH level and the exact-k labels equal those of the oracle helpers."""
    levels, exact = finch(x), finch(x, required_k=required_k)
    with oracle_finch_helpers():
        oracle_levels, oracle_exact = finch(x), finch(x, required_k=required_k)
    assert [lv.k for lv in levels] == [lv.k for lv in oracle_levels]
    for lv, ref in zip(levels, oracle_levels):
        assert np.array_equal(lv.labels, ref.labels)
    assert np.array_equal(exact.labels, oracle_exact.labels)


def star_of_pairs(groups=5, spokes=10, d=64, r=0.1, eps=1e-3, seed=0):
    """Frames whose FINCH hierarchy jumps from 105 clusters straight to 5.

    Each group is a hub direction plus 2·spokes centers at angle ~r
    off it along orthogonal axes, each center a tight pair of frames.
    The frames pair up into 105 first-neighbor clusters, and every
    spoke's nearest center is its hub, so the next level is the groups.
    """
    rng = np.random.default_rng(seed)
    centers = []
    for g in range(groups):
        hub = np.zeros(d)
        hub[g] = 1.0
        centers.append(hub)
        for j in range(spokes):
            for sign in (1.0, -1.0):
                spoke = hub.copy()
                spoke[groups + j] = sign * r
                centers.append(spoke)
    centers = np.array(centers) + 1e-2 * r * rng.standard_normal((len(centers), d))
    offset = eps * rng.standard_normal(centers.shape)
    return np.concatenate([centers + offset, centers - offset])


ROW_KINDS = ("one_decimal", "two_decimals", "constant", "bimodal", "nan", "continuous")


def selection_row(rng, n, kind):
    """One affinity row of the given kind.

    One or two decimals make most entries tie; bimodal rows (a few high
    entries, the rest two tied low values) empty the negative band, so
    the closest-to-mean fallback decides; NaN entries rank last among
    the positives, and may outnumber the finite ones.
    """
    row = rng.uniform(0.0, 1.0, size=n)
    if kind == "one_decimal":
        row = np.round(row, 1)
    elif kind == "two_decimals":
        row = np.round(row, 2)
    elif kind == "constant":
        row = np.full(n, row[0])
    elif kind == "bimodal":
        row = np.where(row < 0.1, 20.0, np.where(row < 0.55, 1.0, 1.5))
    elif kind == "nan":
        row = np.where(rng.random(n) < rng.uniform(0.1, 0.95), np.nan, np.round(row, 1))
    return row


FRACTIONS = (0.01, 0.05, 0.3, 0.5, 0.9, 0.99)


class TestSelectionMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 90),
           kind=st.sampled_from(ROW_KINDS), fraction=st.sampled_from(FRACTIONS))
    def test_sets_equal_full_sort(self, seed, n, kind, fraction):
        # a fraction of 0.99 (and 0.9 below n = 20) hits the n - 2 cap on
        # the positive count; excluded indices outside [0, n) are ignored
        rng = np.random.default_rng(seed)
        row = selection_row(rng, n, kind)
        anchors = {0, n - 1, int(rng.integers(n))}
        for anchor in sorted(anchors):
            pos = positive_set(row, anchor, fraction)
            want_pos = loop_oracle.positive_set(row, anchor, fraction)
            assert pos.dtype == want_pos.dtype and np.array_equal(pos, want_pos)
            for exclude in (None, want_pos, np.concatenate([want_pos, [-1, -n, n, n + 5]])):
                neg = negative_set(row, anchor, exclude)
                want_neg = loop_oracle.negative_set(row, anchor, exclude)
                assert neg.dtype == want_neg.dtype and np.array_equal(neg, want_neg)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 90),
           block=st.integers(1, ROW_BLOCK + 2), per_anchor=st.integers(1, 3),
           fraction=st.sampled_from(FRACTIONS))
    def test_block_selection_equals_row_loop(self, seed, n, block, per_anchor, fraction):
        # a block of rows of mixed kinds, anchors drawn with repeats: the
        # block operations must pick what one full sort per row picks
        rng = np.random.default_rng(seed)
        rows = np.array([selection_row(rng, n, kind) for kind in rng.choice(ROW_KINDS, block)])
        anchors = rng.integers(0, n, size=block)
        got = select_triplets(rows, anchors, np.random.default_rng(seed).spawn(block),
                              per_anchor, fraction)
        want = []
        for row, anchor, child in zip(rows, anchors.tolist(),
                                      np.random.default_rng(seed).spawn(block)):
            positives = loop_oracle.positive_set(row, anchor, fraction)
            negatives = loop_oracle.negative_set(row, anchor, positives)
            for _ in range(per_anchor):
                want.append(Triplet(anchor, int(child.choice(positives)),
                                    int(child.choice(negatives))))
        assert got == want


class TestClusteringMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 120), d=st.integers(1, 8),
           required_k=st.integers(1, 120))
    def test_finch_equals_union_find(self, seed, n, d, required_k):
        x = np.random.default_rng(seed).standard_normal((n, d))
        assert_finch_equals_oracle(x, min(required_k, n))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), d=st.integers(1, 70),
           k=st.integers(1, 30), fortran=st.booleans())
    def test_grouped_means_equal_masks_bit_for_bit(self, seed, n, d, k, fortran):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
        if fortran:
            x = np.asfortranarray(x)
        labels = labels_with_gaps(rng, n, k)
        fallback = rng.standard_normal((k, d))
        got = cluster._cluster_means(x, labels, fallback)
        assert got.tobytes() == loop_oracle._cluster_means(x, labels, fallback).tobytes()
        empty = np.setdiff1d(np.arange(k), labels)
        assert np.array_equal(got[empty], fallback[empty])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from((2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5)),
           d=st.integers(1, 6), distinct=st.integers(1, 60), required_k=st.integers(1, 40))
    def test_row_blocks_equal_dense_on_tied_rows(self, seed, n, d, distinct, required_k):
        # Repeated rows rounded to one decimal: many first-neighbour
        # distances tie, and argmin must break them as the dense matrix does.
        rng = np.random.default_rng(seed)
        x = points_with_duplicates(rng, n, d, min(distinct, n)).round(1)
        x[~x.any(axis=1), 0] = 0.1  # cosine needs non-zero rows
        assert_finch_equals_oracle(x, min(required_k, n))

    def test_peak_holds_one_row_block(self):
        n, d = 4000, 64
        x = np.random.default_rng(0).standard_normal((n, d))
        tracemalloc.start()
        try:
            finch(x, required_k=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense cosine matrix and its 1 - copy were 2 * n * n * 8 bytes (244 MiB)
        assert peak < 2 * n * ROW_BLOCK * 8
        assert peak < n * n * 8 / 20

    def test_large_merge_equals_full_recompute(self):
        x = star_of_pairs()
        assert [lv.k for lv in finch(x)][:2] == [105, 5]  # eligible level for k = 6 has 105
        for required_k in (2, 3, 6, 10):
            with oracle_finch_helpers():
                want = finch(x, required_k=required_k).labels
            assert np.array_equal(finch(x, required_k=required_k).labels, want)

    def test_merge_takes_the_means_at_most_once(self):
        x = star_of_pairs()
        calls = []
        original = cluster._cluster_means

        def counting_means(*args):
            calls.append(1)
            return original(*args)

        def count(*args, **kwargs):
            calls.clear()
            with mock.patch.object(cluster, "_cluster_means", counting_means):
                finch(x, *args, **kwargs)
            return len(calls)

        hierarchy = count()  # one call per level built
        assert count(required_k=6) == hierarchy + 1
        for level in finch(x):
            assert count(required_k=level.k) == hierarchy
        calls.clear()
        with mock.patch.object(cluster, "_cluster_means", counting_means):
            cluster._merge_to_k(x, np.arange(x.shape[0]), 6)
        assert len(calls) == 1

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), k=st.integers(1, 12))
    def test_relabel_and_segments_equal_loops(self, seed, n, k):
        labels = np.random.default_rng(seed).integers(0, k, size=n)
        relabelled = cluster._relabel_first_appearance(labels)
        assert np.array_equal(relabelled, loop_oracle._relabel_first_appearance(labels))
        # runs of a piecewise-constant sequence, as clusterers produce
        runs = np.sort(labels)
        for seq in (labels, runs):
            assert Segmentation(seq, k).segments == loop_oracle.segments(seq)


def points_with_duplicates(rng, n, d, distinct):
    """n rows drawn from ``distinct`` random points, so rows repeat when distinct < n."""
    return rng.standard_normal((distinct, d))[rng.integers(distinct, size=n)]


def recording_lloyd(module, record):
    """Patch ``module._lloyd`` to append (seed centers, labels, WCSS) of every restart."""
    original = module._lloyd

    def run(x, centers, *args):
        labels, wcss = original(x, centers, *args)
        record.append((centers, labels, wcss))
        return labels, wcss

    return mock.patch.object(module, "_lloyd", run)


class TestKmeansMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), d=st.integers(1, 64),
           k=st.integers(1, 40), distinct=st.integers(1, 40))
    def test_labels_and_wcss_equal_difference_tensor(self, seed, n, d, k, distinct):
        rng = np.random.default_rng(seed)
        k, distinct = min(k, n), min(distinct, n)
        x = points_with_duplicates(rng, n, d, distinct)
        restarts, oracle_restarts = [], []
        with recording_lloyd(cluster, restarts):
            labels = kmeans(x, k, np.random.default_rng(seed)).labels
        with recording_lloyd(loop_oracle, oracle_restarts):
            oracle_labels = loop_oracle.kmeans(x, k, np.random.default_rng(seed))
        assert np.array_equal(labels, oracle_labels)
        assert len(restarts) == len(oracle_restarts) == (KMEANS_RESTARTS if 1 < k < n else 0)
        for (centers, got, wcss), (want_centers, want, want_wcss) in zip(restarts, oracle_restarts):
            assert np.array_equal(centers, want_centers)
            assert np.array_equal(got, want)
            if d <= 7:  # cdist sums the same terms in the same order as numpy below 8
                assert wcss == want_wcss
            else:
                assert abs(wcss - want_wcss) <= 1e-12 * max(abs(want_wcss), 1e-300)

    def test_empty_cluster_refill_equals_oracle(self):
        # fewer distinct points than clusters: seeding repeats a center, and
        # argmin's first-index tie-break leaves the repeat's cluster empty
        empties = 0
        for seed, d in enumerate((3, 64)):
            x = points_with_duplicates(np.random.default_rng(seed), 30, d, 4)
            restarts = []
            with recording_lloyd(loop_oracle, restarts):
                want = loop_oracle.kmeans(x, 6, np.random.default_rng(seed))
            assert np.array_equal(kmeans(x, 6, np.random.default_rng(seed)).labels, want)
            for centers, _, _ in restarts:
                first = np.argmin(((x[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1)
                empties += len(centers) - np.unique(first).size
        assert empties > 0

    def test_refill_that_empties_a_later_cluster_equals_oracle(self):
        # no frame is nearest center 0, so it takes frame 2, the frame
        # farthest from its center; frame 2 was cluster 2's only member,
        # so cluster 2 must be refilled in turn
        x = np.array([[0.0], [1.0], [30.0]])
        centers = np.array([[-100.0], [0.0], [40.0]])
        labels, wcss = cluster._lloyd(x, centers)
        want_labels, want_wcss = loop_oracle._lloyd(x, centers, cluster.KMEANS_MAX_ITER)
        assert np.array_equal(labels, want_labels) and wcss == want_wcss
        assert np.unique(labels).size == 3

    def test_refill_cycle_stops_within_a_few_iterations(self):
        # 30 rows from 4 points, k = 6: a refilled cluster's mean coincides
        # with another center, so argmin's tie-break empties it again and
        # the assignments alternate; without the repeat check every restart
        # ran all KMEANS_MAX_ITER iterations
        x = points_with_duplicates(np.random.default_rng(0), 30, 3, 4)
        calls = []

        def counting_cdist(*args, **kwargs):
            calls.append(1)
            return cdist(*args, **kwargs)

        for child in np.random.default_rng(0).spawn(KMEANS_RESTARTS):
            centers = cluster._kmeans_pp_centers(x, 6, child)
            calls.clear()
            with mock.patch.object(cluster, "cdist", counting_cdist):
                labels, _ = cluster._lloyd(x, centers)
            assert len(calls) <= 10  # one distance matrix per iteration
            assert np.unique(labels).size == 6

    def test_peak_below_two_feature_matrices(self):
        n, d, k = 4000, 64, 6
        rng = np.random.default_rng(0)
        x = rng.standard_normal((k, d))[rng.integers(k, size=n)] + 0.5 * rng.standard_normal((n, d))
        tracemalloc.start()
        try:
            kmeans(x, k, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n x k x d difference tensor alone was n * k * d * 8 bytes (11.7 MiB)
        assert peak < 2 * n * d * 8


class TestSpectralMemory:
    def test_peak_below_eight_square_matrices(self):
        n, d = 800, 64
        x = np.random.default_rng(0).standard_normal((n, d))
        tracemalloc.start()
        try:
            spectral(x, 6, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pairwise-difference tensor alone was n * n * d * 8 bytes (312 MiB)
        assert peak < 8 * n * n * 8
