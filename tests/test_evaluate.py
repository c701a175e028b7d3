import itertools

import numpy as np
import pytest

from tsaseg.data_io import LabelSequence
from tsaseg.evaluate import (
    MatchResult,
    Scores,
    contingency,
    f1,
    hungarian,
    iou,
    mof,
    remove_background,
    score,
    scores_json,
)


def brute_force_assignment_value(overlap: np.ndarray) -> int:
    """Exhaustive permutation search over the zero-padded square table."""
    side = max(overlap.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: overlap.shape[0], : overlap.shape[1]] = overlap
    return max(
        sum(padded[i, perm[i]] for i in range(side))
        for perm in itertools.permutations(range(side))
    )


class TestHungarian:
    def test_diagonally_dominant_identity(self):
        overlap = np.diag([10, 10, 10]) + np.ones((3, 3), dtype=int)
        match = hungarian(overlap)
        assert match.mapping == {0: 0, 1: 1, 2: 2}

    def test_anti_diagonal_swap(self):
        match = hungarian(np.array([[0, 5], [5, 0]]))
        assert match.mapping == {0: 1, 1: 0}
        assert sum(match.overlap[p, g] for p, g in match.mapping.items()) == 10

    def test_matches_brute_force_on_random_tables(self, rng):
        for _ in range(60):
            shape = rng.integers(1, 7, size=2)
            overlap = rng.integers(0, 25, size=tuple(shape))
            match = hungarian(overlap)
            value = sum(overlap[p, g] for p, g in match.mapping.items())
            assert value == brute_force_assignment_value(overlap)
            assert len(match.mapping) == min(overlap.shape)

    def test_rectangular_partial_injection(self):
        overlap = np.array([[8, 0], [0, 7], [5, 5]])
        match = hungarian(overlap)
        assert len(match.mapping) == 2
        values = list(match.mapping.values())
        assert len(set(values)) == len(values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((0, 0)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[-1, 2], [3, 4]]))


class TestMof:
    def test_perfect_prediction(self):
        gt = np.array([0, 0, 1, 1, 2])
        scores, _ = score(gt.copy(), gt)
        assert scores.mof == 1.0

    def test_constant_prediction_balanced_classes(self):
        gt = np.repeat([0, 1, 2, 3], 25)
        pred = np.zeros(100, dtype=int)
        match = hungarian(contingency(pred, gt))
        assert mof(pred, gt, match) == 0.25

    def test_planted_eighty_percent(self):
        gt = np.repeat([0, 1], 50)
        pred = gt.copy()
        flip = np.arange(0, 100, 5)  # corrupt 20 frames
        pred[flip] = 1 - pred[flip]
        match = hungarian(contingency(pred, gt))
        assert mof(pred, gt, match) == pytest.approx(0.8)

    def test_length_mismatch(self):
        match = hungarian(np.array([[1]]))
        with pytest.raises(ValueError, match="mismatch"):
            mof(np.array([0, 0]), np.array([0]), match)


class TestIou:
    def test_perfect(self):
        gt = np.array([0, 1, 1, 2])
        scores, _ = score(gt.copy(), gt)
        assert scores.iou == 1.0

    def test_half_and_full_average(self):
        # class 0: intersection 2 of union 4 -> 0.5; class 1: exact -> 1.0
        gt = np.array([0, 0, 0, 0, 1, 1])
        pred = np.array([0, 0, 2, 2, 1, 1])
        match = hungarian(contingency(pred, gt))
        assert iou(pred, gt, match) == pytest.approx(0.75)

    def test_disjoint_supports(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        # force the identity mapping so every class misses its frames
        match = MatchResult(mapping={0: 0, 1: 1}, overlap=contingency(pred, gt))
        assert iou(pred, gt, match) == 0.0


class TestF1:
    def test_perfect(self):
        gt = np.array([0, 1, 0, 2])
        scores, _ = score(gt.copy(), gt)
        assert scores.f1 == 1.0

    def test_constant_prediction_four_classes(self):
        # matched class: P=0.25, R=1 -> F1 = 0.4; the other three get 0
        gt = np.repeat([0, 1, 2, 3], 10)
        pred = np.zeros(40, dtype=int)
        match = hungarian(contingency(pred, gt))
        assert f1(pred, gt, match) == pytest.approx(0.1)

    def test_empty_intersections(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        match = MatchResult(mapping={0: 0, 1: 1}, overlap=contingency(pred, gt))
        assert f1(pred, gt, match) == 0.0


class TestScoreInvariance:
    def test_label_permutation_invariance(self, rng):
        gt = rng.integers(0, 4, size=120)
        pred = rng.integers(0, 5, size=120)
        base, _ = score(pred, gt)
        perm = rng.permutation(5)
        renamed = perm[pred]
        permuted, _ = score(renamed, gt)
        assert base == permuted

    def test_repeated_evaluation_identical(self, rng):
        gt = rng.integers(0, 3, size=50)
        pred = rng.integers(0, 3, size=50)
        assert score(pred, gt)[0] == score(pred, gt)[0]

    def test_scores_equal_one_iff_exact(self, rng):
        gt = rng.integers(0, 3, size=30)
        pred = gt.copy()
        pred[0] = (pred[0] + 1) % 3
        scores, _ = score(pred, gt)
        assert scores.mof < 1.0 and scores.iou < 1.0 and scores.f1 < 1.0

    def test_scores_range_validated(self):
        with pytest.raises(ValueError):
            Scores(mof=1.2, iou=0.0, f1=0.0)

    def test_json_fields(self):
        payload = scores_json(Scores(0.5, 0.25, 0.4), n_frames=10, k_pred=3, k_gt=2)
        import json

        decoded = json.loads(payload)
        assert decoded == {
            "mof": 0.5, "iou": 0.25, "f1": 0.4, "n_frames": 10, "k_pred": 3, "k_gt": 2,
        }


class TestRemoveBackground:
    def _gt(self, n_bg=100, n_fg=60):
        labels = np.concatenate([np.zeros(n_bg, dtype=int), np.ones(n_fg, dtype=int)])
        return LabelSequence(labels, ("bg", "action"), background_id=0)

    def test_tau_zero_identity(self, rng):
        gt = self._gt()
        values = np.arange(160)
        filtered, gt2, kept = remove_background(values, gt, 0.0, rng)
        assert np.array_equal(filtered, values)
        assert np.array_equal(kept, np.arange(160))
        assert gt2.n_frames == 160

    def test_tau_one_drops_all_background(self, rng):
        gt = self._gt()
        values = np.arange(160)
        filtered, gt2, kept = remove_background(values, gt, 1.0, rng)
        assert gt2.n_frames == 60
        assert np.all(gt2.labels == 1)

    def test_exact_floor_count(self, rng):
        gt = self._gt(n_bg=100)
        _, gt2, kept = remove_background(np.arange(160), gt, 0.75, rng)
        assert 160 - kept.size == 75

    def test_missing_background_id(self, rng):
        gt = LabelSequence(np.array([0, 1]), ("a", "b"))
        with pytest.raises(ValueError, match="background"):
            remove_background(np.arange(2), gt, 0.5, rng)

    @pytest.mark.parametrize("tau", [-0.5, float("nan"), 1.5])
    def test_tau_range_checked_before_background(self, rng, tau):
        gt = LabelSequence(np.array([0, 1]), ("a", "b"))
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
            remove_background(np.arange(2), gt, tau, rng)

    def test_parallel_filtering_consistent(self, rng):
        gt = self._gt()
        features = rng.standard_normal((160, 4))
        seeded = np.random.default_rng(42)
        filtered, gt2, kept = remove_background(features, gt, 0.75, seeded)
        assert np.array_equal(filtered, features[kept])
        assert np.array_equal(gt2.labels, gt.labels[kept])

    def test_seeded_determinism(self, rng):
        gt = self._gt()
        values = np.arange(160)
        _, _, kept1 = remove_background(values, gt, 0.5, np.random.default_rng(9))
        _, _, kept2 = remove_background(values, gt, 0.5, np.random.default_rng(9))
        assert np.array_equal(kept1, kept2)
