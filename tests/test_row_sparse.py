"""The row-sparse training engine against dense references.

The gradient step, the epoch head (diag(F)) and triplet selection build
only rows of the N x N distributions. Their dense counterparts are the
pre-change gradient engine kept in ``dense_oracle``, the public
``combined_distribution``/``training_loss`` path, and the per-entry
Python selection rules copied below.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_oracle
from tsaseg.data_io import DATASET_PRESETS, RunConfig
from tsaseg.model import (
    ROW_BLOCK,
    _diagonal,
    _distribution_rows,
    _forward_chain,
    _loss_and_gradients,
    Workspace,
    _select_epoch_triplets,
    backward,
    combined_distribution,
    init_model,
    train,
    training_loss,
)
from tsaseg.similarity import (
    TemporalKernel,
    ZeroNormRowError,
    frame_positions,
    temporal_band,
    temporal_distribution,
)
from tsaseg.synth import SynthSpec, generate
from tsaseg.triplet import (
    Triplet,
    negative_set,
    positive_set,
    sample_triplets,
    select_triplets,
    stochastic_pool,
)

MODES = ("combined", "semantic_only", "temporal_only")


def random_instance(rng, n, d, positions_gapped, **config_kw):
    config = RunConfig(L=int(rng.integers(2, 10)), batch_size=4, **config_kw)
    X = rng.standard_normal((n, d))
    model = init_model(d, n, rng, scheme="random")
    for b in (model.b1, model.b2):
        b += rng.normal(0.0, 0.1, size=b.shape)
    model.a_raw[:] = rng.standard_normal(n)
    positions = None
    if positions_gapped:
        positions = np.sort(rng.choice(3 * n, size=n, replace=False)).astype(np.float64)
    return model, X, config, positions


def band(n, positions, config):
    """The temporal band the training engine builds once per video."""
    return temporal_band(frame_positions(n, positions), TemporalKernel(config.L))


def hinge_gaps(F, triplets, raw):
    """Per-triplet hinge argument from dense rows."""
    if raw:
        return np.array([F[t.anchor, t.negative] - F[t.anchor, t.positive] for t in triplets])
    logF = np.log(F)
    return np.array([F[t.anchor] @ (logF[t.negative] - logF[t.positive]) for t in triplets])


class TestGradientOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 48),
        d=st.integers(1, 9),
        similarity_mode=st.sampled_from(MODES),
        loss_features=st.sampled_from(("pdf", "raw")),
        per_anchor=st.integers(1, 4),
        n_anchors=st.integers(1, 4),
        positions_gapped=st.booleans(),
    )
    def test_matches_dense_engine(
        self, seed, n, d, similarity_mode, loss_features,
        per_anchor, n_anchors, positions_gapped,
    ):
        rng = np.random.default_rng(seed)
        model, X, config, positions = random_instance(
            rng, n, d, positions_gapped,
            similarity_mode=similarity_mode, loss_features=loss_features, per_anchor=per_anchor,
        )
        # Anchors repeat across triplets (per_anchor > 1, and anchors drawn
        # with replacement), and frames recur as positive and negative.
        triplets = []
        for a in rng.integers(0, n, size=n_anchors).tolist():
            for _ in range(per_anchor):
                p, q = rng.choice(np.delete(np.arange(n), a), size=2, replace=False)
                triplets.append(Triplet(a, int(p), int(q)))
        ft = temporal_distribution(n, TemporalKernel(config.L), positions)
        try:
            dense_cache = dense_oracle._forward_chain(model, X, ft.rows, config)
        except ZeroNormRowError:
            assume(False)
        # Keep triplets clear of the hinge kink, where the active set is
        # decided by the last rounding bit of either engine.
        dense_rows = dense_cache["S"] if loss_features == "raw" else dense_cache["F"]
        gaps = hinge_gaps(dense_rows, triplets, loss_features == "raw")
        triplets = [t for t, g in zip(triplets, gaps) if abs(g) > 1e-6]
        assume(triplets)

        want_loss, want = dense_oracle._loss_and_gradients(model, dense_cache, triplets, config)
        cache = _forward_chain(model, X, band(n, positions, config), config)
        loss, got = _loss_and_gradients(model, cache, triplets, config)

        # The loss is a mean of differences of KL divergences between rows
        # that sum to 1, so roundoff in the rows enters it on a scale of 1.
        loss_scale = max(abs(want_loss), 1.0)
        assert abs(loss - want_loss) <= 1e-12 * loss_scale
        assert abs(loss - training_loss(model, X, triplets, config, positions)) <= 1e-12 * loss_scale
        # Every block on the scale of the largest gradient entry: a block
        # that is mathematically zero (say the last bias when all learned
        # rows coincide) holds only roundoff of sums of larger terms.
        assert got.keys() == want.keys()
        scale = max(float(np.max(np.abs(g))) for g in want.values())
        for name, g in want.items():
            assert np.max(np.abs(got[name] - g)) <= 1e-12 * scale, name


class TestEpochHead:
    def test_diagonal_and_anchor_rows_match_dense(self):
        rng = np.random.default_rng(4)
        n = 2 * ROW_BLOCK + 37  # three row blocks, the last one partial
        for mode in MODES:
            for gapped in (False, True):
                model, X, config, positions = random_instance(
                    rng, n, 6, gapped, similarity_mode=mode
                )
                dense = combined_distribution(model, X, config, positions).rows
                cache = _forward_chain(model, X, band(n, positions, config), config)
                assert np.allclose(_diagonal(cache, config), np.diag(dense), rtol=1e-12, atol=0)
                anchors = np.sort(rng.choice(n, size=20, replace=False))
                rows = _distribution_rows(cache, anchors, config)["F"]
                assert np.allclose(rows, dense[anchors], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("L", [7, 14])
    def test_closed_band_diagonal_and_rows_match_dense(self, L, mode):
        # positions at half frames put frames exactly L/2 apart, where the
        # kernel rounds to 2.2e-16 rather than 0 for L = 7 and 14
        rng = np.random.default_rng(L)
        n = ROW_BLOCK + 61
        model, X, config, _ = random_instance(rng, n, 6, False, similarity_mode=mode)
        config = replace(config, L=L)
        positions = np.sort(rng.choice(3 * n, size=n, replace=False)) / 2.0
        assert np.any(np.abs(positions[:, None] - positions[None, :]) == L / 2)
        dense = combined_distribution(model, X, config, positions).rows
        cache = _forward_chain(model, X, band(n, positions, config), config)
        assert np.allclose(_diagonal(cache, config), np.diag(dense), rtol=1e-12, atol=0)
        anchors = np.sort(rng.choice(n, size=30, replace=False))
        rows = _distribution_rows(cache, anchors, config)["F"]
        assert np.allclose(rows, dense[anchors], rtol=1e-12, atol=0)

    def test_epoch_selection_equals_dense_selection(self):
        rng = np.random.default_rng(9)
        n = ROW_BLOCK + 50
        model, X, config, positions = random_instance(rng, n, 5, True, per_anchor=3)
        config = replace(config, batch_size=1)  # every frame is an anchor: two blocks
        cache = _forward_chain(model, X, band(n, positions, config), config)
        got = _select_epoch_triplets(cache, config, np.random.default_rng(21))
        dense = combined_distribution(model, X, config, positions)
        want_rng = np.random.default_rng(21)
        pool = stochastic_pool(dense, config.batch_size, want_rng, config.pool_mode)
        want = sample_triplets(dense, pool, want_rng, config.per_anchor, config.positive_fraction)
        assert got == want


# The selection rules as the seed wrote them, one Python comparison per entry.


def reference_positive_set(rows, anchor, fraction=0.05):
    n = rows.shape[0]
    count = math.ceil(fraction * n)
    count = max(1, min(count, n - 2 if n > 2 else 1))
    candidates = np.array([j for j in range(n) if j != anchor])
    order = sorted(candidates, key=lambda j: (-rows[anchor, j], abs(j - anchor), j))
    return np.array(sorted(order[:count]), dtype=np.int64)


def reference_negative_set(rows, anchor, exclude=None):
    n = rows.shape[0]
    excluded = set() if exclude is None else set(int(j) for j in exclude)
    off_diag = np.array([rows[anchor, j] for j in range(n) if j != anchor])
    mean = off_diag.mean()
    std = off_diag.std()
    candidates = [j for j in range(n) if j != anchor and j not in excluded]
    band = [j for j in candidates if mean <= rows[anchor, j] <= mean + std]
    if band:
        return np.array(band, dtype=np.int64)
    fallback = min(candidates, key=lambda j: (abs(rows[anchor, j] - mean), abs(j - anchor), j))
    return np.array([fallback], dtype=np.int64)


def tied_rows(rng, n, levels):
    """Rows drawn from a few distinct values, so most entries tie."""
    values = rng.uniform(0.0, 1.0, size=levels)
    rows = values[rng.integers(0, levels, size=(n, n))]
    return rows / rows.sum(axis=1, keepdims=True)


def fallback_rows(rng, n):
    """Bimodal rows whose [mean, mean + std] band holds no entry.

    A few high entries and many low ones: the band lies in the gap. The
    low entries take two values equally far from the mean's side, so the
    fallback must break ties by temporal distance.
    """
    rows = np.full((n, n), 1.0)
    for i in range(n):
        high = rng.choice(n, size=max(1, n // 8), replace=False)
        rows[i, high] = 20.0
        low = rng.random(n) < 0.5
        rows[i, low & (rows[i] < 20.0)] = 1.5
    return rows / rows.sum(axis=1, keepdims=True)


class TestVectorisedSelection:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 70),
        levels=st.integers(1, 5),
        fraction=st.sampled_from((0.01, 0.05, 0.2, 0.5, 0.9)),
    )
    def test_sets_equal_reference_on_tied_rows(self, seed, n, levels, fraction):
        rng = np.random.default_rng(seed)
        rows = tied_rows(rng, n, levels)
        for anchor in rng.choice(n, size=min(n, 6), replace=False).tolist():
            pos = positive_set(rows[anchor], anchor, fraction)
            want_pos = reference_positive_set(rows, anchor, fraction)
            assert pos.dtype == want_pos.dtype and np.array_equal(pos, want_pos)
            for exclude in (None, want_pos):
                neg = negative_set(rows[anchor], anchor, exclude=exclude)
                want_neg = reference_negative_set(rows, anchor, exclude)
                assert neg.dtype == want_neg.dtype and np.array_equal(neg, want_neg)

    def test_empty_band_fallback_equals_reference(self):
        rng = np.random.default_rng(5)
        seen_fallback = 0
        for n in (8, 17, 40, 64):
            rows = fallback_rows(rng, n)
            for anchor in range(n):
                pos = positive_set(rows[anchor], anchor)
                assert np.array_equal(pos, reference_positive_set(rows, anchor))
                neg = negative_set(rows[anchor], anchor, exclude=pos)
                want = reference_negative_set(rows, anchor, pos)
                assert np.array_equal(neg, want)
                seen_fallback += want.size == 1
        assert seen_fallback > 0  # the fixture really empties the band

    def test_blocked_selection_equals_one_block(self):
        rng = np.random.default_rng(2)
        rows = tied_rows(rng, 60, 3)
        anchors = np.arange(0, 60, 3)
        children = np.random.default_rng(8).spawn(anchors.size)
        whole = select_triplets(rows[anchors], anchors, children, 2)
        children = np.random.default_rng(8).spawn(anchors.size)
        halves = select_triplets(rows[anchors[:7]], anchors[:7], children[:7], 2)
        halves += select_triplets(rows[anchors[7:]], anchors[7:], children[7:], 2)
        assert whole == halves


class TestMemoryScaling:
    @staticmethod
    def peak_bytes(n):
        feats, _ = generate(
            SynthSpec(n_segments=16, frames_per_segment=(190, 210), dims=64,
                      n_action_classes=6, noise_sigma=0.35, seed=0)
        )
        x = np.ascontiguousarray(feats.values[:n])
        config = replace(DATASET_PRESETS["breakfast"], max_epochs=1)
        tracemalloc.start()
        try:
            train(x, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_linearly_in_frames(self):
        small, large = self.peak_bytes(1500), self.peak_bytes(3000)
        assert large / small < 3.0  # dense N x N state would give about 4
        assert large < 3000 * 3000 * 8  # below one N x N float64 matrix


class TestWorkspace:
    def test_step_in_a_built_workspace_allocates_less_than_one_feature_matrix(self):
        n, d = 1500, 64
        feats, _ = generate(
            SynthSpec(n_segments=16, frames_per_segment=(190, 210), dims=d,
                      n_action_classes=6, noise_sigma=0.35, seed=0)
        )
        X = np.ascontiguousarray(feats.values[:n])
        config = DATASET_PRESETS["breakfast"]
        model = init_model(d, n, np.random.default_rng(0), scheme="random")
        work = Workspace.allocate(n, d)
        cache = _forward_chain(model, X, band(n, None, config), config, work)
        triplets = _select_epoch_triplets(cache, config, np.random.default_rng(1))
        triplets = triplets[: config.per_anchor]  # one training step's batch
        tracemalloc.start()
        try:
            cache = _forward_chain(model, X, cache["band"], config, work)
            _, grads = _loss_and_gradients(model, cache, triplets, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the allocating step made about ten n x d float64 temporaries
        assert peak < n * d * 8
        assert cache["U"] is work.Z
        # the same bytes as a step on fresh buffers
        fresh = backward(model, X, triplets, config)
        assert all(grads[name].tobytes() == g.tobytes() for name, g in fresh.items())
