"""The row-sparse training engine against dense references.

The gradient step, the epoch head (diag(F)) and triplet selection build
only rows of the N x N distributions. Their dense counterparts are the
pre-change gradient engine kept in ``dense_oracle``, the public
``combined_distribution``/``training_loss`` path, and the per-entry
Python selection rules copied below.
"""

import math
import tracemalloc
from dataclasses import fields, replace

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
    _preactivation_bound,
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


def chain(model, X, positions, config):
    """A workspace built as the training engine builds it, holding the chain at ``model``."""
    work = Workspace.allocate(X, positions, config.L)
    _forward_chain(model, work, config)
    return work


def assert_gradients_match(got, want):
    """Every block on the scale of the largest gradient entry.

    A block that is mathematically zero (say the last bias when all
    learned rows coincide) holds only roundoff of sums of larger terms.
    """
    assert got.keys() == want.keys()
    scale = max(float(np.max(np.abs(g))) for g in want.values())
    for name, g in want.items():
        assert np.max(np.abs(got[name] - g)) <= 1e-12 * scale, name


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
        unclipped=st.booleans(),
    )
    def test_matches_dense_engine(
        self, seed, n, d, similarity_mode, loss_features,
        per_anchor, n_anchors, positions_gapped, unclipped,
    ):
        rng = np.random.default_rng(seed)
        model, X, config, positions = random_instance(
            rng, n, d, positions_gapped,
            similarity_mode=similarity_mode, loss_features=loss_features, per_anchor=per_anchor,
        )
        if unclipped:
            # every pre-activation >= 0.1: the step takes both weight
            # gradients from one product (the branch training runs)
            pre = X @ model.W1.T + model.b1
            model.b1 += np.maximum(0.1 - pre.min(axis=0), 0.0)
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
        work = chain(model, X, positions, config)
        assert work.linear or not unclipped
        loss, got = _loss_and_gradients(model, work, triplets, config)

        # The loss is a mean of differences of KL divergences between rows
        # that sum to 1, so roundoff in the rows enters it on a scale of 1.
        loss_scale = max(abs(want_loss), 1.0)
        assert abs(loss - want_loss) <= 1e-12 * loss_scale
        assert abs(loss - training_loss(model, X, triplets, config, positions)) <= 1e-12 * loss_scale
        assert_gradients_match(got, want)

    def test_unit_exactly_at_zero_is_clipped(self):
        # relu'(0) = 0: one pre-activation of exactly 0.0 sends the step
        # down the mask path, where that unit passes no gradient
        rng = np.random.default_rng(3)
        n, d = 12, 4
        model, X, config, _ = random_instance(rng, n, d, False)
        model.W1 = np.eye(d)
        model.b1 = np.full(d, 1.0 + max(0.0, -float(X.min())))
        X[5, 2] = -model.b1[2]  # pre = X W1^T + b1 is exact with W1 = I
        work = chain(model, X, None, config)
        assert not work.linear
        assert np.count_nonzero(work.hid == 0.0) == 1 and work.hid[5, 2] == 0.0
        triplets = [Triplet(5, 6, 0), Triplet(5, 1, 9), Triplet(2, 5, 11), Triplet(8, 3, 5)]
        ft = temporal_distribution(n, TemporalKernel(config.L)).rows
        dense_cache = dense_oracle._forward_chain(model, X, ft, config)
        assert np.all(np.abs(hinge_gaps(dense_cache["F"], triplets, False)) > 1e-6)
        _, want = dense_oracle._loss_and_gradients(model, dense_cache, triplets, config)
        assert_gradients_match(backward(model, X, triplets, config), want)


    def test_raw_loss_step_builds_no_distribution_rows(self, monkeypatch):
        # the raw loss reads cosine rows only; a PDF row would be waste
        rng = np.random.default_rng(11)
        n = 40
        model, X, config, positions = random_instance(rng, n, 5, True, loss_features="raw")
        triplets = [Triplet(a, (a + 7) % n, (a + 19) % n) for a in range(0, n, 3)]
        ft = temporal_distribution(n, TemporalKernel(config.L), positions)
        dense_cache = dense_oracle._forward_chain(model, X, ft.rows, config)
        triplets = [t for t, g in zip(triplets, hinge_gaps(dense_cache["S"], triplets, True))
                    if abs(g) > 1e-6]
        assert triplets
        _, want = dense_oracle._loss_and_gradients(model, dense_cache, triplets, config)

        def refuse(*args):
            raise AssertionError("the raw-loss step built distribution rows")

        monkeypatch.setattr("tsaseg.model._distribution_rows", refuse)
        assert_gradients_match(backward(model, X, triplets, config, positions), want)


def unclipped_instance(seed, n=40, d=6):
    """A random instance whose pre-activations are all >= 0.1, and triplets clear of the kink."""
    rng = np.random.default_rng(seed)
    model, X, config, positions = random_instance(rng, n, d, True, per_anchor=2)
    model.b1 += np.maximum(0.1 - (X @ model.W1.T + model.b1).min(axis=0), 0.0)
    triplets = [Triplet(a, (a + 5) % n, (a + 17) % n) for a in range(0, n, 3)]
    return model, X, config, positions, triplets


def dense_gradients(model, X, positions, config, triplets):
    """The dense oracle's gradients, on the triplets clear of the hinge kink, and those triplets."""
    ft = temporal_distribution(X.shape[0], TemporalKernel(config.L), positions)
    cache = dense_oracle._forward_chain(model, X, ft.rows, config)
    triplets = [t for t, g in zip(triplets, hinge_gaps(cache["F"], triplets, False))
                if abs(g) > 1e-6]
    assert triplets
    return dense_oracle._loss_and_gradients(model, cache, triplets, config)[1], triplets


class TestForwardPath:
    """The one-product forward pass runs only while the pre-activation bound holds."""

    def test_failed_bound_without_clipping_runs_the_mlp(self):
        model, X, config, positions, triplets = unclipped_instance(1)
        work = chain(model, X, positions, config)
        assert work.linear and np.array_equal(work.W1_ref, model.W1)
        # a large move of W1 breaks the bound; b1 keeps every unit unclipped
        model.W1 += 3.0 * np.random.default_rng(2).standard_normal(model.W1.shape)
        model.b1 += np.maximum(0.1 - (X @ model.W1.T + model.b1).min(axis=0), 0.0)
        assert _preactivation_bound(model, work).min() <= 0
        _forward_chain(model, work, config)
        assert work.linear
        assert np.array_equal(work.W1_ref, model.W1)  # the exact pass took a new reference
        want, triplets = dense_gradients(model, X, positions, config, triplets)
        assert_gradients_match(_loss_and_gradients(model, work, triplets, config)[1], want)

    def test_unit_clipping_after_the_reference_takes_the_mask_branch(self):
        model, X, config, positions, triplets = unclipped_instance(3)
        work = chain(model, X, positions, config)
        reference = work.W1_ref.copy()
        # unit 0's pre-activation now straddles zero: some frames clip
        pre = X @ model.W1[0] + model.b1[0]
        model.b1[0] -= (pre.min() + pre.max()) / 2.0
        _forward_chain(model, work, config)
        assert not work.linear
        assert np.array_equal(work.W1_ref, reference)  # a clipped pass is no reference
        want, triplets = dense_gradients(model, X, positions, config, triplets)
        assert_gradients_match(_loss_and_gradients(model, work, triplets, config)[1], want)

    def test_step_in_a_built_workspace_takes_one_product(self, monkeypatch):
        model, X, config, positions, triplets = unclipped_instance(5)
        work = chain(model, X, positions, config)
        reference = work.W1_ref.copy()
        _, grads = _loss_and_gradients(model, work, triplets, config)
        for name, param in model.param_items():
            param -= 0.01 * grads[name]
        assert _preactivation_bound(model, work).min() > 0

        def refuse(*args):
            raise AssertionError("the forward pass ran the MLP")

        with monkeypatch.context() as patch:
            patch.setattr("tsaseg.model._mlp", refuse)
            _forward_chain(model, work, config)
        assert work.linear and np.array_equal(work.W1_ref, reference)
        want, triplets = dense_gradients(model, X, positions, config, triplets)
        got = _loss_and_gradients(model, work, triplets, config)[1]
        assert_gradients_match(got, want)
        assert_gradients_match(got, backward(model, X, triplets, config, positions))


class TestEpochHead:
    def test_diagonal_and_anchor_rows_match_dense(self):
        # the head builds each kernel pair once, so every block edge
        # decides which block adds a pair to which row sum; the last n
        # has three row blocks, the last one partial
        rng = np.random.default_rng(4)
        for n in (2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 37):
            for mode in MODES:
                for gapped in (False, True):
                    model, X, config, positions = random_instance(
                        rng, n, 6, gapped, similarity_mode=mode
                    )
                    dense = combined_distribution(model, X, config, positions).rows
                    work = chain(model, X, positions, config)
                    assert np.allclose(
                        _diagonal(work, config), np.diag(dense), rtol=1e-12, atol=0
                    ), (n, mode, gapped)
                    anchors = np.sort(rng.choice(n, size=min(20, n), replace=False))
                    rows = _distribution_rows(work, anchors, config)["F"]
                    assert np.allclose(rows, dense[anchors], rtol=1e-12, atol=0)

    def test_head_allocates_one_row_block_plus_linear(self):
        rng = np.random.default_rng(6)
        n = 3 * ROW_BLOCK + 5
        model, X, config, positions = random_instance(rng, n, 6, True)
        work = chain(model, X, positions, config)
        tracemalloc.start()
        try:
            _diagonal(work, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one ROW_BLOCK x n float64 block and a few length-n vectors
        assert peak <= (ROW_BLOCK + 10) * n * 8

    def test_selection_holds_four_row_blocks_plus_linear(self, monkeypatch):
        # 188 anchors: a full row block and a partial one
        rng = np.random.default_rng(6)
        n = 3000
        model, X, config, positions = random_instance(rng, n, 6, True)
        config = replace(config, batch_size=16)
        work = chain(model, X, positions, config)
        head = _diagonal(work, config)
        monkeypatch.setattr("tsaseg.model._diagonal", lambda work, config: head)
        tracemalloc.start()
        try:
            triplets = _select_epoch_triplets(work, config, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(triplets) // config.per_anchor > ROW_BLOCK
        # FS, ft, F and the (1 - alpha) FS term, each ROW_BLOCK x n float64,
        # plus a few length-n vectors and the anchors' generators
        assert peak <= (4 * ROW_BLOCK + 16) * n * 8

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
        work = chain(model, X, positions, config)
        assert np.allclose(_diagonal(work, config), np.diag(dense), rtol=1e-12, atol=0)
        anchors = np.sort(rng.choice(n, size=30, replace=False))
        rows = _distribution_rows(work, anchors, config)["F"]
        assert np.allclose(rows, dense[anchors], rtol=1e-12, atol=0)

    def test_epoch_selection_equals_dense_selection(self):
        rng = np.random.default_rng(9)
        n = ROW_BLOCK + 50
        model, X, config, positions = random_instance(rng, n, 5, True, per_anchor=3)
        config = replace(config, batch_size=1)  # every frame is an anchor: two blocks
        work = chain(model, X, positions, config)
        got = _select_epoch_triplets(work, config, np.random.default_rng(21))
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
    @staticmethod
    def array_shapes(work):
        return {f.name: getattr(work, f.name).shape for f in fields(work)
                if isinstance(getattr(work, f.name), np.ndarray)}

    def test_allocate_holds_four_feature_sized_buffers(self):
        X = np.ones((7, 3))
        shapes = self.array_shapes(Workspace.allocate(X, None, 3))
        assert [name for name, shape in shapes.items() if name != "X" and shape == X.shape] \
            == ["hid", "Z", "dU", "tmp"]
        # no stored array grows with the window: the narrowest and the widest agree
        assert self.array_shapes(Workspace.allocate(X, None, 1)) == shapes
        assert self.array_shapes(Workspace.allocate(X, None, X.shape[0] - 1)) == shapes

    def test_step_in_a_built_workspace_allocates_less_than_one_feature_matrix(self):
        n, d = 1500, 64
        feats, _ = generate(
            SynthSpec(n_segments=16, frames_per_segment=(190, 210), dims=d,
                      n_action_classes=6, noise_sigma=0.35, seed=0)
        )
        X = np.ascontiguousarray(feats.values[:n])
        config = DATASET_PRESETS["breakfast"]
        model = init_model(d, n, np.random.default_rng(0), scheme="random")
        work = chain(model, X, None, config)
        triplets = _select_epoch_triplets(work, config, np.random.default_rng(1))
        triplets = triplets[: config.per_anchor]  # one training step's batch
        tracemalloc.start()
        try:
            _forward_chain(model, work, config)
            _, grads = _loss_and_gradients(model, work, triplets, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the allocating step made about ten n x d float64 temporaries
        assert peak < n * d * 8
        assert work.U is work.Z  # normalised in place
        # the same bytes as a step on fresh buffers
        fresh = backward(model, X, triplets, config)
        assert all(grads[name].tobytes() == g.tobytes() for name, g in fresh.items())
