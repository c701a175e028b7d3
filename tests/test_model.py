import math

import numpy as np
import pytest

from tsaseg.data_io import FeatureMatrix, RunConfig
from tsaseg.model import (
    LR_DECAY,
    PATIENCE,
    WEIGHT_DECAY,
    DivergenceError,
    TsaModel,
    backward,
    combined_distribution,
    forward,
    init_model,
    kl_divergence,
    train,
    training_loss,
    triplet_loss,
)
from tsaseg.similarity import AffinityMatrix
from tsaseg.triplet import Triplet
from tsaseg.synth import SynthSpec, generate


def finite_difference_gradients(model, X, triplets, config, step=1e-5):
    """Central differences through the public-op loss path (independent oracle)."""
    grads = {}
    for name, param in model.param_items():
        g = np.zeros_like(param)
        flat, gflat = param.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = training_loss(model, X, triplets, config)
            flat[i] = orig - step
            minus = training_loss(model, X, triplets, config)
            flat[i] = orig
            gflat[i] = (plus - minus) / (2.0 * step)
        grads[name] = g
    return grads


def generic_instance(seed, n_frames=20, n_dims=8, n_triplets=8, **config_kw):
    """A random model/data/triplet instance at a point where the loss is
    differentiable: nonzero biases keep learned rows off zero norm, and
    instances whose hinge or ReLU margins are too tight are re-drawn."""
    for attempt in range(50):
        rng = np.random.default_rng(seed + 1_000_003 * attempt)
        X = rng.standard_normal((n_frames, n_dims))
        config = RunConfig(L=6, batch_size=4, **config_kw)
        model = init_model(n_dims, n_frames, rng)
        for b in (model.b1, model.b2):
            b += rng.normal(0.0, 0.1, size=b.shape)
        model.a_raw[:] = 0.5 * rng.standard_normal(n_frames)
        triplets = []
        while len(triplets) < n_triplets:
            i, p, q = (int(v) for v in rng.choice(n_frames, size=3, replace=False))
            triplets.append(Triplet(i, p, q))
        pre_act = X @ model.W1.T + model.b1
        fts = combined_distribution(model, X, config)
        gaps = []
        for t in triplets:
            gaps.append(
                kl_divergence(fts.rows[t.anchor], fts.rows[t.positive])
                - kl_divergence(fts.rows[t.anchor], fts.rows[t.negative])
            )
        well_conditioned = (
            np.min(np.abs(pre_act)) > 1e-4
            and np.min(np.abs(gaps)) > 1e-3
            and np.max(gaps) > 0.0  # some hinge terms active, some inactive
            and np.min(gaps) < 0.0
        )
        if well_conditioned:
            return model, X, triplets, config
    raise RuntimeError("could not draw a well-conditioned instance")


def max_relative_error(analytic, numeric):
    # The denominator floor sits above the oracle's own noise: central
    # differences with step 1e-5 carry ~|loss|*eps/step ~ 1e-11 roundoff,
    # which would swamp the ratio at components whose true gradient is 0
    # (e.g. a frame acting as positive and negative for the same anchor).
    worst = 0.0
    for name in analytic:
        a, b = analytic[name].ravel(), numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


class TestForward:
    def test_identity_network_on_nonnegative_input(self, rng):
        X = np.abs(rng.standard_normal((5, 3)))
        model = TsaModel(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3), np.zeros(5))
        assert np.allclose(forward(model, X), X)

    def test_zero_weights_give_bias_rows(self, rng):
        b2 = np.array([1.0, -2.0, 3.0])
        model = TsaModel(np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)), b2.copy(), np.zeros(4))
        out = forward(model, rng.standard_normal((4, 3)))
        assert np.allclose(out, np.tile(b2, (4, 1)))

    def test_relu_clips_negative_coordinate(self):
        model = TsaModel(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), np.zeros(2))
        out = forward(model, np.array([[1.0, -1.0], [2.0, 0.5]]))
        assert np.allclose(out[0], [1.0, 0.0])

    def test_width_mismatch_rejected(self, rng):
        model = init_model(4, 6, rng)
        with pytest.raises(ValueError, match="width"):
            forward(model, rng.standard_normal((6, 5)))

    def test_identity_init_is_exact(self, rng):
        X = rng.standard_normal((12, 6))
        model = init_model(6, 12, rng, scheme="identity", X=X)
        assert np.allclose(forward(model, X), X, atol=1e-12)

    def test_random_init_bounds(self, rng):
        model = init_model(9, 5, rng, scheme="random")
        bound = 1.0 / math.sqrt(9)
        for w in (model.W1, model.W2):
            assert np.all(np.abs(w) <= bound)
        assert np.all(model.alpha == 0.5)


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_closed_form_pair(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)
        assert kl_divergence(p, q) == pytest.approx(0.1438410362258904, abs=1e-12)

    def test_asymmetry(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p), abs=1e-6)

    def test_non_negative_on_random_pairs(self, rng):
        for _ in range(100):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            if p.min() > 0 and q.min() > 0:
                assert kl_divergence(p, q) >= 0.0

    def test_non_positive_entry_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_nan_entry_rejected(self, side):
        nan_row, ok_row = np.array([np.nan, 0.5]), np.array([0.5, 0.5])
        p, q = (nan_row, ok_row) if side == "p" else (ok_row, nan_row)
        with pytest.raises(ValueError, match="positive"):
            kl_divergence(p, q)


class TestTripletLoss:
    def _rows(self):
        rows = np.array(
            [
                [0.70, 0.20, 0.10],
                [0.65, 0.25, 0.10],
                [0.10, 0.30, 0.60],
            ]
        )
        return AffinityMatrix(rows, kind="semantic")

    def test_hand_computed_three_frames(self):
        fts = self._rows()
        t = [Triplet(0, 1, 2)]
        kl_pos = kl_divergence(fts.rows[0], fts.rows[1])
        kl_neg = kl_divergence(fts.rows[0], fts.rows[2])
        assert triplet_loss(fts, t) == pytest.approx(max(0.0, kl_pos - kl_neg), abs=1e-15)

    def test_perfect_positive_inactive_hinge(self):
        rows = self._rows().rows.copy()
        rows[1] = rows[0]
        fts = AffinityMatrix(rows, kind="semantic")
        assert triplet_loss(fts, [Triplet(0, 1, 2)]) == 0.0

    def test_all_equal_rows_zero_both_orientations(self):
        rows = np.full((3, 3), 1.0 / 3.0)
        fts = AffinityMatrix(rows, kind="semantic")
        assert triplet_loss(fts, [Triplet(0, 1, 2)]) == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            triplet_loss(self._rows(), [])


class TestBackward:
    def test_matches_finite_differences(self):
        model, X, triplets, config = generic_instance(0)
        analytic = backward(model, X, triplets, config)
        numeric = finite_difference_gradients(model, X, triplets, config)
        assert max_relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize(
        "kw",
        [
            {"similarity_mode": "semantic_only"},
            {"loss_features": "raw"},
        ],
    )
    def test_matches_finite_differences_variants(self, kw):
        model, X, triplets, config = generic_instance(17, **kw)
        analytic = backward(model, X, triplets, config)
        numeric = finite_difference_gradients(model, X, triplets, config)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_loss_zero_gradients(self, rng):
        # a positive with the anchor's exact feature vector keeps the hinge
        # inactive (KL to the positive is 0); semantic-only mode so the
        # temporal prior cannot separate the two rows
        X = rng.standard_normal((12, 4))
        X[1] = X[0]
        config = RunConfig(L=4, batch_size=4, similarity_mode="semantic_only")
        model = init_model(4, 12, rng, scheme="identity", X=X)
        triplets = [Triplet(0, 1, 6)]
        assert training_loss(model, X, triplets, config) == 0.0
        grads = backward(model, X, triplets, config)
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_alpha_gradient_saturates(self):
        model, X, triplets, config = generic_instance(3)
        grads_mid = backward(model, X, triplets, config)
        model.a_raw[:] = -40.0  # logistic saturation: d(alpha)/d(a_raw) ~ 0
        grads_sat = backward(model, X, triplets, config)
        assert np.max(np.abs(grads_sat["a_raw"])) < 1e-12
        assert np.max(np.abs(grads_mid["a_raw"])) > 0.0

    def test_semantic_only_alpha_gradient_is_exactly_zero(self):
        # alpha is fixed at 0, so the factor alpha*(1 - alpha) zeroes
        # dL/da_raw exactly even where the hinge is active
        model, X, triplets, config = generic_instance(11, similarity_mode="semantic_only")
        assert training_loss(model, X, triplets, config) > 0.0
        grads = backward(model, X, triplets, config)
        assert np.all(grads["a_raw"] == 0.0)
        assert np.max(np.abs(grads["W1"])) > 0.0

    def test_temporal_only_gradients_vanish(self):
        model, X, triplets, config = generic_instance(5, similarity_mode="temporal_only")
        grads = backward(model, X, triplets, config)
        for g in grads.values():
            assert np.all(g == 0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda model, X, triplets, config: backward(model, X, triplets, config),
            lambda model, X, triplets, config: training_loss(model, X, triplets, config),
            lambda model, X, triplets, config: combined_distribution(model, X, config),
        ],
        ids=["backward", "training_loss", "combined_distribution"],
    )
    def test_frame_count_mismatch_rejected(self, call):
        model, X, triplets, config = generic_instance(3)
        with pytest.raises(ValueError, match="22 frames, the model 20"):
            call(model, np.vstack([X, X[:2]]), triplets, config)

    @pytest.mark.parametrize("call", [backward, training_loss], ids=["backward", "training_loss"])
    def test_triplet_frame_past_video_rejected(self, call):
        model, X, triplets, config = generic_instance(3)
        with pytest.raises(ValueError, match="frame 20 is out of range for 20 frames"):
            call(model, X, triplets + [Triplet(0, 1, 20)], config)

    def test_non_finite_parameters_raise(self):
        model, X, triplets, config = generic_instance(8)
        model.W1[0, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            backward(model, X, triplets, config)


class TestTrain:
    def _video(self, seed=0, sigma=0.1):
        feats, gt = generate(
            SynthSpec(
                n_segments=4,
                frames_per_segment=(18, 24),
                dims=8,
                n_action_classes=4,
                noise_sigma=sigma,
                center_separation=1.0,
                seed=seed,
            )
        )
        return feats, gt

    def test_epoch_bounds_enforced(self):
        feats, _ = self._video()
        cfg = RunConfig(batch_size=16, max_epochs=2, seed=0)
        _, _, state = train(feats, cfg)
        assert state.epoch == 2
        assert len(state.loss_history) == 2

    def test_constant_video_stops_early_with_zero_loss(self):
        X = FeatureMatrix(np.tile([1.0, 2.0, 0.5, 1.5], (40, 1)))
        cfg = RunConfig(batch_size=8, L=4, seed=1)
        _, z, state = train(X, cfg)
        assert all(v == 0.0 for v in state.loss_history)
        # the first epoch has no delta; PATIENCE sub-epsilon deltas follow
        assert state.epoch == PATIENCE + 1
        # weight decay drifts the identity map slightly; structure preserved
        assert np.allclose(z.values, X.values, atol=0.05)

    def test_determinism_bit_identical(self):
        feats, _ = self._video(seed=3)
        cfg = RunConfig(batch_size=16, seed=11, max_epochs=6)
        _, z1, s1 = train(feats, cfg)
        _, z2, s2 = train(feats, cfg)
        assert np.array_equal(z1.values, z2.values)
        assert s1.loss_history == s2.loss_history

    def test_lr_schedule_decays_exponentially(self):
        feats, _ = self._video(seed=2)
        seen = []
        cfg = RunConfig(batch_size=16, seed=5, max_epochs=4, epsilon_stop=1e-12)
        _, _, state = train(feats, cfg, on_epoch=lambda e, loss, lr: seen.append((e, lr)))
        assert state.epoch == 4
        for e, lr in seen:
            assert lr == pytest.approx(cfg.learning_rate * LR_DECAY ** (e - 1), rel=1e-12)

    def test_weight_decay_shrinks_parameters_exactly(self):
        # constant video: loss 0, gradients 0, so each step is a pure shrink
        X = FeatureMatrix(np.tile([0.5, 1.0, 2.0], (30, 1)))
        cfg = RunConfig(batch_size=30, L=4, seed=0, max_epochs=1)
        model, _, state = train(X, cfg)
        factor = 1.0 - cfg.learning_rate * 2.0 * WEIGHT_DECAY
        reference = init_model(3, 30, np.random.default_rng(cfg.seed), scheme="identity", X=X.values)
        assert state.epoch == 1
        for (_, got), (_, want) in zip(model.param_items(), reference.param_items()):
            assert np.array_equal(got, want * factor)

    def test_batch_size_larger_than_video_rejected(self):
        feats, _ = self._video()
        with pytest.raises(ValueError, match="batch_size"):
            train(feats, RunConfig(batch_size=10_000))

    def test_zero_feature_row_aborts_with_last_state(self, rng):
        # identity init maps a zero input row to a zero learned row,
        # where cosine similarity is undefined
        X = rng.standard_normal((20, 6))
        X[4] = 0.0
        cfg = RunConfig(batch_size=5, seed=2)
        model, z, state = train(FeatureMatrix(X), cfg)
        assert state.diverged
        assert state.epoch == 0
        assert all(np.all(np.isfinite(param)) for _, param in model.param_items())

    def test_training_progress_monte_carlo(self):
        # Monte-Carlo oracle over 10 seeds on a noisy 4-class video:
        # across-seed mean epoch loss must drop, and a majority of seeds
        # must end below their start. Per-seed strict descent is noisy
        # because each epoch re-samples its triplets and boundary anchors
        # carry irreducible temporal-prior violations.
        firsts, finals, wins = [], [], 0
        for seed in range(10):
            feats, _ = generate(
                SynthSpec(
                    n_segments=6,
                    frames_per_segment=(36, 44),
                    dims=16,
                    n_action_classes=4,
                    noise_sigma=0.3,
                    center_separation=1.0,
                    seed=seed,
                )
            )
            cfg = RunConfig(
                batch_size=16, seed=seed, learning_rate=0.3, per_anchor=32,
                max_epochs=6, epsilon_stop=1e-12,
            )
            _, _, state = train(feats, cfg)
            assert state.epoch == 6
            firsts.append(state.loss_history[0])
            finals.append(state.loss_history[-1])
            wins += state.loss_history[-1] < state.loss_history[0]
        assert np.mean(finals) < np.mean(firsts)
        assert wins >= 6

    def test_uniform_pooling_trains(self):
        feats, _ = self._video()
        cfg = RunConfig(batch_size=16, seed=0, max_epochs=4, pool_mode="uniform")
        _, z, state = train(feats, cfg)
        assert not state.diverged
        assert 1 <= state.epoch <= cfg.max_epochs
        assert all(math.isfinite(v) for v in state.loss_history)
        assert z.n_frames == feats.n_frames

    def test_non_finite_position_rejected_before_training(self):
        # unchecked, an inf position trains to a zero loss and a NaN one
        # is reported as divergence
        feats, _ = self._video()
        epochs = []
        for bad in (np.inf, np.nan):
            positions = np.arange(feats.n_frames, dtype=np.float64)
            positions[3] = bad
            with pytest.raises(ValueError, match="non-finite frame position .* at index 3"):
                train(feats, RunConfig(batch_size=16, max_epochs=3), positions=positions,
                      on_epoch=lambda e, loss, lr: epochs.append(e))
        assert epochs == []

    def test_triplet_sink_sees_every_epoch(self):
        feats, _ = self._video()
        epochs = []
        cfg = RunConfig(batch_size=16, seed=0, max_epochs=3, epsilon_stop=1e-12)
        _, _, state = train(
            feats, cfg, triplet_sink=lambda e, trips: epochs.append((e, len(trips)))
        )
        assert state.epoch == 3
        assert [e for e, _ in epochs] == [1, 2, 3]
        assert all(count >= 1 for _, count in epochs)
