"""Representation learning: shallow MLP, KL triplet loss, analytic gradients.

The learnable map is the one-hidden-layer MLP z = W2 relu(W1 x + b1) + b2,
both layers as wide as the input, plus a per-frame mixing vector alpha
stored in unconstrained form (``a_raw``, alpha = logistic(a_raw)). Every
row of the distribution the loss reads is the mix alpha*f_t +
(1 - alpha)*f_s of the temporal and semantic rows; ``similarity_mode``
only fixes alpha: learned for ``combined``, 0 for ``semantic_only`` and 1
for ``temporal_only``.

Each training epoch selects its triplets from the combined distribution
at the *current* learned features (selection is detached from
gradients), then descends the hinge loss

    mean over triplets of max(0, KL(f(i)||f(i+)) - KL(f(i)||f(i-)))

one gradient step per pooled anchor batch. All gradients are computed
analytically here and are checked against central finite differences
in the test suite.

Training keeps no N x N state. The per-frame part of the chain (MLP
activations, learned rows and their unit vectors) is N x d; rows of the
N-wide similarity, kernel and distribution matrices are built only for
the frames that read them. The temporal PDF does not depend on the
parameters: it is built once per video as a band of O(N L) entries, and
its rows are gathered from it. Pooling reads diag(F), which needs no row
of F, only the kernel row sums, built ROW_BLOCK rows at a time;
selection reads the pooled anchors' rows; a gradient step reads the rows
of its triplets' frames, outside which dL/dF and dL/dS vanish.

:func:`train` allocates one :class:`Workspace` per video and every step
writes its N x d arrays and the epoch head its kernel blocks into it,
in place and in the same order of operations as fresh arrays, so a step
allocates no N x d array and the learned bytes do not change.
:func:`forward` and :func:`backward` run the same functions on fresh
buffers.
:func:`combined_distribution` and :func:`training_loss` build the dense
matrices from the public operations and serve as the reference path in
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse import csr_matrix

from .data_io import FeatureMatrix, RunConfig, as_values
from .similarity import (
    KL_SMOOTHING,
    ROW_BLOCK,
    AffinityMatrix,
    TemporalKernel,
    ZeroNormRowError,
    as_rows,
    band_rows,
    combine,
    cosine_similarity_matrix,
    frame_positions,
    semantic_distribution,
    temporal_band,
    temporal_distribution,
)
from .triplet import Triplet, pool_anchors, select_triplets


class DivergenceError(ArithmeticError):
    """A loss or gradient stopped being finite."""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class TsaModel:
    """The MLP z = W2 relu(W1 x + b1) + b2 plus the per-frame mixing parameters."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    a_raw: np.ndarray

    @property
    def alpha(self) -> np.ndarray:
        """Per-frame mixing weights in (0, 1)."""
        return _sigmoid(self.a_raw)

    @property
    def biases(self) -> tuple[np.ndarray, np.ndarray]:
        """(b1, b2), for ``perfbench/test_checks.py`` only, which reads the biases by this name."""
        return self.b1, self.b2

    @property
    def n_dims(self) -> int:
        return self.W1.shape[1]

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def copy(self) -> "TsaModel":
        return TsaModel(*(param.copy() for _, param in self.param_items()))


def init_model(
    n_dims: int,
    n_frames: int,
    rng: np.random.Generator,
    scheme: str = "random",
    X: np.ndarray | None = None,
) -> TsaModel:
    """Build a fresh one-hidden-layer model of n_dims x n_dims layers; alpha starts at 0.5.

    ``scheme='random'``: uniform(-1/sqrt(n_dims), 1/sqrt(n_dims)) weights,
    zero biases. ``scheme='identity'``: identity weights with a bias
    shift that keeps every ReLU in its linear region on the given data, so
    the initial map is exactly z = x and training only moves frames the
    loss objects to. Identity needs ``X`` to size the shift.
    """
    if scheme == "random":
        bound = 1.0 / math.sqrt(n_dims)
        W1 = rng.uniform(-bound, bound, size=(n_dims, n_dims))
        W2 = rng.uniform(-bound, bound, size=(n_dims, n_dims))
        return TsaModel(W1, np.zeros(n_dims), W2, np.zeros(n_dims), np.zeros(n_frames))
    if scheme != "identity":
        raise ValueError(f"unknown init scheme {scheme!r}")
    if X is None:
        raise ValueError("identity init needs the feature matrix to size its bias shift")
    shift = 1.0 + max(0.0, -float(np.min(X)))
    # separate arrays: training shrinks every parameter block in place
    return TsaModel(np.eye(n_dims), np.full(n_dims, shift), np.eye(n_dims),
                    np.full(n_dims, -shift), np.zeros(n_frames))


@dataclass(frozen=True)
class Workspace:
    """The N x d buffers one video's training chain writes into, allocated once per video.

    ``pre`` and ``hid`` hold the hidden layer's pre-activation and
    output. ``Z`` holds the learned rows, normalised in place to U.
    ``dU`` holds dL/dU, turned in place into dL/dZ. ``tmp`` holds the
    squared rows for the norms, then dU * U and rowdot * U, then the
    error sent back through W2 to the hidden layer's pre-activation.
    ``kernel`` holds one ROW_BLOCK x N block of K for the epoch head.
    """

    pre: np.ndarray
    hid: np.ndarray
    Z: np.ndarray
    dU: np.ndarray
    tmp: np.ndarray
    kernel: np.ndarray

    @classmethod
    def allocate(cls, n_frames: int, n_dims: int) -> "Workspace":
        def buffer():
            return np.empty((n_frames, n_dims))

        return cls(buffer(), buffer(), buffer(), buffer(), buffer(),
                   np.empty((min(ROW_BLOCK, n_frames), n_frames)))


def _mlp(model: TsaModel, X: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """Z = W2 relu(W1 X + b1) + b2, in ``work``'s buffers when given, else in fresh arrays."""
    pre, hid, Z = (None, None, None) if work is None else (work.pre, work.hid, work.Z)
    pre = np.matmul(X, model.W1.T, out=pre)
    pre += model.b1
    hid = np.maximum(pre, 0.0, out=hid)
    Z = np.matmul(hid, model.W2.T, out=Z)
    Z += model.b2
    return Z


def forward(model: TsaModel, X: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Map frame features through the MLP: z = W2 relu(W1 x + b1) + b2."""
    values = as_values(X)
    if values.shape[1] != model.n_dims:
        raise ValueError(
            f"feature width {values.shape[1]} does not match model width {model.n_dims}"
        )
    return _mlp(model, values)


def _alpha(model: TsaModel, config: RunConfig) -> np.ndarray:
    """Per-frame mixing weight of the temporal rows under ``config.similarity_mode``."""
    if config.similarity_mode == "combined":
        return model.alpha
    return np.full(model.a_raw.shape, 1.0 if config.similarity_mode == "temporal_only" else 0.0)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) = sum p ln(p/q) for strictly positive distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if not (p.min() > 0 and q.min() > 0):
        raise ValueError("KL divergence requires strictly positive entries")
    return float(np.sum(p * (np.log(p) - np.log(q))))


def triplet_loss(f_ts: AffinityMatrix | np.ndarray, triplets: list[Triplet]) -> float:
    """Mean hinge of paired KL divergences over the triplet list."""
    if not triplets:
        raise ValueError("empty triplet list")
    rows = as_rows(f_ts)
    total = 0.0
    for t in triplets:
        gap = kl_divergence(rows[t.anchor], rows[t.positive]) - kl_divergence(
            rows[t.anchor], rows[t.negative]
        )
        total += max(0.0, gap)
    return total / len(triplets)


# ---------------------------------------------------------------------------
# Differentiable chain: X -> Z -> cosine kernel -> row PDFs -> mix -> KL hinge
# ---------------------------------------------------------------------------

def _forward_chain(
    model: TsaModel,
    X: np.ndarray,
    band: csr_matrix,
    config: RunConfig,
    work: Workspace | None = None,
) -> dict:
    """Run the per-frame part of the chain, caching what the row functions and backward need.

    Only N x d and length-N arrays and the temporal ``band`` (see
    :func:`temporal_band`) are kept; rows of the N-wide matrices come
    from :func:`_distribution_rows` for the frames that need them. The
    N x d arrays live in ``work`` (fresh buffers when it is None), which
    the cache keeps for the epoch head and the backward pass; a later
    call with the same workspace overwrites this cache's arrays.
    """
    if work is None:
        work = Workspace.allocate(*X.shape)
    Z = _mlp(model, X, work)
    # np.linalg.norm(Z, axis=1), with its squares kept in work.tmp
    norms = np.sqrt(np.add.reduce(np.multiply(Z, Z, out=work.tmp), axis=1))
    if np.any(norms == 0):
        i = int(np.argwhere(norms == 0)[0][0])
        raise ZeroNormRowError(f"learned row {i} collapsed to zero norm")
    return {
        "band": band,
        "work": work,
        "X": X,
        "norms": norms,
        "U": np.divide(Z, norms[:, None], out=Z),
        "alpha": _alpha(model, config),
    }


def _distribution_rows(cache: dict, index: np.ndarray, config: RunConfig) -> dict:
    """Rows ``index`` of the similarity, kernel and distribution matrices.

    Every matrix entry is len(index) x N: S (cosine), K (kernel), FS
    (semantic PDF), ft (temporal PDF) and F (the smoothed mix the loss and
    selection read), plus the row sums sk and su and the rows' alpha.
    """
    U = cache["U"]
    S = U[index] @ U.T
    K = np.exp((S - 1.0) / config.h)
    sk = K.sum(axis=1)
    FS = K / sk[:, None]
    ft = band_rows(cache["band"], index)
    alpha = cache["alpha"][index]
    mixed = alpha[:, None] * ft + (1.0 - alpha[:, None]) * FS
    smoothed = mixed + KL_SMOOTHING
    su = smoothed.sum(axis=1)
    F = smoothed / su[:, None]
    return {"S": S, "K": K, "sk": sk, "FS": FS, "ft": ft, "alpha": alpha, "su": su, "F": F}


def _diagonal(cache: dict, config: RunConfig) -> np.ndarray:
    """diag(F) without building a row of F.

    F_ii = (alpha_i ft_ii + (1 - alpha_i) K_ii / sk_i + eps) / (1 + N eps),
    since every smoothed row sums to 1 + N eps. Only the kernel row sums
    sk need whole rows of K, built ROW_BLOCK rows at a time in the
    workspace's kernel block.
    """
    U, alpha = cache["U"], cache["alpha"]
    n = U.shape[0]
    sk, k_ii = np.empty(n), np.empty(n)
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        K = np.matmul(U[start:stop], U.T, out=cache["work"].kernel[: stop - start])
        K -= 1.0
        K /= config.h
        np.exp(K, out=K)
        K.sum(axis=1, out=sk[start:stop])
        k_ii[start:stop] = K[np.arange(stop - start), np.arange(start, stop)]
    mixed = alpha * cache["band"].diagonal() + (1.0 - alpha) * (k_ii / sk)
    return (mixed + KL_SMOOTHING) / (1.0 + n * KL_SMOOTHING)


def _select_epoch_triplets(
    cache: dict, config: RunConfig, rng: np.random.Generator
) -> list[Triplet]:
    """Pool anchors on diag(F), then draw triplets from the anchors' rows of F."""
    pool = pool_anchors(_diagonal(cache, config), config.batch_size, rng, config.pool_mode)
    children = rng.spawn(len(pool))
    triplets: list[Triplet] = []
    for start in range(0, pool.indices.size, ROW_BLOCK):
        anchors = pool.indices[start : start + ROW_BLOCK]
        triplets += select_triplets(
            _distribution_rows(cache, anchors, config)["F"],
            anchors,
            children[start : start + anchors.size],
            config.per_anchor,
            config.positive_fraction,
        )
    return triplets


def _loss_and_gradients(
    model: TsaModel, cache: dict, triplets: list[Triplet], config: RunConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """Hinge loss plus analytic gradients for every parameter block.

    Only the rows R = anchors | positives | negatives of the N-wide
    matrices are built; dL/dF and dL/dS vanish outside them. Raises
    DivergenceError if the loss or any gradient is non-finite.
    """
    if not triplets:
        raise ValueError("empty triplet list")
    n_t = len(triplets)
    frames = np.array([(t.anchor, t.positive, t.negative) for t in triplets]).T.ravel()
    index, local = np.unique(frames, return_inverse=True)
    ai, pi, ni = local.reshape(3, n_t)
    rows = _distribution_rows(cache, index, config)
    da_raw = np.zeros_like(model.a_raw)

    if config.loss_features == "pdf":
        F = rows["F"]
        logF = np.log(F)
        kl_pos = np.einsum("tk,tk->t", F[ai], logF[ai] - logF[pi])
        kl_neg = np.einsum("tk,tk->t", F[ai], logF[ai] - logF[ni])
        gaps = kl_pos - kl_neg
        active = gaps > 0
        loss = float(np.maximum(gaps, 0.0).mean())
        coeff = active.astype(np.float64) / n_t
        dF = np.zeros_like(F)
        np.add.at(dF, ai, coeff[:, None] * (logF[ni] - logF[pi]))
        np.add.at(dF, pi, coeff[:, None] * (-F[ai] / F[pi]))
        np.add.at(dF, ni, coeff[:, None] * (F[ai] / F[ni]))
        dS, da_raw[index] = _pdf_chain_to_similarity(rows, dF, config)
    else:  # raw cosine-distance triplet loss: no PDFs inside the loss
        S = rows["S"]
        p, q = index[pi], index[ni]
        gaps = S[ai, q] - S[ai, p]
        active = gaps > 0
        loss = float(np.maximum(gaps, 0.0).mean())
        coeff = active.astype(np.float64) / n_t
        dS = np.zeros_like(S)
        np.add.at(dS, (ai, q), coeff)
        np.add.at(dS, (ai, p), -coeff)

    grads = _similarity_to_params(model, cache, index, dS)
    grads["a_raw"] = da_raw
    if not math.isfinite(loss) or not all(np.all(np.isfinite(g)) for g in grads.values()):
        raise DivergenceError("non-finite loss or gradient")
    return loss, grads


def _pdf_chain_to_similarity(
    rows: dict, dF: np.ndarray, config: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate dL/dF through smoothing, mixing, and kernel rows.

    Works on the rows built by :func:`_distribution_rows`; returns
    (dL/dS, dL/da_raw) on those rows. A fixed alpha of 0 or 1 zeroes the
    factor alpha*(1 - alpha), and alpha = 1 zeroes dL/dS.
    """
    F, FS, K, sk, su = rows["F"], rows["FS"], rows["K"], rows["sk"], rows["su"]
    alpha, ft = rows["alpha"], rows["ft"]
    # smoothing renormalization F = (mixed + eps) / su
    d_mixed = (dF - (dF * F).sum(axis=1, keepdims=True)) / su[:, None]
    d_alpha = ((ft - FS) * d_mixed).sum(axis=1)
    dFS = d_mixed * (1.0 - alpha)[:, None]
    da_raw = d_alpha * alpha * (1.0 - alpha)
    # kernel row normalization FS = K / sk
    dK = (dFS - (dFS * FS).sum(axis=1, keepdims=True)) / sk[:, None]
    # K = exp((S - 1)/h)
    return dK * K / config.h, da_raw


def _similarity_to_params(
    model: TsaModel, cache: dict, index: np.ndarray, dS: np.ndarray
) -> dict[str, np.ndarray]:
    """Backpropagate dL/dS through cosine normalization and the MLP.

    ``dS`` holds the non-zero rows ``index`` of the N x N gradient, so
    (dS + dS^T) @ U splits into one product per side. The N x d
    intermediates are written into the cache's workspace.
    """
    U, norms, work = cache["U"], cache["norms"], cache["work"]
    dU = np.matmul(dS.T, U[index], out=work.dU)
    dU[index] += dS @ U
    # dZ = (dU - rowsum(dU * U) * U) / norms, in place in dU
    rowdot = np.multiply(dU, U, out=work.tmp).sum(axis=1, keepdims=True)
    dU -= np.multiply(rowdot, U, out=work.tmp)
    d = np.divide(dU, norms[:, None], out=dU)
    grads = {"W2": d.T @ work.hid, "b2": d.sum(axis=0)}
    d_pre = np.matmul(d, model.W2, out=work.tmp)
    d_pre *= work.pre > 0
    grads["W1"] = d_pre.T @ cache["X"]
    grads["b1"] = d_pre.sum(axis=0)
    return grads


def _check_frames(model: TsaModel, n_frames: int, triplets: list[Triplet]) -> None:
    """Reject features whose frame count is not the model's, and triplet frames past it."""
    if n_frames != model.a_raw.size:
        raise ValueError(f"features have {n_frames} frames, the model {model.a_raw.size}")
    top = max((max(t.anchor, t.positive, t.negative) for t in triplets), default=0)
    if top >= n_frames:
        raise ValueError(f"triplet frame {top} is out of range for {n_frames} frames")


def combined_distribution(
    model: TsaModel,
    X: FeatureMatrix | np.ndarray,
    config: RunConfig,
    positions: np.ndarray | None = None,
) -> AffinityMatrix:
    """The distribution the loss and triplet selection see at the current parameters.

    Built from the public operations (not the gradient engine), so it
    doubles as an independent reference path in tests.
    """
    values = as_values(X)
    _check_frames(model, values.shape[0], [])
    return combine(
        semantic_distribution(forward(model, values), config.h),
        temporal_distribution(values.shape[0], TemporalKernel(config.L), positions),
        _alpha(model, config),
    )


def training_loss(
    model: TsaModel,
    X: FeatureMatrix | np.ndarray,
    triplets: list[Triplet],
    config: RunConfig,
    positions: np.ndarray | None = None,
) -> float:
    """Loss at the current parameters for a fixed triplet list (public-op path)."""
    values = as_values(X)
    _check_frames(model, values.shape[0], triplets)
    if config.loss_features == "pdf":
        f_ts = combined_distribution(model, values, config, positions)
        return triplet_loss(f_ts, triplets)
    sims = cosine_similarity_matrix(forward(model, values))
    total = 0.0
    for t in triplets:
        total += max(0.0, sims[t.anchor, t.negative] - sims[t.anchor, t.positive])
    return total / len(triplets)


def backward(
    model: TsaModel,
    X: FeatureMatrix | np.ndarray,
    triplets: list[Triplet],
    config: RunConfig,
    positions: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Analytic gradients of the loss for a fixed triplet list.

    Raises DivergenceError if the loss or any component is non-finite.
    """
    values = as_values(X)
    _check_frames(model, values.shape[0], triplets)
    band = temporal_band(frame_positions(values.shape[0], positions), TemporalKernel(config.L))
    cache = _forward_chain(model, values, band, config)
    return _loss_and_gradients(model, cache, triplets, config)[1]


# The published training schedule, the same for every dataset.
LR_DECAY = 0.3  # learning-rate factor per epoch
WEIGHT_DECAY = 1e-3  # decoupled L2 decay: each step shrinks parameters by 1 - lr*2*WEIGHT_DECAY
PATIENCE = 2  # epochs in a row whose loss moved by less than epsilon_stop before stopping


@dataclass
class TrainState:
    """Bookkeeping for one training run."""

    epoch: int = 0
    loss_history: list[float] = field(default_factory=list)
    diverged: bool = False


def train(
    X: FeatureMatrix | np.ndarray,
    config: RunConfig,
    positions: np.ndarray | None = None,
    on_epoch=None,
    triplet_sink=None,
) -> tuple[TsaModel, FeatureMatrix, TrainState]:
    """Learn the representation of one video.

    Per epoch: from the current features, pool one anchor per
    batch-size window on diag(F), sample that epoch's triplets from the
    anchors' rows of F, then take one descent step per anchor batch (the
    per-frame chain is recomputed before each step and the rows of the
    batch's frames rebuilt, so gradients stay exact).
    Steps use a learning rate decayed by LR_DECAY per epoch, constant
    within an epoch, and decoupled L2 weight decay: every parameter block
    shrinks by 1 - lr*2*WEIGHT_DECAY per step. The recorded epoch loss
    is the mean of its batch losses. Training starts from the identity
    map (see :func:`init_model`) and stops at max_epochs, or once the
    epoch loss moved by less than epsilon_stop for PATIENCE epochs in a
    row (so no earlier than epoch PATIENCE + 1).

    A non-finite loss or gradient (or a learned row collapsing to zero
    norm, where cosine similarity is undefined) aborts the run and
    returns the last finite parameters with ``state.diverged`` set.

    ``positions`` carries original frame indices when X is a filtered
    subsequence, so temporal distances refer to the unfiltered video.
    ``triplet_sink(epoch, triplets)`` observes each epoch's selection.
    """
    values = as_values(X)
    n_frames, n_dims = values.shape
    if config.batch_size > n_frames:
        raise ValueError(
            f"batch_size {config.batch_size} exceeds the {n_frames} frames available"
        )
    master = np.random.default_rng(config.seed)
    model = init_model(n_dims, n_frames, master, scheme="identity", X=values)
    band = temporal_band(frame_positions(n_frames, positions), TemporalKernel(config.L))
    work = Workspace.allocate(n_frames, n_dims)
    state = TrainState()
    snapshot = model.copy()
    still_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        lr = config.learning_rate * LR_DECAY ** (epoch - 1)
        shrink = 1.0 - lr * 2.0 * WEIGHT_DECAY
        try:
            cache = _forward_chain(model, values, band, config, work)
        except ZeroNormRowError:
            state.diverged = True
            break
        triplets = _select_epoch_triplets(cache, config, master)
        if triplet_sink is not None:
            triplet_sink(epoch, triplets)
        snapshot = model.copy()
        batch_losses = []
        try:
            for start in range(0, len(triplets), config.per_anchor):
                batch = triplets[start : start + config.per_anchor]
                if start > 0:
                    cache = _forward_chain(model, values, band, config, work)
                loss, grads = _loss_and_gradients(model, cache, batch, config)
                for name, param in model.param_items():
                    param *= shrink
                    param -= lr * grads[name]
                batch_losses.append(loss)
        except (DivergenceError, ZeroNormRowError):
            state.diverged = True
            model = snapshot  # roll back to the epoch-start parameters
            break
        epoch_loss = float(np.mean(batch_losses))
        state.epoch = epoch
        state.loss_history.append(epoch_loss)
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss, lr)
        if len(state.loss_history) >= 2 and (
            abs(state.loss_history[-1] - state.loss_history[-2]) < config.epsilon_stop
        ):
            still_epochs += 1
        else:
            still_epochs = 0
        if still_epochs >= PATIENCE:
            break
    final = forward(model, values)
    return model, FeatureMatrix(final), state
