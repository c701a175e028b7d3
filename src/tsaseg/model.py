"""Representation learning: shallow MLP, KL triplet loss, analytic gradients.

The learnable map is the one-hidden-layer MLP z = W2 relu(W1 x + b1) + b2,
both layers as wide as the input, plus a per-frame mixing vector alpha
stored in unconstrained form (``a_raw``, alpha = expit(a_raw), the
logistic function). Every row of the distribution the loss reads is the
mix alpha*f_t + (1 - alpha)*f_s of the temporal and semantic rows;
``similarity_mode`` only fixes alpha: learned for ``combined``, 0 for
``semantic_only`` and 1 for ``temporal_only``.

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
of F, only the kernel row sums; the kernel is symmetric, so the epoch
head builds each pair once, ROW_BLOCK rows at a time. Selection reads
the pooled anchors' rows; a gradient step reads the rows of its
triplets' frames, outside which dL/dF and dL/dS vanish.

While no hidden unit clips (every pre-activation > 0, as from the
identity init on every benchmark video), the MLP is affine. The forward
pass then takes one N x d x d product, Z = X (W2 W1)^T + (W2 b1 + b2),
for as long as an O(d^2) lower bound on the pre-activations, measured
from the last exact pass, stays above its roundoff margin; otherwise it
runs the MLP. The backward pass takes both weight gradients from the one
d x d product dZ^T X; once a unit clips, it applies the ReLU mask
instead. A step whose batch has an active hinge is then two N x d x d
products, not three. A step with none has an exactly-zero gradient,
which it returns without a backward pass: it costs the forward pass and
the rows its loss reads.

A :class:`Workspace` is one video's training context: its features, its
temporal band and the N x d buffers the chain writes in place, so a step
allocates no N x d array. :func:`train` allocates one per video,
:func:`backward` one per call, and both run the same step on it;
:func:`forward` runs the MLP on fresh arrays.
:func:`combined_distribution` and :func:`training_loss` build the dense
matrices from the public operations and serve as the reference path in
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

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
        return expit(self.a_raw)

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


# Relative roundoff margin of the pre-activation bound: a computed
# pre-activation x.w + b errs by at most about (d + 1) * 2.2e-16 times
# R ||w|| + |b| (R = max ||x||), so 1e-8 covers any d below 10^7.
BOUND_MARGIN = 1e-8


@dataclass
class Workspace:
    """One video's training context: its features, its temporal band and the chain's buffers.

    ``X`` and ``band`` (see :func:`temporal_band`) are fixed per video,
    and so is ``x_norm``, the largest row norm R of X. The N x d buffers
    are allocated once: ``hid`` holds the hidden layer's pre-activation,
    rectified in place to its output, ``Z`` the learned rows, normalised
    in place to ``U``. ``dU`` holds dL/dU divided by the row norms,
    turned in place into dL/dZ. ``tmp`` holds rowdot * U, then, when a
    unit clipped, the error sent back through W2 to the hidden layer's
    pre-activation. :func:`_forward_chain` sets ``U``, ``norms``,
    ``alpha`` and ``linear`` at the current parameters; the next call
    overwrites them. ``linear`` is true when no hidden unit clipped, and
    picks the branch of :func:`_similarity_to_params`; ``hid`` is fresh
    only when it is false, and stale after a one-product forward.

    ``W1_ref`` and ``b1_ref`` are the first-layer parameters of the last
    exact forward pass in which no unit clipped, and ``pre_min`` its
    per-unit minimum pre-activation, less that pass's roundoff margin:
    the reference :func:`_preactivation_bound` measures from. They are
    None until the first such pass.
    """

    X: np.ndarray
    band: csr_matrix
    hid: np.ndarray
    Z: np.ndarray
    dU: np.ndarray
    tmp: np.ndarray
    x_norm: np.float64
    U: np.ndarray | None = None
    norms: np.ndarray | None = None
    alpha: np.ndarray | None = None
    linear: bool | None = None
    W1_ref: np.ndarray | None = None
    b1_ref: np.ndarray | None = None
    pre_min: np.ndarray | None = None

    @classmethod
    def allocate(cls, X: np.ndarray, band: csr_matrix) -> "Workspace":
        x_norm = np.sqrt(np.einsum("ij,ij->i", X, X).max())
        return cls(X, band, *(np.empty(X.shape) for _ in range(4)), x_norm)


def _mlp(model: TsaModel, X: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """Z = W2 relu(W1 X + b1) + b2, in ``work``'s buffers when given, else in fresh arrays."""
    hid, Z = (None, None) if work is None else (work.hid, work.Z)
    hid = np.matmul(X, model.W1.T, out=hid)
    hid += model.b1
    np.maximum(hid, 0.0, out=hid)
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

def _margin(work: Workspace, W1: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """Per unit, BOUND_MARGIN times the scale R ||W1_j|| + |b1_j| of its pre-activations."""
    return BOUND_MARGIN * (work.x_norm * np.sqrt(np.einsum("ij,ij->i", W1, W1)) + np.abs(b1))


def _preactivation_bound(model: TsaModel, work: Workspace) -> np.ndarray | None:
    """A per-unit lower bound on the pre-activations X W1^T + b1 minus their roundoff margin.

    Row i of unit j is ref_ij + x_i . (W1_j - W1_ref,j) + (b1_j - b1_ref,j),
    where ref is the exact pre-activation at the reference, so it is at
    least m_j - R ||W1_j - W1_ref,j|| - |b1_j - b1_ref,j|, with m_j the
    reference's minimum (``pre_min``, its own margin already taken off)
    and R the largest row norm of X. The margin of the current
    parameters is taken off here. O(d^2); None before any reference.
    """
    if work.W1_ref is None:
        return None
    dW1 = model.W1 - work.W1_ref
    return (work.pre_min - work.x_norm * np.sqrt(np.einsum("ij,ij->i", dW1, dW1))
            - np.abs(model.b1 - work.b1_ref) - _margin(work, model.W1, model.b1))


def _forward_chain(model: TsaModel, work: Workspace, config: RunConfig) -> None:
    """Run the per-frame part of the chain at the current parameters into ``work``.

    While :func:`_preactivation_bound` is positive for every unit, no
    unit can clip, the MLP is affine, and the learned rows take one
    N x d x d product: Z = X (W2 W1)^T + (W2 b1 + b2). Otherwise it runs
    :func:`_mlp`; when no unit clipped there (``hid.min() > 0``, false on
    a NaN too), the current first layer becomes the bound's reference.
    Only N x d and length-N arrays are written; rows of the N-wide
    matrices come from :func:`_distribution_rows` for the frames that
    need them.
    """
    bound = _preactivation_bound(model, work)
    if bound is not None and bool(np.all(bound > 0)):
        Z = np.matmul(work.X, (model.W2 @ model.W1).T, out=work.Z)
        Z += model.W2 @ model.b1 + model.b2
        work.linear = True
    else:
        Z = _mlp(model, work.X, work)
        pre_min = work.hid.min(axis=0)
        work.linear = bool(pre_min.min() > 0)  # false on a NaN too
        if work.linear:
            work.W1_ref, work.b1_ref = model.W1.copy(), model.b1.copy()
            work.pre_min = pre_min - _margin(work, model.W1, model.b1)
    norms = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    if np.any(norms == 0):
        i = int(np.argwhere(norms == 0)[0][0])
        raise ZeroNormRowError(f"learned row {i} collapsed to zero norm")
    work.norms = norms
    work.U = np.divide(Z, norms[:, None], out=Z)
    work.alpha = _alpha(model, config)


def _distribution_rows(work: Workspace, index: np.ndarray, config: RunConfig) -> dict:
    """Rows ``index`` of the distribution matrices, each len(index) x N.

    Returns FS (semantic PDF), ft (temporal PDF) and F (the smoothed mix
    the loss and selection read), plus the row sums su of the smoothed
    mix and the rows' alpha. FS is built in one buffer: the cosine rows,
    turned in place into kernel rows and normalised by their sums. F is
    built in a second: alpha*ft, plus (1 - alpha)*FS, plus the smoothing,
    divided by su. At most four len(index) x N arrays are alive at once.
    """
    U = work.U
    FS = np.matmul(U[index], U.T)
    FS -= 1.0
    FS /= config.h
    np.exp(FS, out=FS)
    FS /= FS.sum(axis=1)[:, None]
    ft = band_rows(work.band, index)
    alpha = work.alpha[index]
    F = alpha[:, None] * ft
    F += (1.0 - alpha[:, None]) * FS
    F += KL_SMOOTHING
    su = F.sum(axis=1)
    F /= su[:, None]
    return {"FS": FS, "ft": ft, "alpha": alpha, "su": su, "F": F}


def _diagonal(work: Workspace, config: RunConfig) -> np.ndarray:
    """diag(F) without building a row of F.

    F_ii = (alpha_i ft_ii + (1 - alpha_i) K_ii / sk_i + eps) / (1 + N eps),
    since every smoothed row sums to 1 + N eps. Only the kernel row sums
    sk need whole rows of K. K = exp((U U^T - 1)/h) is symmetric, so each
    pair is built once: ROW_BLOCK rows at a time, only the columns from
    the block's first row on, in one reused flat buffer of at most
    ROW_BLOCK x N entries. A block's row sums go to its own rows of sk,
    its column sums right of the diagonal block to the later rows, and
    K_ii is read from the diagonal block. No N x N array is held.
    """
    U, alpha = work.U, work.alpha
    n = U.shape[0]
    sk, k_ii = np.zeros(n), np.empty(n)
    flat = np.empty(min(ROW_BLOCK, n) * n)
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        rows = stop - start
        K = flat[: rows * (n - start)].reshape(rows, n - start)
        np.matmul(U[start:stop], U[start:].T, out=K)
        K -= 1.0
        K /= config.h
        np.exp(K, out=K)
        sk[start:stop] += K.sum(axis=1)
        sk[stop:] += K[:, rows:].sum(axis=0)
        k_ii[start:stop] = K[np.arange(rows), np.arange(rows)]
    mixed = alpha * work.band.diagonal() + (1.0 - alpha) * (k_ii / sk)
    return (mixed + KL_SMOOTHING) / (1.0 + n * KL_SMOOTHING)


def _select_epoch_triplets(
    work: Workspace, config: RunConfig, rng: np.random.Generator
) -> list[Triplet]:
    """Pool anchors on diag(F), then draw triplets from the anchors' rows of F."""
    pool = pool_anchors(_diagonal(work, config), config.batch_size, rng, config.pool_mode)
    children = rng.spawn(len(pool))
    triplets: list[Triplet] = []
    for start in range(0, pool.indices.size, ROW_BLOCK):
        anchors = pool.indices[start : start + ROW_BLOCK]
        triplets += select_triplets(
            _distribution_rows(work, anchors, config)["F"],
            anchors,
            children[start : start + anchors.size],
            config.per_anchor,
            config.positive_fraction,
        )
    return triplets


def _loss_and_gradients(
    model: TsaModel, work: Workspace, triplets: list[Triplet], config: RunConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """Hinge loss plus analytic gradients for every parameter block.

    Only the rows R = anchors | positives | negatives of the N-wide
    matrices are built; dL/dF and dL/dS vanish outside them. Raises
    DivergenceError if the loss or any gradient is non-finite; the loss
    is checked first, since a NaN gap is not active. When no gap is
    above 0 every hinge coefficient is 0, so the loss comes back with an
    exactly-zero gradient for every block and no backward pass runs.
    """
    if not triplets:
        raise ValueError("empty triplet list")
    n_t = len(triplets)
    frames = np.array([(t.anchor, t.positive, t.negative) for t in triplets]).T.ravel()
    index, local = np.unique(frames, return_inverse=True)
    ai, pi, ni = local.reshape(3, n_t)

    if config.loss_features == "pdf":
        rows = _distribution_rows(work, index, config)
        F = rows["F"]
        logF = np.log(F)
        kl_pos = np.einsum("tk,tk->t", F[ai], logF[ai] - logF[pi])
        kl_neg = np.einsum("tk,tk->t", F[ai], logF[ai] - logF[ni])
        gaps = kl_pos - kl_neg
    else:  # raw cosine-distance triplet loss: only the cosine rows, no PDFs
        S = work.U[index] @ work.U.T
        p, q = index[pi], index[ni]
        gaps = S[ai, q] - S[ai, p]
    active = gaps > 0
    loss = float(np.maximum(gaps, 0.0).mean())
    if not math.isfinite(loss):
        raise DivergenceError("non-finite loss")
    if not active.any():
        return loss, {name: np.zeros_like(param) for name, param in model.param_items()}

    coeff = active.astype(np.float64) / n_t
    da_raw = np.zeros_like(model.a_raw)
    if config.loss_features == "pdf":
        dF = np.zeros_like(F)
        np.add.at(dF, ai, coeff[:, None] * (logF[ni] - logF[pi]))
        np.add.at(dF, pi, coeff[:, None] * (-F[ai] / F[pi]))
        np.add.at(dF, ni, coeff[:, None] * (F[ai] / F[ni]))
        dS, da_raw[index] = _pdf_chain_to_similarity(rows, dF, config)
    else:
        dS = np.zeros_like(S)
        np.add.at(dS, (ai, q), coeff)
        np.add.at(dS, (ai, p), -coeff)

    grads = _similarity_to_params(model, work, index, dS)
    grads["a_raw"] = da_raw
    if not all(np.all(np.isfinite(g)) for g in grads.values()):
        raise DivergenceError("non-finite gradient")
    return loss, grads


def _pdf_chain_to_similarity(
    rows: dict, dF: np.ndarray, config: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate dL/dF through smoothing, mixing, and kernel rows.

    Works on the rows built by :func:`_distribution_rows`; returns
    (dL/dS, dL/da_raw) on those rows. A fixed alpha of 0 or 1 zeroes the
    factor alpha*(1 - alpha), and alpha = 1 zeroes dL/dS.

    The kernel K = exp((S - 1)/h) enters only through FS = K / rowsum(K),
    and dK/dS = K/h, so the kernel rows are not needed:

        dL/dS = (dFS - rowsum(dFS * FS)) * FS / h
    """
    F, FS, su, alpha, ft = rows["F"], rows["FS"], rows["su"], rows["alpha"], rows["ft"]
    # smoothing renormalization F = (mixed + eps) / su
    d_mixed = (dF - (dF * F).sum(axis=1, keepdims=True)) / su[:, None]
    d_alpha = ((ft - FS) * d_mixed).sum(axis=1)
    dFS = d_mixed * (1.0 - alpha)[:, None]
    da_raw = d_alpha * alpha * (1.0 - alpha)
    return (dFS - (dFS * FS).sum(axis=1, keepdims=True)) * FS / config.h, da_raw


def _similarity_to_params(
    model: TsaModel, work: Workspace, index: np.ndarray, dS: np.ndarray
) -> dict[str, np.ndarray]:
    """Backpropagate dL/dS through cosine normalization and the MLP.

    ``dS`` holds the non-zero rows ``index`` of the N x N gradient, so
    (dS + dS^T) @ U splits into one product per side. The N x d
    intermediates are written into the workspace.

    When ``work.linear``, hid = X W1^T + 1 b1^T exactly, and with
    G = dZ^T X and the bias gradient b2 = 1^T dZ, the weight gradients
    need no second N x d x d product:

        dL/dW2 = dZ^T hid = G W1^T + b2 b1^T
        dL/dW1 = (dZ W2)^T X = W2^T G
        dL/db1 = 1^T dZ W2 = b2 W2

    Otherwise the error goes back through W2 and the ReLU mask
    ``hid > 0`` (relu(p) > 0 exactly where p > 0). The two branches
    round differently; neither is a correction of the other, which would
    leave roundoff where a clipped row's gradient is exactly zero.
    """
    U, norms = work.U, work.norms
    # d = dU / norms, with 1/norms folded into dS's columns and rows
    d = np.matmul((dS / norms).T, U[index], out=work.dU)
    d[index] += (dS @ U) / norms[index, None]
    # dZ = d - rowsum(d * U) * U, in place in d
    rowdot = np.einsum("ij,ij->i", d, U)
    d -= np.multiply(rowdot[:, None], U, out=work.tmp)
    if work.linear:
        b2 = d.sum(axis=0)
        G = d.T @ work.X
        return {"W2": G @ model.W1.T + np.outer(b2, model.b1), "b2": b2,
                "W1": model.W2.T @ G, "b1": b2 @ model.W2}
    grads = {"W2": d.T @ work.hid, "b2": d.sum(axis=0)}
    d_pre = np.matmul(d, model.W2, out=work.tmp)
    d_pre *= work.hid > 0  # relu(p) > 0 exactly where p > 0
    grads["W1"] = d_pre.T @ work.X
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
    work = Workspace.allocate(values, band)
    _forward_chain(model, work, config)
    return _loss_and_gradients(model, work, triplets, config)[1]


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
    shrinks by 1 - lr*2*WEIGHT_DECAY per step. A step whose batch has no
    active hinge has a gradient of +0.0 everywhere and applies only the
    weight decay. The recorded epoch loss is the mean of its batch
    losses. Training starts from the identity map (see
    :func:`init_model`) and stops at max_epochs, or once the epoch loss
    moved by less than epsilon_stop for PATIENCE epochs in a row (so no
    earlier than epoch PATIENCE + 1).

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
    work = Workspace.allocate(values, band)
    state = TrainState()
    for epoch in range(1, config.max_epochs + 1):
        lr = config.learning_rate * LR_DECAY ** (epoch - 1)
        shrink = 1.0 - lr * 2.0 * WEIGHT_DECAY
        snapshot = model.copy()
        batch_losses = []
        try:
            _forward_chain(model, work, config)
            triplets = _select_epoch_triplets(work, config, master)
            if triplet_sink is not None:
                triplet_sink(epoch, triplets)
            for start in range(0, len(triplets), config.per_anchor):
                if start > 0:
                    _forward_chain(model, work, config)
                batch = triplets[start : start + config.per_anchor]
                loss, grads = _loss_and_gradients(model, work, batch, config)
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
        deltas = np.abs(np.diff(state.loss_history[-PATIENCE - 1 :]))
        if deltas.size == PATIENCE and np.all(deltas < config.epsilon_stop):
            break
    final = forward(model, values)
    return model, FeatureMatrix(final), state
