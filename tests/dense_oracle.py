"""The dense gradient engine, kept as a test-only oracle.

These are the N x N forward chain and analytic gradients that the
row-sparse engine in ``tsaseg.model`` replaced, copied unchanged. They
build every row of the similarity, kernel and distribution matrices, so
they serve as an independent reference for the row-sparse loss and
gradients at test sizes.
"""

from __future__ import annotations

import numpy as np

from tsaseg.data_io import RunConfig
from tsaseg.model import TsaModel, _orientation_sign, _sigmoid
from tsaseg.similarity import ZeroNormRowError
from tsaseg.triplet import Triplet


def _forward_chain(model: TsaModel, X: np.ndarray, ft_rows: np.ndarray, config: RunConfig) -> dict:
    """Run the full pipeline once, caching everything backward() needs."""
    cache: dict = {"X": X, "ft": ft_rows}
    h = X
    pre_acts = []
    layer_inputs = [X]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = h @ w.T + b
        if i < last:
            pre_acts.append(a)
            h = np.maximum(a, 0.0)
            layer_inputs.append(h)
        else:
            h = a
    Z = h
    norms = np.linalg.norm(Z, axis=1)
    if np.any(norms == 0):
        i = int(np.argwhere(norms == 0)[0][0])
        raise ZeroNormRowError(f"learned row {i} collapsed to zero norm")
    U = Z / norms[:, None]
    S = U @ U.T
    K = np.exp((S - 1.0) / config.h)
    sk = K.sum(axis=1)
    FS = K / sk[:, None]
    alpha = _sigmoid(model.a_raw)
    if config.similarity_mode == "combined":
        mixed = alpha[:, None] * ft_rows + (1.0 - alpha[:, None]) * FS
    elif config.similarity_mode == "semantic_only":
        mixed = FS
    else:  # temporal_only
        mixed = ft_rows
    smoothed = mixed + config.kl_smoothing
    su = smoothed.sum(axis=1)
    F = smoothed / su[:, None]
    cache.update(
        pre_acts=pre_acts,
        layer_inputs=layer_inputs,
        Z=Z,
        norms=norms,
        U=U,
        S=S,
        K=K,
        sk=sk,
        FS=FS,
        alpha=alpha,
        su=su,
        F=F,
    )
    return cache


def _loss_and_gradients(
    model: TsaModel, cache: dict, triplets: list[Triplet], config: RunConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """Hinge loss plus analytic gradients for every parameter block."""
    if not triplets:
        raise ValueError("empty triplet list")
    n_t = len(triplets)
    ai = np.array([t.anchor for t in triplets])
    pi = np.array([t.positive for t in triplets])
    ni = np.array([t.negative for t in triplets])
    sign = _orientation_sign(config.loss_orientation)
    F = cache["F"]
    S = cache["S"]

    if config.loss_features == "pdf":
        logF = np.log(F)
        kl_pos = np.einsum("tk,tk->t", F[ai], logF[ai] - logF[pi])
        kl_neg = np.einsum("tk,tk->t", F[ai], logF[ai] - logF[ni])
        gaps = sign * (kl_pos - kl_neg)
        active = gaps > 0
        loss = float(np.maximum(gaps, 0.0).mean())
        coeff = sign * active.astype(np.float64) / n_t
        dF = np.zeros_like(F)
        np.add.at(dF, ai, coeff[:, None] * (logF[ni] - logF[pi]))
        np.add.at(dF, pi, coeff[:, None] * (-F[ai] / F[pi]))
        np.add.at(dF, ni, coeff[:, None] * (F[ai] / F[ni]))
        dS, da_raw = _pdf_chain_to_similarity(model, cache, dF, config)
    else:  # raw cosine-distance triplet loss: no PDFs inside the loss
        gaps = sign * (S[ai, ni] - S[ai, pi])
        active = gaps > 0
        loss = float(np.maximum(gaps, 0.0).mean())
        coeff = sign * active.astype(np.float64) / n_t
        dS = np.zeros_like(S)
        np.add.at(dS, (ai, ni), coeff)
        np.add.at(dS, (ai, pi), -coeff)
        da_raw = np.zeros_like(model.a_raw)

    grads = _similarity_to_params(model, cache, dS)
    grads["a_raw"] = da_raw
    return loss, grads


def _pdf_chain_to_similarity(
    model: TsaModel, cache: dict, dF: np.ndarray, config: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate dL/dF through smoothing, mixing, and kernel rows.

    Returns (dL/dS, dL/da_raw).
    """
    F, FS, K, sk, su = cache["F"], cache["FS"], cache["K"], cache["sk"], cache["su"]
    alpha, ft = cache["alpha"], cache["ft"]
    # smoothing renormalization F = (mixed + eps) / su
    d_mixed = (dF - (dF * F).sum(axis=1, keepdims=True)) / su[:, None]
    if config.similarity_mode == "combined":
        d_alpha = ((ft - FS) * d_mixed).sum(axis=1)
        dFS = d_mixed * (1.0 - alpha)[:, None]
        da_raw = d_alpha * alpha * (1.0 - alpha)
    elif config.similarity_mode == "semantic_only":
        dFS = d_mixed
        da_raw = np.zeros_like(model.a_raw)
    else:  # temporal_only: mixed rows are constants
        return np.zeros_like(F), np.zeros_like(model.a_raw)
    # kernel row normalization FS = K / sk
    dK = (dFS - (dFS * FS).sum(axis=1, keepdims=True)) / sk[:, None]
    # K = exp((S - 1)/h)
    return dK * K / config.h, da_raw


def _similarity_to_params(model: TsaModel, cache: dict, dS: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate dL/dS through cosine normalization and the MLP."""
    U, norms = cache["U"], cache["norms"]
    dU = (dS + dS.T) @ U
    dZ = (dU - (dU * U).sum(axis=1, keepdims=True) * U) / norms[:, None]
    grads: dict[str, np.ndarray] = {}
    d = dZ
    pre_acts, layer_inputs = cache["pre_acts"], cache["layer_inputs"]
    for layer in reversed(range(len(model.weights))):
        grads[f"W{layer + 1}"] = d.T @ layer_inputs[layer]
        grads[f"b{layer + 1}"] = d.sum(axis=0)
        if layer > 0:
            d = (d @ model.weights[layer]) * (pre_acts[layer - 1] > 0)
    return grads
