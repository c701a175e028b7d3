"""Per-layer timings of one training epoch, printed as one JSON line of medians.

    python3 tools/epoch_layers.py [--checkout DIR] [--frames N] [--dims D]
                                  [--preset NAME] [--repeats R]

Builds a synthetic video (seed 0, 6 action classes, segments of 150-200
frames, noise 0.35) cropped to N frames of width d, and the training
context ``model.train`` builds for it at its first epoch: the identity
init, the temporal band and one ``Workspace``. It then times, with one
BLAS thread, the four parts of an epoch of the checkout's ``src/``:

- ``head_ms``: ``model._diagonal``, the epoch head;
- ``select_ms``: ``model._select_epoch_triplets`` without the head (it
  reads a head computed beforehand), and ``select_per_anchor_ms``;
  ``select_peak_mib`` is its tracemalloc peak, from one more call that
  is not timed;
- ``forward_ms``: ``model._forward_chain``, once per step, and
  ``forward_path``, the path those timed calls took: ``one_product``
  (the bounded affine map), ``exact`` (the MLP) or ``mixed``;
- ``loss_and_gradients_ms``: ``model._loss_and_gradients`` on the first
  batch whose hinge is active (a positive loss), which runs the backward
  pass, and ``inactive_step_ms`` on the first batch whose hinge is not,
  which returns zero gradients without it; ``active_batches`` counts the
  epoch's batches with an active hinge at these parameters. A timing is
  null when the epoch has no batch of its kind.

Each timing is the median of ``--repeats`` runs, in milliseconds.
At the identity init no hidden unit clips: the first forward pass,
untimed, is exact and takes the reference of the pre-activation bound,
so the timed ones take the one-product path, and an active step takes
the backward pass's one-product branch (``Workspace.linear``). These are
the paths training runs on every benchmark video.
Run it on two checkouts with the same arguments to compare them.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported, as in the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np


def _import_model(checkout: Path):
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    model = importlib.import_module("tsaseg.model")
    if Path(model.__file__).resolve().parent != src / "tsaseg":
        raise SystemExit(f"tsaseg imported from {model.__file__}, not {src}")
    return model


def _median_ms(call, repeats: int) -> float:
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return 1e3 * statistics.median(seconds)


def measure(model, frames: int, dims: int, preset: str, repeats: int) -> dict:
    from tsaseg.data_io import DATASET_PRESETS
    from tsaseg.similarity import TemporalKernel, frame_positions, temporal_band
    from tsaseg.synth import SynthSpec, generate

    config = DATASET_PRESETS[preset]
    # at least one segment per action class, so short videos build too
    spec = SynthSpec(n_segments=max(6, -(-frames // 150)), frames_per_segment=(150, 200),
                     dims=dims, n_action_classes=6, noise_sigma=0.35, seed=0)
    X = np.ascontiguousarray(generate(spec)[0].values[:frames])
    params = model.init_model(dims, frames, np.random.default_rng(0), scheme="identity", X=X)
    band = temporal_band(frame_positions(frames, None), TemporalKernel(config.L))
    work = model.Workspace.allocate(X, band)
    model._forward_chain(params, work, config)

    head = model._diagonal(work, config)
    result = {"frames": frames, "dims": dims, "preset": preset, "repeats": repeats,
              "head_ms": _median_ms(lambda: model._diagonal(work, config), repeats)}

    diagonal = model._diagonal
    model._diagonal = lambda work, config: head
    try:
        def select():
            return model._select_epoch_triplets(work, config, np.random.default_rng(0))

        triplets = select()
        result["select_ms"] = _median_ms(select, repeats)
        tracemalloc.start()
        try:
            select()
            result["select_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    finally:
        model._diagonal = diagonal
    anchors = len(triplets) // config.per_anchor
    result["anchors"] = anchors
    result["select_per_anchor_ms"] = result["select_ms"] / anchors

    exact_calls = []
    mlp = model._mlp
    model._mlp = lambda *args: exact_calls.append(1) or mlp(*args)
    try:
        result["forward_ms"] = _median_ms(
            lambda: model._forward_chain(params, work, config), repeats
        )
    finally:
        model._mlp = mlp
    result["forward_path"] = {0: "one_product", repeats: "exact"}.get(len(exact_calls), "mixed")

    def step(batch):
        return model._loss_and_gradients(params, work, batch, config)

    batches = [triplets[i : i + config.per_anchor]
               for i in range(0, len(triplets), config.per_anchor)]
    active = [step(batch)[0] > 0 for batch in batches]
    result["active_batches"] = sum(active)
    for key, kind in (("loss_and_gradients_ms", True), ("inactive_step_ms", False)):
        batch = next((b for b, a in zip(batches, active) if a is kind), None)
        result[key] = None if batch is None else _median_ms(lambda: step(batch), repeats)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root to measure (default: this one)")
    parser.add_argument("--frames", type=int, default=1500)
    parser.add_argument("--dims", type=int, default=64)
    parser.add_argument("--preset", default="breakfast")
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    model = _import_model(args.checkout)
    print(json.dumps(measure(model, args.frames, args.dims, args.preset, args.repeats)),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
