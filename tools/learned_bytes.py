"""Learned bytes and scores of one checkout, one JSON line per training run.

    python3 tools/learned_bytes.py [--checkout DIR] [--save-z DIR] > records.jsonl

Runs the benchmark's own ``set_up`` and ``run_operation`` (imported from
the checkout's ``perfbench/run.py``, with its ``src/``) on every video
of every workload for benchmark seeds 1-10: 140 videos. Then trains
``SynthSpec(seed=0..2)`` under each ``similarity_mode`` x
``loss_features`` pair (18 runs) and segments each result with every
clusterer. Each record holds the SHA-256 of ``z``, the epoch count, the
divergence flag, the loss history as float hex and each clusterer's
MoF/IoU/F1 as float hex, so ``diff`` of two checkouts' records shows
any change in learned bytes or scores. ``--save-z DIR`` also writes
each ``z`` as ``DIR/<run>.npy``, to measure how far a changed ``z``
moved. BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH_SEEDS = range(1, 11)
SYNTH_SEEDS = range(3)
METHODS = ("kmeans", "finch", "spectral", "equal")


def _hex_scores(scores) -> dict[str, str]:
    return {name: float(value).hex() for name, value in scores.as_dict().items()}


def _record(run: str, z, state, scores: dict, save_z: Path | None) -> dict:
    import numpy as np

    z = np.ascontiguousarray(z)
    if save_z is not None:
        np.save(save_z / f"{run.replace('/', '-')}.npy", z)
    return {
        "run": run,
        "z_sha256": hashlib.sha256(z.tobytes()).hexdigest(),
        "epochs": state.epoch,
        "diverged": state.diverged,
        "loss": [float(v).hex() for v in state.loss_history],
        "scores": {method: _hex_scores(s) for method, s in scores.items()},
    }


def benchmark_records(bench, tsaseg, save_z: Path | None):
    """Every benchmark video through ``set_up`` and ``run_operation``, untraced."""
    tracer = bench.Tracer(enabled=False)
    for name, workload in bench.WORKLOADS.items():
        for seed in BENCH_SEEDS:
            with tempfile.TemporaryDirectory() as directory:
                for video in bench.set_up(tsaseg, workload, seed, Path(directory), tracer):
                    op = bench.run_operation(tsaseg, workload, video, tracer)
                    scores = {m: result[1] for m, result in op["results"].items()}
                    yield _record(f"{name}/s{seed}/{video['name']}", op["z"], op["state"],
                                  scores, save_z)


def synthetic_records(tsaseg, save_z: Path | None):
    """The acceptance family under every ablation pair, segmented by every clusterer."""
    import numpy as np

    for seed in SYNTH_SEEDS:
        features, gt = tsaseg.generate(tsaseg.SynthSpec(seed=seed))
        k = int(np.unique(gt.labels).size)
        for mode in ("combined", "semantic_only", "temporal_only"):
            for loss_features in ("pdf", "raw"):
                config = replace(tsaseg.RunConfig(), seed=seed, similarity_mode=mode,
                                 loss_features=loss_features)
                _, z, state = tsaseg.train(features, config)
                scores = {}
                for method in METHODS:
                    seg = tsaseg.segment_features(z, method, k, np.random.default_rng(seed))
                    scores[method] = tsaseg.score(seg, gt)[0]
                yield _record(f"synth/s{seed}/{mode}/{loss_features}", z.values, state,
                              scores, save_z)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root to measure (default: this one)")
    parser.add_argument("--save-z", type=Path, default=None, metavar="DIR",
                        help="also write each learned z as DIR/<run>.npy")
    args = parser.parse_args(argv)
    if args.save_z is not None:
        args.save_z.mkdir(parents=True, exist_ok=True)
    # run.py pins BLAS to one thread before numpy is first imported
    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    bench = importlib.import_module("run")
    tsaseg = bench._import_program()
    for record in benchmark_records(bench, tsaseg, args.save_z):
        print(json.dumps(record), flush=True)
    for record in synthetic_records(tsaseg, args.save_z):
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
