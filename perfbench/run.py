"""Benchmark of the single-video protocol: load -> train -> segment -> score.

Run from the repository root:

    python3 perfbench/run.py --workload inria-many --seed 1 --seconds 40 --trace 0

The inputs are synthetic videos made from ``--seed``. After set-up the
run repeats whole rounds over the workload's videos until ``--seconds``
would be exceeded (at least one round), then runs the first video once
more. One operation is one video's
protocol together with its output checks. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run also times each layer's public functions,
probes the layers a workload's protocol does not call, runs the
property checks, writes its spans to ``perfbench/out/`` and reports the
per-layer metrics. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread for the whole process, set before numpy is imported:
# on two cores a second thread gave no speed-up at N ~ 500-1000 and a
# wider run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from peak import status_kib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = BENCH / "out"
WORK_DIR = BENCH / ".work"
SETUP_REPEATS = 5
SPECTRAL_PROBE_FRAMES = 160
MIB = 1024.0 * 1024.0


def _import_program():
    """Import tsaseg from this checkout's ``src``; exit 1 when it is absent."""
    if not (SRC / "tsaseg" / "__init__.py").is_file():
        print(f"perfbench: no tsaseg package under {SRC}", file=sys.stderr)
        sys.exit(1)
    sys.path.insert(0, str(SRC))
    import tsaseg

    if Path(tsaseg.__file__).resolve().parent != (SRC / "tsaseg").resolve():
        print(f"perfbench: tsaseg imported from {tsaseg.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(1)
    return tsaseg


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a synthetic video family, a preset and the clusterers.

    ``n_train`` lists the frames each video trains on (after background
    removal); videos are cropped to reach it exactly, so the work per
    video does not depend on the seed.
    """

    name: str
    preset: str | None
    max_epochs: int | None
    spec: dict
    n_train: tuple[int, ...]
    fmt: str
    methods: tuple[str, ...]
    tau: float


WORKLOADS = {
    w.name: w
    for w in (
        # Dense O(N^2) training dominates; few anchors, small clustering
        # share. max_epochs caps the run so one round fits the run length.
        Workload(
            name="breakfast-long",
            preset="breakfast",
            max_epochs=3,
            spec=dict(n_segments=12, frames_per_segment=(180, 260), dims=64,
                      n_action_classes=6, noise_sigma=0.35),
            n_train=(1500,) * 5,
            fmt="binary",
            methods=("kmeans", "finch"),
            tau=0.0,
        ),
        # Ten times more steps per frame at smaller N: per-step cost,
        # selection, background removal and text parsing carry weight.
        Workload(
            name="inria-many",
            preset="inria",
            max_epochs=None,
            spec=dict(n_segments=12, frames_per_segment=(50, 80), dims=64,
                      n_action_classes=4, noise_sigma=0.35, with_background=True),
            n_train=(480,) * 5,
            fmt="text",
            methods=("kmeans",),
            tau=0.75,
        ),
        # Acceptance family under the default RunConfig; four clusterers
        # per learned representation, so the cluster layer dominates.
        Workload(
            name="desk-sweep",
            preset=None,
            max_epochs=None,
            spec=dict(noise_sigma=0.35),
            n_train=(152,) * 4,
            fmt="text",
            methods=("kmeans", "finch", "spectral", "equal"),
            tau=0.0,
        ),
    )
}


class Tracer:
    """Spans kept in memory (name, start, end, parent, video); written out at the end.

    A disabled tracer records nothing, so the untraced run pays only for
    entering a no-op context manager at each layer boundary.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, video: str | None = None, **counts):
        if not self.enabled:
            yield None
            return
        record = self.add(name, time.perf_counter(), None, video, **counts)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, video=None, parent=None, **counts) -> dict:
        if parent is None and self._stack:
            parent = self._stack[-1]
        if video is None and parent is not None:
            video = self.spans[parent]["video"]
        record = {"id": len(self.spans), "name": name, "start": start, "end": end,
                  "parent": parent, "video": video, **counts}
        self.spans.append(record)
        return record

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextmanager
def peak_mib(sink: list):
    """Record the tracemalloc peak of the enclosed block, in MiB."""
    tracemalloc.start()
    try:
        yield
    finally:
        sink.append(tracemalloc.get_traced_memory()[1] / MIB)
        tracemalloc.stop()


def make_video(tsaseg, workload: Workload, n_train: int, video_seed: int, tracer: Tracer, name: str):
    """Generate one video and crop it so exactly ``n_train`` frames are trained on."""
    spec = tsaseg.SynthSpec(seed=video_seed, **workload.spec)
    with tracer.span("synth.generate", video=name):
        features, gt = tsaseg.generate(spec)
    is_bg = gt.labels == gt.background_id if gt.background_id is not None else np.zeros(gt.n_frames, bool)
    kept = np.arange(1, gt.n_frames + 1) - np.floor(workload.tau * np.cumsum(is_bg)).astype(np.int64)
    hits = np.flatnonzero(kept == n_train)
    expected_k = spec.n_action_classes + (1 if spec.with_background else 0)
    if not hits.size or np.unique(gt.labels[: hits[0] + 1]).size != expected_k:
        raise ValueError(f"{workload.name}: seed {video_seed} cannot be cropped to {n_train} frames")
    length = int(hits[0]) + 1
    return (
        tsaseg.FeatureMatrix(features.values[:length]),
        tsaseg.LabelSequence(gt.labels[:length], gt.names, background_id=gt.background_id),
    )


def set_up(tsaseg, workload: Workload, seed: int, directory: Path, tracer: Tracer) -> list[dict]:
    """Write the workload's input files; returns one descriptor per video."""
    videos = []
    ext = "bin" if workload.fmt == "binary" else "txt"
    for i, n_train in enumerate(workload.n_train):
        name = f"v{i}"
        video_seed = 1000 * seed + i
        features, gt = make_video(tsaseg, workload, n_train, video_seed, tracer, name)
        feature_path = directory / f"{name}.{ext}"
        label_path = directory / f"{name}.labels"
        tsaseg.save_features(features, feature_path, workload.fmt)
        tsaseg.save_labels(gt, label_path)
        videos.append({"name": name, "seed": video_seed, "features": feature_path,
                       "labels": label_path, "n_train": n_train})
    return videos


def timed_set_up(tsaseg, workload: Workload, seed: int, directory: Path, tracer: Tracer):
    """One full set-up: a fresh interpreter importing tsaseg, then the input files."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import tsaseg"], env=env, check=True)
    with tracer.span("setup"):
        videos = set_up(tsaseg, workload, seed, directory, tracer)
    return time.perf_counter() - start, videos


def base_config(tsaseg, workload: Workload):
    config = tsaseg.DATASET_PRESETS[workload.preset] if workload.preset else tsaseg.RunConfig()
    return replace(config, max_epochs=workload.max_epochs or config.max_epochs)


def run_operation(tsaseg, workload: Workload, video: dict, tracer: Tracer) -> dict:
    """The single-video protocol through the public functions, mirroring ``run_video``.

    The learned representation is segmented by every method of the
    workload. Returns timings and everything the checks need.
    """
    name = video["name"]
    background = "background" if workload.tau > 0 else None
    epoch_ends, sinks = [], []

    def on_epoch(epoch, loss, lr):
        epoch_ends.append(time.perf_counter())

    def triplet_sink(epoch, triplets):
        sinks.append((time.perf_counter(), len(triplets), len({t.anchor for t in triplets})))

    start = time.perf_counter()
    with tracer.span("video", video=name) as video_span:
        with tracer.span("data_io.load_features"):
            features = tsaseg.load_features(video["features"])
        with tracer.span("data_io.load_labels"):
            gt = tsaseg.load_labels(video["labels"], background=background)
        values, gt_eval, positions = features.values, gt, None
        if workload.tau > 0:
            with tracer.span("evaluate.remove_background"):
                values, gt_eval, kept = tsaseg.remove_background(
                    values, gt, workload.tau, np.random.default_rng(video["seed"])
                )
            positions = kept.astype(np.float64)
        config = base_config(tsaseg, workload)
        config = replace(config, seed=video["seed"],
                         batch_size=min(config.batch_size, values.shape[0]))
        train_start = time.perf_counter()
        with tracer.span("model.train") as train_span:
            model, z, state = tsaseg.train(
                values, config, positions=positions, on_epoch=on_epoch,
                triplet_sink=triplet_sink if tracer.enabled else None,
            )
        k = int(np.unique(gt_eval.labels).size)
        results, segment_s = {}, 0.0
        for method in workload.methods:
            t0 = time.perf_counter()
            with tracer.span(f"cluster.{method}"):
                seg = tsaseg.segment_features(z, method, k, np.random.default_rng(video["seed"]))
            segment_s += time.perf_counter() - t0
            with tracer.span("evaluate.score"):
                scores, match = tsaseg.score(seg, gt_eval)
            results[method] = (seg, scores, match)
    video_s = time.perf_counter() - start
    starts = [train_start] + epoch_ends[:-1]
    if tracer.enabled:
        for i, (end, sink) in enumerate(zip(epoch_ends, sinks)):
            epoch = tracer.add("model.epoch", starts[i], end, parent=train_span["id"])
            tracer.add("model.epoch_head", starts[i], sink[0], parent=epoch["id"])
            tracer.add("model.steps", sink[0], end, parent=epoch["id"],
                       steps=-(-sink[1] // config.per_anchor), anchors=sink[2])
        video_span["bytes_read"] = video["features"].stat().st_size + video["labels"].stat().st_size
    return {
        "video_s": video_s,
        "epoch_s": [end - s for s, end in zip(starts, epoch_ends)],
        "segment_s": segment_s,
        "values": values, "gt": gt_eval, "positions": positions, "config": config,
        "model": model, "z": z.values, "state": state, "k": k, "results": results,
    }


def check_operation(workload: Workload, op: dict) -> list[str]:

    problems = checks.representation_problems(op["z"], op["values"], op["state"].diverged)
    for method, (seg, scores, match) in op["results"].items():
        found = checks.segmentation_problems(seg.labels, op["values"].shape[0], op["k"])
        found += checks.score_problems(seg.labels, op["gt"].labels, scores, match.mapping)
        problems += [f"{method}: {p}" for p in found]
    return problems


def probe_layers(tsaseg, workload: Workload, video: dict, op: dict, tracer: Tracer,
                 once: bool, memory: dict, work: Path) -> list[str]:
    """Time single calls into each layer on this video and run the property checks.

    Layers the workload's protocol does not call are probed here too, so
    every workload reports every per-layer metric. ``once`` marks the
    video that also runs the gradient check and the spectral memory probe.
    """
    from tsaseg.model import combined_distribution

    values, positions, config, model = op["values"], op["positions"], op["config"], op["model"]
    n, name = values.shape[0], video["name"]
    kernel = tsaseg.TemporalKernel(config.L)
    problems = []
    with tracer.span("probe", video=name):
        with tracer.span("similarity.temporal_distribution"):
            tsaseg.temporal_distribution(n, kernel, positions)
        with peak_mib(memory["temporal"]):
            tsaseg.temporal_distribution(n, kernel, positions)
        with tracer.span("similarity.semantic_distribution"):
            tsaseg.semantic_distribution(op["z"], config.h)
        with tracer.span("model.forward"):
            tsaseg.forward(model, values)
        f_ts = combined_distribution(model, values, config, positions)
        rng = np.random.default_rng(video["seed"])
        with tracer.span("triplet.stochastic_pool"):
            pool = tsaseg.stochastic_pool(f_ts, config.batch_size, rng, config.pool_mode)
        with tracer.span("triplet.sample_triplets") as select_span:
            triplets = tsaseg.sample_triplets(f_ts, pool, rng, config.per_anchor,
                                              config.positive_fraction)
        problems += checks.selection_problems(f_ts.rows, pool.indices, triplets, config.batch_size,
                                              config.per_anchor, config.positive_fraction)
        gaps = np.array([
            tsaseg.kl_divergence(f_ts.rows[t.anchor], f_ts.rows[t.positive])
            - tsaseg.kl_divergence(f_ts.rows[t.anchor], f_ts.rows[t.negative])
            for t in triplets
        ])
        select_span["active"], select_span["drawn"] = int((gaps > 0).sum()), len(triplets)
        # One batch of triplets clear of the hinge kink, inactive ones swapped
        # so that every one has a non-zero gradient to compare.
        batch = [t if g > 0 else tsaseg.Triplet(t.anchor, t.negative, t.positive)
                 for t, g in zip(triplets, gaps) if abs(g) > 1e-3][:8]
        if not batch:
            problems.append("no drawn triplet is clear of the hinge kink")
            batch = triplets[:8]
        with tracer.span("model.backward"):
            grads = tsaseg.backward(model, values, batch, config, positions)
        with peak_mib(memory["backward"]):
            tsaseg.backward(model, values, batch, config, positions)
        if once:
            with tracer.span("check.gradient"):
                problems += checks.gradient_problems(model, values, batch, config, grads,
                                                     np.random.default_rng(video["seed"]), positions)
        z, k = op["z"], op["k"]
        spectral_z, spectral_k = z, k
        if "spectral" not in workload.methods:
            # The dense spectral path cannot run at these N; it is probed on
            # an evenly spaced subsample of the learned frames.
            idx = np.linspace(0, n - 1, min(n, SPECTRAL_PROBE_FRAMES)).astype(np.int64)
            spectral_z, spectral_k = z[idx], int(np.unique(op["gt"].labels[idx]).size)
            with tracer.span("cluster.spectral", frames=int(idx.size)):
                tsaseg.spectral(spectral_z, spectral_k, np.random.default_rng(video["seed"]))
        if once:
            memory["spectral"].append(
                spectral_growth_mib(spectral_z, spectral_k, video["seed"], work))
        for method in ("kmeans", "finch", "equal"):
            if method not in workload.methods:
                with tracer.span(f"cluster.{method}"):
                    tsaseg.segment_features(z, method, k, np.random.default_rng(video["seed"]))
        if workload.tau == 0:
            # No background class: the probe treats class 0 as background.
            gt = op["gt"]
            as_bg = tsaseg.LabelSequence(gt.labels, gt.names, background_id=0)
            with tracer.span("evaluate.remove_background"):
                tsaseg.remove_background(values, as_bg, 0.75, np.random.default_rng(video["seed"]))
    return problems


def spectral_growth_mib(z, k: int, seed: int, work: Path) -> float:
    """Resident growth of one spectral call, from a fresh process (see peak.py)."""
    path = work / "spectral-probe.npy"
    np.save(path, z)
    out = subprocess.run([sys.executable, str(BENCH / "peak.py"), str(path), str(k), str(seed)],
                         check=True, capture_output=True, text=True)
    return float(out.stdout.split()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def per_layer_metrics(tracer: Tracer, memory: dict) -> dict:
    spans = tracer.spans
    by_video: dict[int, float] = {}
    for s in spans:
        if s["name"] in ("data_io.load_features", "data_io.load_labels"):
            by_video[s["parent"]] = by_video.get(s["parent"], 0.0) + s["end"] - s["start"]
    steps = [s for s in spans if s["name"] == "model.steps"]
    epochs_per_video = [
        sum(1 for s in spans if s["name"] == "model.epoch" and s["parent"] == t["id"])
        for t in spans if t["name"] == "model.train"
    ]
    pools = [s for s in spans if s["name"] == "triplet.sample_triplets"]
    values = {
        "data_io.load_s": ("s", median(by_video.values())),
        "data_io.bytes_read": ("bytes", median(s["bytes_read"] for s in spans if s["name"] == "video")),
        "synth.generate_s": ("s", median(tracer.durations("synth.generate"))),
        "similarity.temporal_s": ("s", median(tracer.durations("similarity.temporal_distribution"))),
        "similarity.temporal_peak_mib": ("MiB", median(memory["temporal"])),
        "similarity.semantic_s": ("s", median(tracer.durations("similarity.semantic_distribution"))),
        "model.epochs": ("count", statistics.fmean(epochs_per_video)),
        "model.steps": ("count", statistics.fmean(s["steps"] for s in steps)),
        "model.epoch_head_s": ("s", median(tracer.durations("model.epoch_head"))),
        "model.step_s": ("s", median((s["end"] - s["start"]) / s["steps"] for s in steps)),
        "model.backward_s": ("s", median(tracer.durations("model.backward"))),
        "model.backward_peak_mib": ("MiB", median(memory["backward"])),
        "model.forward_s": ("s", median(tracer.durations("model.forward"))),
        "triplet.pool_s": ("s", median(tracer.durations("triplet.stochastic_pool"))),
        "triplet.select_s": ("s", median(tracer.durations("triplet.sample_triplets"))),
        "triplet.anchors": ("count", statistics.fmean(s["anchors"] for s in steps)),
        "triplet.active_share": ("ratio", sum(s["active"] for s in pools) / sum(s["drawn"] for s in pools)),
        "cluster.kmeans_s": ("s", median(tracer.durations("cluster.kmeans"))),
        "cluster.finch_s": ("s", median(tracer.durations("cluster.finch"))),
        "cluster.spectral_s": ("s", median(tracer.durations("cluster.spectral"))),
        "cluster.spectral_peak_mib": ("MiB", median(memory["spectral"])),
        "cluster.equal_s": ("s", median(tracer.durations("cluster.equal"))),
        "evaluate.score_s": ("s", median(tracer.durations("evaluate.score"))),
        "evaluate.remove_background_s": ("s", median(tracer.durations("evaluate.remove_background"))),
    }
    return {k: {"value": v, "unit": unit} for k, (unit, v) in values.items()}


def run_meta(workload: Workload, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    tsaseg = _import_program()
    workload = WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            directory = work / f"setup{i}"
            directory.mkdir()
            seconds, videos = timed_set_up(tsaseg, workload, args.seed, directory, tracer)
            setups.append(seconds)

        problems: list[str] = []
        memory = {"temporal": [], "backward": [], "spectral": []}
        ops, first_scores = [], {}
        failed = attempted = rounds = 0

        def attempt(video: dict, probe: bool, timed: bool = True) -> None:
            nonlocal failed, attempted
            attempted += 1
            try:
                op = run_operation(tsaseg, workload, video, tracer if timed else Tracer(False))
                found = check_operation(workload, op)
                scores = {m: r[1].as_dict() for m, r in op["results"].items()}
                if first_scores.setdefault(video["name"], scores) != scores:
                    found.append("rerun of the same video gave different scores")
                if probe:
                    found += probe_layers(tsaseg, workload, video, op, tracer,
                                          once=video is videos[0], memory=memory, work=work)
            except Exception:  # one failed video must not end the run
                failed += 1
                traceback.print_exc(file=sys.stderr)
                return
            problems.extend(f"{video['name']}: {p}" for p in found)
            if timed:
                ops.append({k: op[k] for k in ("video_s", "epoch_s", "segment_s")})

        deadline = time.perf_counter() + args.seconds
        while True:
            round_start = time.perf_counter()
            for video in videos:
                attempt(video, probe=tracer.enabled and rounds == 0)
            rounds += 1
            now = time.perf_counter()
            # Stop when another round and the closing rerun would pass the deadline.
            if now + (now - round_start) * (1 + 1 / len(videos)) > deadline:
                break
        # The closing rerun repeats the first video, so that every run, even
        # one of a single round, checks that a repeated video scores the same.
        # It is counted as an operation but kept out of the timings and the
        # spans, which rest on whole rounds.
        attempt(videos[0], probe=False, timed=False)

        for p in problems:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
        if not ops:
            print("perfbench: every operation failed", file=sys.stderr)
            return 1
        if tracer.enabled:
            metrics = per_layer_metrics(tracer, memory)
            tracer.write(OUT_DIR / f"spans-{workload.name}-s{args.seed}.jsonl",
                         run_meta(workload, args) | {"rounds": rounds})
        else:
            results = [r for video in first_scores.values() for r in video.values()]
            values = {
                "video_s": ("s", median(o["video_s"] for o in ops)),
                "epoch_s": ("s", median(e for o in ops for e in o["epoch_s"])),
                # A mean: clustering time varies with the input, and a mean
                # over a run's few distinct videos spreads less than a median.
                "segment_s": ("s", statistics.fmean(o["segment_s"] for o in ops)),
                "peak_rss_mib": ("MiB", status_kib("VmHWM") / 1024.0),
                "setup_s": ("s", median(setups)),
                "mof": ("ratio", statistics.fmean(r["mof"] for r in results)),
                "iou": ("ratio", statistics.fmean(r["iou"] for r in results)),
            }
            metrics = {k: {"value": v, "unit": unit} for k, (unit, v) in values.items()}
        print(f"perfbench: {workload.name} seed {args.seed}: {rounds} round(s), "
              f"{attempted} operations, {failed} failed, "
              f"median video_s {median(o['video_s'] for o in ops):.4f}", file=sys.stderr)
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
