"""Command-line pipeline: synth, train, segment, eval, plot.

Every run echoes its fully resolved configuration (defaults included)
to stderr as ``# key = value`` lines. An output path that names a
directory, lies in no directory, or names one of the run's inputs or
another of its outputs is refused before any work, so no verb overwrites
what it reads or works for nothing. Exit codes: 0 success, 1 user or
data error (a file that cannot be read or written included), 2 internal
invariant failure. The environment variable ``TSA_SEED`` acts as seed
fallback when no flag or config supplies one.
"""

from __future__ import annotations

import argparse
import os
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np

from .cluster import Segmentation
from .data_io import (
    DataFormatError,
    LabelSequence,
    RunConfig,
    _decimal,
    config_lines,
    load_config,
    load_features,
    load_labels,
    make_config,
    save_features,
    save_labels,
)
from .evaluate import contingency, hungarian, remove_background, score, scores_json
from .model import train
from .pipeline import segment_features
from .similarity import ZeroNormRowError
from .synth import SynthSpec, generate


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are user errors
        raise UsageError(message)


PALETTE = [
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
    "#5975a4", "#cc8963", "#5f9e6e", "#b55d60", "#857aab",
    "#8d7866", "#d095bf", "#766f6f", "#c1b37f", "#71aec0",
]
UNMATCHED_COLOR = "#2b2b2b"


def _resolve_seed(value: str | None, source: str = "--seed") -> int:
    """``value``, read from ``source``, else TSA_SEED, else 0, as an integer in [0, 2**64).

    The text must be plain ASCII decimal, as a config value must be.
    """
    if value is None:
        value, source = os.environ.get("TSA_SEED", "0"), "TSA_SEED"
    try:
        seed = int(_decimal(value))
        if 0 <= seed < 2**64:
            return seed
    except ValueError:
        pass
    raise ValueError(f"{source}: seed {value!r} is not an integer in [0, 2**64)")


def _decimal_type(kind):
    """An argparse type reading ``kind`` from plain ASCII decimal text, as config values are."""
    def parse(text: str):
        return kind(_decimal(text))
    parse.__name__ = kind.__name__  # argparse names the type in its error
    return parse


INT, FLOAT = _decimal_type(int), _decimal_type(float)


def _echo(lines) -> None:
    for line in lines:
        print(f"# {line}", file=sys.stderr)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(RunConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f"cfg_{f.name}", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="tsaseg", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a planted synthetic video")
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--segments", type=INT, default=SynthSpec.n_segments)
    p.add_argument("--frames-min", type=INT, default=SynthSpec.frames_per_segment[0])
    p.add_argument("--frames-max", type=INT, default=SynthSpec.frames_per_segment[1])
    p.add_argument("--dims", type=INT, default=SynthSpec.dims)
    p.add_argument("--classes", type=INT, default=SynthSpec.n_action_classes)
    p.add_argument("--noise", type=FLOAT, default=SynthSpec.noise_sigma)
    p.add_argument("--separation", type=FLOAT, default=SynthSpec.center_separation)
    p.add_argument("--background", action="store_true")
    p.add_argument("--seed", default=None)
    p.add_argument("--format", choices=("text", "binary"), default="text")

    p = sub.add_parser("train", help="learn a representation for one video")
    p.add_argument("--features", required=True)
    p.add_argument("--out-z", required=True)
    p.add_argument("--config", default=None, help="key = value file with RunConfig fields")
    p.add_argument("--out-model", default=None, help="write parameters in .npz format")
    p.add_argument("--log", default=None, help="training log path (default: stderr)")
    p.add_argument("--dump-triplets", default=None, help="write selected triplets as text")
    _add_config_flags(p)

    p = sub.add_parser("segment", help="cluster learned features into actions")
    p.add_argument("--z", required=True)
    p.add_argument("--method", choices=("kmeans", "finch", "spectral", "equal"), required=True)
    p.add_argument("--k", type=INT, required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--seed", default=None)

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--background", default=None, help="ground-truth background token")
    p.add_argument("--tau", type=FLOAT, default=0.0, help="background removal ratio")
    p.add_argument("--seed", default=None)
    p.add_argument("--out", default=None, help="also write the scores JSON here")

    p = sub.add_parser("plot", help="render segmentation bars as SVG")
    p.add_argument("--gt", required=True)
    p.add_argument(
        "--pred", action="append", default=[], metavar="NAME=PATH",
        help="predicted label file to draw below the ground truth (repeatable)",
    )
    p.add_argument("--out", required=True)
    return parser


# Each verb's file flags by argparse dest: (inputs, outputs).
FILE_FLAGS = {
    "synth": ((), ("out_features", "out_labels")),
    "train": (("features", "config"), ("out_z", "out_model", "log", "dump_triplets")),
    "segment": (("z",), ("out_labels",)),
    "eval": (("pred", "gt"), ("out",)),
    "plot": (("gt", "pred"), ("out",)),
}


def _file_paths(args, dests):
    """(flag, path) for each file the flags name; plot's repeated --pred is NAME=PATH."""
    for dest in dests:
        values = getattr(args, dest)
        paths = [v.partition("=")[2] for v in values] if isinstance(values, list) else [values]
        for path in filter(None, paths):
            yield f"--{dest.replace('_', '-')}", path


def _refuse_aliased_outputs(args) -> None:
    """Raise UsageError when an output cannot be written or names what the run reads or writes.

    An output is refused when it is a directory, when its parent is
    missing or not a directory, and when it names an input or an earlier
    output of the run.
    """
    inputs, outputs = FILE_FLAGS[args.verb]
    owner = {}
    for flag, path in _file_paths(args, inputs):
        owner.setdefault(Path(path).resolve(), flag)
    for flag, path in _file_paths(args, outputs):
        key = Path(path).resolve()
        if key.is_dir():
            raise UsageError(f"{flag} {path} is a directory")
        if not key.parent.is_dir():
            state = "is not a directory" if key.parent.exists() else "does not exist"
            raise UsageError(f"{flag} {path}: its directory {key.parent} {state}")
        if key in owner:
            raise UsageError(f"{flag} {path} names the same file as {owner[key]}")
        owner[key] = flag


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_segments=args.segments,
        frames_per_segment=(args.frames_min, args.frames_max),
        dims=args.dims,
        n_action_classes=args.classes,
        noise_sigma=args.noise,
        center_separation=args.separation,
        seed=_resolve_seed(args.seed),
        with_background=args.background,
    )
    _echo(f"{k} = {v}" for k, v in sorted(vars(spec).items()))
    features, gt = generate(spec)
    save_features(features, args.out_features, args.format)
    save_labels(gt, args.out_labels)
    return 0


def cmd_train(args) -> int:
    file_values = load_config(args.config) if args.config else {}
    flag_values = {
        f.name: getattr(args, f"cfg_{f.name}")
        for f in fields(RunConfig)
        if getattr(args, f"cfg_{f.name}") is not None
    }
    merged = {**file_values, **flag_values}
    source = "--seed" if "seed" in flag_values else args.config
    merged["seed"] = _resolve_seed(merged.get("seed"), source)
    config = make_config(**merged)
    resolved = config_lines(config)
    _echo(resolved)

    features = load_features(args.features)
    log_lines: list[str] = [f"# {line}" for line in resolved]
    triplet_rows: list[str] = []

    def on_epoch(epoch, loss, lr):
        log_lines.append(f"epoch {epoch} loss {loss!r} lr {lr!r}")

    def triplet_sink(epoch, triplets):
        for t in triplets:
            triplet_rows.append(f"{epoch} {t.anchor} {t.positive} {t.negative}")

    sink = triplet_sink if args.dump_triplets else None
    model, z, state = train(features, config, on_epoch=on_epoch, triplet_sink=sink)
    if state.diverged:
        log_lines.append("# aborted: training diverged; kept last finite parameters")
    save_features(z, args.out_z, "binary")
    if args.out_model:
        with open(args.out_model, "wb") as out:  # np.savez appends ".npz" to a path name
            np.savez(out, **dict(model.param_items()))
    if args.dump_triplets:
        header = "epoch anchor positive negative"
        Path(args.dump_triplets).write_text(
            "\n".join([header] + triplet_rows) + "\n", encoding="ascii"
        )
    text = "\n".join(log_lines) + "\n"
    if args.log:
        Path(args.log).write_text(text, encoding="utf-8")
    else:
        sys.stderr.write(text)
    return 0


def cmd_segment(args) -> int:
    _echo([f"z = {args.z}", f"method = {args.method}", f"k = {args.k}",
           f"seed = {_resolve_seed(args.seed)}"])
    z = load_features(args.z)
    seg = segment_features(z, args.method, args.k, np.random.default_rng(_resolve_seed(args.seed)))
    save_labels(seg.labels, args.out_labels)
    return 0


def cmd_eval(args) -> int:
    seed = _resolve_seed(args.seed)
    _echo([f"pred = {args.pred}", f"gt = {args.gt}", f"background = {args.background}",
           f"tau = {args.tau}", f"seed = {seed}"])
    pred = load_labels(args.pred)
    gt = load_labels(args.gt, background=args.background)
    if pred.n_frames != gt.n_frames:
        raise DataFormatError(
            f"length mismatch: {pred.n_frames} predicted vs {gt.n_frames} ground-truth frames"
        )
    pred_labels = pred.labels
    gt_eval = gt
    if args.tau != 0.0:
        pred_labels, gt_eval, _ = remove_background(
            pred.labels, gt, args.tau, np.random.default_rng(seed)
        )
    scores, _ = score(pred_labels, gt_eval.labels)
    payload = scores_json(
        scores,
        n_frames=int(gt_eval.n_frames),
        k_pred=int(np.unique(pred_labels).size),
        k_gt=int(np.unique(gt_eval.labels).size),
    )
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    return 0


def cmd_plot(args) -> int:
    _echo([f"gt = {args.gt}", f"preds = {args.pred}"])
    gt = load_labels(args.gt)
    preds = []
    for item in args.pred:
        name, _, path = item.partition("=")
        if not path:
            raise UsageError(f"--pred expects NAME=PATH, got {item!r}")
        seq = load_labels(path)
        if seq.n_frames != gt.n_frames:
            raise DataFormatError(
                f"{path}: length mismatch: {seq.n_frames} vs {gt.n_frames} frames"
            )
        preds.append((name, seq.labels))
    svg = render_segmentation_svg(gt, preds)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


def render_segmentation_svg(gt: LabelSequence, preds) -> str:
    """One horizontal bar per sequence (ground truth first).

    Prediction bars are recolored through the Hungarian mapping against
    the ground truth so that matching actions share a color; unmatched
    predicted labels fall back to a dark fill.
    """
    gt_labels, names = gt.labels, gt.names
    n = gt_labels.size
    width, bar_h, gap, margin_left, margin_top = 900, 26, 12, 110, 16
    legend_h = 26 + 18 * ((len(names) + 3) // 4)
    height = margin_top + (len(preds) + 1) * (bar_h + gap) + legend_h
    scale = (width - margin_left - 10) / n

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(width), height=str(height))

    def draw_bar(group_id, title, labels, colors, row):
        y = margin_top + row * (bar_h + gap)
        group = ET.SubElement(svg, "g", id=group_id)
        text = ET.SubElement(svg, "text", x="4", y=str(y + bar_h - 8))
        text.set("font-family", "sans-serif")
        text.set("font-size", "12")
        text.text = title
        seg = Segmentation(labels, int(labels.max()) + 1)
        for start, end, label in seg.segments:
            ET.SubElement(
                group, "rect",
                x=f"{margin_left + start * scale:.2f}", y=str(y),
                width=f"{max((end - start) * scale, 0.5):.2f}", height=str(bar_h),
                fill=colors.get(label, UNMATCHED_COLOR),
            )

    gt_colors = {int(c): PALETTE[int(c) % len(PALETTE)] for c in np.unique(gt_labels)}
    draw_bar("bar-gt", "ground truth", gt_labels, gt_colors, 0)

    for row, (name, labels) in enumerate(preds, start=1):
        match = hungarian(contingency(labels, gt_labels))
        colors = {
            p: gt_colors.get(g, UNMATCHED_COLOR) for p, g in match.mapping.items()
        }
        draw_bar(f"bar-{row}", name, labels, colors, row)

    legend = ET.SubElement(svg, "g", id="legend")
    y0 = margin_top + (len(preds) + 1) * (bar_h + gap) + 8
    for i, label_name in enumerate(names):
        lx = margin_left + (i % 4) * 190
        ly = y0 + (i // 4) * 18
        ET.SubElement(legend, "rect", x=str(lx), y=str(ly), width="12", height="12",
                      fill=PALETTE[i % len(PALETTE)])
        text = ET.SubElement(legend, "text", x=str(lx + 16), y=str(ly + 10))
        text.set("font-family", "sans-serif")
        text.set("font-size", "11")
        text.text = label_name
    return ET.tostring(svg, encoding="unicode")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_aliased_outputs(args)
        handler = {
            "synth": cmd_synth,
            "train": cmd_train,
            "segment": cmd_segment,
            "eval": cmd_eval,
            "plot": cmd_plot,
        }[args.verb]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, DataFormatError, ZeroNormRowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
