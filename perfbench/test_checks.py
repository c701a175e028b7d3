"""Tests of the benchmark's own checks and composition.

    python3 -m pytest -q perfbench

Each check must flag a planted fault: a scrambled segmentation, a
perturbed gradient and an out-of-contract triplet.
"""

import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import checks
import run

tsaseg = run._import_program()
from tsaseg.model import combined_distribution  # noqa: E402


@pytest.fixture
def video():
    features, gt = tsaseg.generate(tsaseg.SynthSpec(seed=3, noise_sigma=0.35))
    return features.values, gt.labels


def test_scrambled_segmentation_is_flagged(video):
    x, gt = video
    seg = tsaseg.kmeans(x, 4, np.random.default_rng(0))
    scores, match = tsaseg.score(seg, gt)
    assert checks.score_problems(seg.labels, gt, scores, match.mapping) == []
    scrambled = np.random.default_rng(1).permutation(seg.labels)
    assert checks.score_problems(scrambled, gt, scores, match.mapping)


def test_suboptimal_mapping_is_flagged(video):
    x, gt = video
    seg = tsaseg.kmeans(x, 4, np.random.default_rng(0))
    scores, match = tsaseg.score(seg, gt)
    rotated = {p: (g + 1) % 4 for p, g in match.mapping.items()}
    assert checks.score_problems(seg.labels, gt, scores, rotated)


def test_best_overlap_matches_hungarian():
    rng = np.random.default_rng(2)
    for _ in range(20):
        table = rng.integers(0, 50, size=(5, 4))
        match = tsaseg.hungarian(table)
        assert checks.best_overlap(table) == sum(table[p, g] for p, g in match.mapping.items())


def test_segmentation_and_representation_checks():
    assert checks.segmentation_problems(np.array([0, 1, 1, 2]), 4, 3) == []
    assert checks.segmentation_problems(np.array([0, 1, 1, 1]), 4, 3)
    assert checks.segmentation_problems(np.array([0, 1, 2]), 4, 3)
    x = np.ones((3, 2))
    assert checks.representation_problems(x.copy(), x, diverged=False) == []
    assert checks.representation_problems(np.full((3, 2), np.nan), x, diverged=False)
    assert checks.representation_problems(x.copy(), x, diverged=True)


@pytest.fixture
def selection():
    """A random model, its combined distribution and one epoch's selection."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 6))
    config = tsaseg.RunConfig(L=6, batch_size=8)
    model = tsaseg.init_model(6, 40, rng, scheme="random")
    for b in model.biases:
        b += rng.normal(0.0, 0.1, size=b.shape)
    model.a_raw[:] = 0.5 * rng.standard_normal(40)
    f_ts = combined_distribution(model, x, config)
    pool = tsaseg.stochastic_pool(f_ts, config.batch_size, rng)
    triplets = tsaseg.sample_triplets(f_ts, pool, rng, 2, config.positive_fraction)
    return x, config, model, f_ts.rows, pool.indices, triplets


def test_out_of_contract_triplets_are_flagged(selection):
    _, config, _, rows, pool, triplets = selection

    def problems(pool, triplets):
        return checks.selection_problems(rows, pool, triplets, config.batch_size, 2,
                                         config.positive_fraction)

    assert problems(pool, triplets) == []
    t = triplets[0]
    order = np.argsort(rows[t.anchor])
    worst = int(next(j for j in order if j not in (t.anchor, t.negative)))
    best = int(next(j for j in order[::-1] if j not in (t.anchor, t.positive)))
    assert problems(pool, [tsaseg.Triplet(t.anchor, worst, t.negative)] + triplets[1:])
    assert problems(pool, [tsaseg.Triplet(t.anchor, t.positive, best)] + triplets[1:])
    two_in_one_window = pool.copy()
    two_in_one_window[1] = two_in_one_window[0] + 1 if pool[0] % 8 < 7 else pool[0] - 1
    assert problems(two_in_one_window, triplets)


def test_perturbed_gradient_is_flagged(selection):
    x, config, model, rows, _, _ = selection
    rng = np.random.default_rng(5)
    batch = []
    while len(batch) < 4:
        t = tsaseg.Triplet(*(int(i) for i in rng.choice(x.shape[0], size=3, replace=False)))
        gap = (tsaseg.kl_divergence(rows[t.anchor], rows[t.positive])
               - tsaseg.kl_divergence(rows[t.anchor], rows[t.negative]))
        if gap > 1e-3:
            batch.append(t)
    grads = tsaseg.backward(model, x, batch, config)
    assert checks.gradient_problems(model, x, batch, config, grads, np.random.default_rng(0)) == []
    for name in grads:
        perturbed = dict(grads, **{name: grads[name] + 1e-2})
        found = checks.gradient_problems(model, x, batch, config, perturbed,
                                         np.random.default_rng(0))
        assert found and all(name in p for p in found)


def test_workload_crop_reaches_the_trained_length(tmp_path):
    workload = run.WORKLOADS["inria-many"]
    videos = run.set_up(tsaseg, workload, 7, tmp_path, run.Tracer(False))
    for video in videos:
        features = tsaseg.load_features(video["features"])
        gt = tsaseg.load_labels(video["labels"], background="background")
        kept, _, _ = tsaseg.remove_background(features.values, gt, workload.tau)
        assert kept.shape[0] == video["n_train"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_operation_matches_run_video(tmp_path, name):
    """The benchmark's composition gives the scores ``pipeline.run_video`` gives.

    ``run_operation`` composes the public calls itself, to time epochs and
    keep the learned features, so it is held to ``run_video`` on one video
    of every workload and for every method.
    """
    workload = replace(run.WORKLOADS[name], n_train=run.WORKLOADS[name].n_train[:1])
    video = run.set_up(tsaseg, workload, 5, tmp_path, run.Tracer(False))[0]
    op = run.run_operation(tsaseg, workload, video, run.Tracer(True))
    assert run.check_operation(workload, op) == []
    config = replace(run.base_config(tsaseg, workload), seed=video["seed"])
    background = "background" if workload.tau > 0 else None
    for method in workload.methods:
        scores, _ = tsaseg.run_video(
            tsaseg.load_features(video["features"]),
            tsaseg.load_labels(video["labels"], background=background),
            config, method=method, tau=workload.tau, eval_seed=video["seed"],
        )
        assert op["results"][method][1] == scores, method


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
