import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tsaseg.cli import main, render_segmentation_svg
from tsaseg.data_io import (
    LabelSequence, load_features, load_labels, make_config, save_features, save_labels,
)
from tsaseg.model import train
from tsaseg.synth import SynthSpec, generate


@pytest.fixture
def video_files(tmp_path):
    features = tmp_path / "video.txt"
    labels = tmp_path / "gt.txt"
    code = main([
        "synth", "--out-features", str(features), "--out-labels", str(labels),
        "--segments", "5", "--frames-min", "12", "--frames-max", "16",
        "--dims", "8", "--classes", "3", "--noise", "0.1", "--seed", "3",
    ])
    assert code == 0
    return features, labels


class TestSynthCommand:
    def test_writes_both_files(self, video_files):
        features, labels = video_files
        m = load_features(features)
        seq = load_labels(labels)
        assert m.n_frames == seq.n_frames
        assert m.n_dims == 8

    def test_deterministic_given_seed(self, tmp_path):
        paths = [(tmp_path / f"f{i}.txt", tmp_path / f"l{i}.txt") for i in (0, 1)]
        for f, l in paths:
            assert main(["synth", "--out-features", str(f), "--out-labels", str(l),
                         "--seed", "9"]) == 0
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    # int() would read '2_5' and any Unicode digit ('２５') as 25
    @pytest.mark.parametrize("value", ["abc", "-3", "2_5", "２_５", "２５"])
    def test_bad_env_seed_exits_one_naming_it(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("TSA_SEED", value)
        code = main(["synth", "--out-features", str(tmp_path / "f.txt"),
                     "--out-labels", str(tmp_path / "l.txt")])
        assert code == 1
        assert f"TSA_SEED: seed {value!r} is not an integer in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "f.txt").exists()


    @pytest.mark.parametrize("flag, field", [("--noise", "noise_sigma"),
                                             ("--separation", "center_separation")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_spread_exits_one_naming_the_field(self, tmp_path, capsys, flag, field, value):
        code = main(["synth", "--out-features", str(tmp_path / "f.txt"),
                     "--out-labels", str(tmp_path / "l.txt"), flag, value])
        assert code == 1
        assert f"{field} must be finite and non-negative, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "f.txt").exists()

    def test_defaults_are_the_spec_defaults(self, tmp_path):
        assert main(["synth", "--out-features", str(tmp_path / "f.txt"),
                     "--out-labels", str(tmp_path / "l.txt")]) == 0
        features, gt = generate(SynthSpec())
        save_features(features, tmp_path / "want_f.txt", "text")
        save_labels(gt, tmp_path / "want_l.txt")
        for name in ("f.txt", "l.txt"):
            assert (tmp_path / name).read_bytes() == (tmp_path / f"want_{name}").read_bytes()


class TestTrainCommand:
    def test_full_pipeline(self, video_files, tmp_path):
        features, labels = video_files
        z = tmp_path / "z.bin"
        log = tmp_path / "train.log"
        code = main([
            "train", "--features", str(features), "--out-z", str(z),
            "--log", str(log), "--seed", "4", "--max-epochs", "5",
        ])
        assert code == 0
        learned = load_features(z)
        original = load_features(features)
        assert learned.n_frames == original.n_frames
        assert learned.n_dims == original.n_dims
        lines = log.read_text().splitlines()
        assert any(line.startswith("# seed = 4") for line in lines)
        epoch_lines = [l for l in lines if l.startswith("epoch ")]
        assert epoch_lines and all(
            l.split()[0] == "epoch" and l.split()[2] == "loss" and l.split()[4] == "lr"
            for l in epoch_lines
        )

    @pytest.mark.parametrize(
        "key",
        [
            "loss_orientation", "kl_smoothing", "hidden_width", "lr_decay", "weight_decay",
            "patience", "min_epochs", "hidden_layers", "init_scheme",
        ],
    )
    def test_removed_config_key_exits_one(self, video_files, tmp_path, capsys, key):
        features, _ = video_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        code = main(["train", "--features", str(features), "--out-z", str(tmp_path / "z.bin"),
                     "--config", str(cfg)])
        assert code == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "z.bin").exists()

    def test_malformed_config_file_value_names_key_file_and_line(
        self, video_files, tmp_path, capsys
    ):
        features, _ = video_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 4\nmax_epochs = 2.5\n")
        code = main(["train", "--features", str(features), "--out-z", str(tmp_path / "z.bin"),
                     "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cfg}: line 2: config key 'max_epochs': '2.5' is not an int" in err
        assert not (tmp_path / "z.bin").exists()

    def test_negative_config_file_seed_names_the_file(self, video_files, tmp_path, capsys):
        features, _ = video_files
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -3\n")
        code = main(["train", "--features", str(features), "--out-z", str(tmp_path / "z.bin"),
                     "--config", str(cfg)])
        assert code == 1
        assert f"{cfg}: seed '-3' is not an integer in [0, 2**64)" in capsys.readouterr().err

    def test_out_model_holds_the_returned_parameters(self, video_files, tmp_path):
        features, _ = video_files
        out = tmp_path / "m.npz"
        assert main(["train", "--features", str(features), "--out-z", str(tmp_path / "z.bin"),
                     "--out-model", str(out), "--seed", "4", "--max-epochs", "3"]) == 0
        model, _, _ = train(load_features(features), make_config(seed=4, max_epochs=3))
        with np.load(out) as saved:
            assert saved.files == ["W1", "b1", "W2", "b2", "a_raw"]
            for name, param in model.param_items():
                assert saved[name].shape == param.shape
                assert saved[name].tobytes() == param.tobytes()

    def test_out_model_writes_exactly_the_given_path(self, video_files, tmp_path):
        features, _ = video_files
        out = tmp_path / "params"
        assert main(["train", "--features", str(features), "--out-z", str(tmp_path / "z.bin"),
                     "--out-model", str(out), "--seed", "4", "--max-epochs", "1"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.txt", "params", "video.txt",
                                                              "z.bin"]
        with np.load(out) as saved:
            assert saved.files == ["W1", "b1", "W2", "b2", "a_raw"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--batch-size", "abc", "config key 'batch_size': 'abc' is not an int"),
            ("--L", "1e3", "config key 'L': '1e3' is not an int"),
            ("--h", "wide", "config key 'h': 'wide' is not a float"),
        ],
        ids=["batch_size", "L", "h"],
    )
    def test_malformed_flag_value_names_key(
        self, video_files, tmp_path, capsys, flag, value, message
    ):
        features, _ = video_files
        code = main(["train", "--features", str(features), "--out-z", str(tmp_path / "z.bin"),
                     flag, value])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "z.bin").exists()

    def test_non_finite_h_exits_one(self, video_files, tmp_path, capsys):
        features, _ = video_files
        code = main(["train", "--features", str(features), "--out-z", str(tmp_path / "z.bin"),
                     "--h", "nan"])
        assert code == 1
        assert "h must be positive and finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "z.bin").exists()

    def test_missing_features_exits_one(self, tmp_path, capsys):
        code = main(["train", "--features", str(tmp_path / "absent.txt"),
                     "--out-z", str(tmp_path / "z.bin")])
        assert code == 1
        assert "absent.txt" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, video_files, tmp_path, capsys):
        features, _ = video_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 4\nlearning_rate = 0.2\nmax_epochs = 3\n")
        code = main([
            "train", "--features", str(features), "--out-z", str(tmp_path / "z.bin"),
            "--config", str(cfg), "--learning-rate", "0.7", "--seed", "0",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "# learning_rate = 0.7" in err  # flag wins
        assert "# L = 4" in err  # file value kept

    def test_byte_identical_given_seed(self, video_files, tmp_path):
        features, _ = video_files
        outs = []
        for name in ("a.bin", "b.bin"):
            z = tmp_path / name
            assert main(["train", "--features", str(features), "--out-z", str(z),
                         "--seed", "11", "--max-epochs", "4"]) == 0
            outs.append(z.read_bytes())
        assert outs[0] == outs[1]

    def test_dump_triplets_table(self, video_files, tmp_path):
        features, _ = video_files
        dump = tmp_path / "trips.txt"
        assert main(["train", "--features", str(features),
                     "--out-z", str(tmp_path / "z.bin"), "--dump-triplets", str(dump),
                     "--seed", "1", "--max-epochs", "2"]) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "epoch anchor positive negative"
        n_frames = load_features(features).n_frames
        for line in lines[1:]:
            epoch, a, p, n = (int(v) for v in line.split())
            assert 1 <= epoch <= 2
            assert len({a, p, n}) == 3
            assert all(0 <= v < n_frames for v in (a, p, n))

    def test_mid_epoch_divergence_logs_the_abort(self, tmp_path):
        features, log, z = tmp_path / "f.txt", tmp_path / "train.log", tmp_path / "z.bin"
        assert main(["synth", "--out-features", str(features),
                     "--out-labels", str(tmp_path / "l.txt"), "--seed", "0"]) == 0
        with np.errstate(all="ignore"):
            code = main(["train", "--features", str(features), "--out-z", str(z),
                         "--log", str(log), "--learning-rate", "1e200", "--batch-size", "8"])
        assert code == 0
        lines = log.read_text().splitlines()
        assert lines[-1] == "# aborted: training diverged; kept last finite parameters"
        assert not any(line.startswith("epoch ") for line in lines)
        assert np.all(np.isfinite(load_features(z).values))

    def test_unknown_flag_exits_one(self, video_files, tmp_path, capsys):
        features, _ = video_files
        code = main(["train", "--features", str(features),
                     "--out-z", str(tmp_path / "z.bin"), "--warp", "9"])
        assert code == 1

    def test_env_seed_fallback(self, video_files, tmp_path, monkeypatch, capsys):
        features, _ = video_files
        monkeypatch.setenv("TSA_SEED", "77")
        assert main(["train", "--features", str(features),
                     "--out-z", str(tmp_path / "z.bin"), "--max-epochs", "2"]) == 0
        assert "# seed = 77" in capsys.readouterr().err


class TestSegmentCommand:
    def test_equal_split_exact_file(self, tmp_path):
        z = tmp_path / "z.txt"
        z.write_text("6 1\n" + "".join(f"{v}.0\n" for v in range(6)))
        out = tmp_path / "pred.txt"
        assert main(["segment", "--z", str(z), "--method", "equal", "--k", "3",
                     "--out-labels", str(out)]) == 0
        assert out.read_text() == "0\n0\n1\n1\n2\n2\n"

    @pytest.mark.parametrize("method", ["kmeans", "finch", "spectral"])
    def test_methods_produce_k_clusters(self, video_files, tmp_path, method):
        features, _ = video_files
        out = tmp_path / f"{method}.txt"
        assert main(["segment", "--z", str(features), "--method", method, "--k", "3",
                     "--out-labels", str(out), "--seed", "0"]) == 0
        seq = load_labels(out)
        assert np.unique(seq.labels).size == 3

    def test_unknown_method_usage_error(self, video_files, tmp_path):
        features, _ = video_files
        assert main(["segment", "--z", str(features), "--method", "magic", "--k", "3",
                     "--out-labels", str(tmp_path / "p.txt")]) == 1

    def test_k_larger_than_video_exits_one(self, video_files, tmp_path, capsys):
        features, _ = video_files
        code = main(["segment", "--z", str(features), "--method", "kmeans",
                     "--k", "100000", "--out-labels", str(tmp_path / "p.txt")])
        assert code == 1

    def test_finch_on_zero_row_exits_one(self, tmp_path, capsys):
        z = tmp_path / "z.txt"
        z.write_text("4 2\n1.0 0.5\n0.0 0.0\n0.9 0.4\n-0.2 1.0\n")
        out = tmp_path / "p.txt"
        code = main(["segment", "--z", str(z), "--method", "finch", "--k", "2",
                     "--out-labels", str(out)])
        assert code == 1
        assert "row 1 has zero norm" in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_perfect_prediction_scores(self, video_files, tmp_path, capsys):
        _, labels = video_files
        code = main(["eval", "--pred", str(labels), "--gt", str(labels)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mof"] == 1.0 and payload["iou"] == 1.0 and payload["f1"] == 1.0
        assert set(payload) == {"mof", "iou", "f1", "n_frames", "k_pred", "k_gt"}

    def test_length_mismatch_exits_one(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("x\nx\n")
        b.write_text("x\n")
        assert main(["eval", "--pred", str(a), "--gt", str(b)]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_background_removal_changes_frame_count(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("".join(["bg\n"] * 40 + ["act\n"] * 20))
        pred = tmp_path / "pred.txt"
        pred.write_text("".join(["0\n"] * 40 + ["1\n"] * 20))
        assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                     "--background", "bg", "--tau", "0.75", "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_frames"] == 60 - 30  # floor(0.75 * 40) dropped

    def test_tau_without_background_exits_one(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("a\nb\n")
        assert main(["eval", "--pred", str(gt), "--gt", str(gt), "--tau", "0.5"]) == 1
        assert "no background class" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["-0.5", "nan", "1.5"])
    def test_tau_outside_unit_interval_exits_one(self, tmp_path, capsys, tau):
        gt = tmp_path / "gt.txt"
        gt.write_text("bg\nbg\nact\n")
        code = main(["eval", "--pred", str(gt), "--gt", str(gt),
                     "--background", "bg", "--tau", tau])
        assert code == 1
        assert "tau must lie in [0, 1]" in capsys.readouterr().err

    def test_output_file(self, video_files, tmp_path, capsys):
        _, labels = video_files
        out = tmp_path / "scores.json"
        assert main(["eval", "--pred", str(labels), "--gt", str(labels),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mof"] == 1.0


class TestPlotCommand:
    def test_well_formed_svg_with_expected_rects(self, tmp_path):
        gt = tmp_path / "gt.txt"
        save_labels(np.array([0, 0, 1, 1, 2, 2, 0, 0, 3, 3, 1, 1]), gt)  # 6 runs
        pred = tmp_path / "pred.txt"
        save_labels(np.array([0, 0, 1, 1, 2, 2, 0, 0, 3, 3, 1, 1]), pred)
        out = tmp_path / "bars.svg"
        assert main(["plot", "--gt", str(gt), "--pred", f"mine={pred}",
                     "--out", str(out)]) == 0
        root = ET.parse(out).getroot()  # parse implies well-formed XML
        ns = {"svg": "http://www.w3.org/2000/svg"}
        gt_bar = root.find("svg:g[@id='bar-gt']", ns)
        assert len(gt_bar.findall("svg:rect", ns)) == 6
        pred_bar = root.find("svg:g[@id='bar-1']", ns)
        assert len(pred_bar.findall("svg:rect", ns)) == 6
        # identical prediction inherits identical colors via the matching
        assert [r.get("fill") for r in gt_bar] == [r.get("fill") for r in pred_bar]

    def test_gt_only(self, tmp_path):
        gt = tmp_path / "gt.txt"
        save_labels(np.array([0, 0, 1]), gt)
        out = tmp_path / "solo.svg"
        assert main(["plot", "--gt", str(gt), "--out", str(out)]) == 0
        root = ET.parse(out).getroot()
        assert root.find("svg:g[@id='bar-gt']", {"svg": "http://www.w3.org/2000/svg"}) is not None

    def test_length_mismatch_rejected(self, tmp_path):
        gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
        save_labels(np.array([0, 0, 1]), gt)
        save_labels(np.array([0, 1]), pred)
        assert main(["plot", "--gt", str(gt), "--pred", f"p={pred}",
                     "--out", str(tmp_path / "x.svg")]) == 1

    def test_bad_pred_spec_usage_error(self, tmp_path):
        gt = tmp_path / "gt.txt"
        save_labels(np.array([0, 1]), gt)
        assert main(["plot", "--gt", str(gt), "--pred", "nopath",
                     "--out", str(tmp_path / "x.svg")]) == 1

    def test_render_recolors_via_matching(self):
        gt = LabelSequence(np.array([0, 0, 1, 1]), ("a", "b"))
        pred = np.array([1, 1, 0, 0])  # swapped ids, same segmentation
        svg = render_segmentation_svg(gt, [("swap", pred)])
        root = ET.fromstring(svg)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        gt_fills = [r.get("fill") for r in root.find("svg:g[@id='bar-gt']", ns)]
        pred_fills = [r.get("fill") for r in root.find("svg:g[@id='bar-1']", ns)]
        assert gt_fills == pred_fills


class TestAliasedOutputs:
    """An output path naming an input or another output exits 1 before any work."""

    def assert_refused(self, argv, flags, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err

    def test_synth_outputs_alike(self, tmp_path, capsys):
        path = tmp_path / "a"
        self.assert_refused(["synth", "--out-features", str(path), "--out-labels", str(path)],
                            ["--out-labels", "--out-features"], capsys)
        assert not path.exists()

    @pytest.mark.parametrize("flag", ["--out-z", "--log"])
    def test_train_output_names_features(self, video_files, tmp_path, capsys, flag):
        features, _ = video_files
        before = features.read_bytes()
        outputs = {"--out-z": str(tmp_path / "z.bin")}
        outputs[flag] = str(tmp_path / ".." / tmp_path.name / features.name)  # another spelling
        argv = ["train", "--features", str(features)] + [a for kv in outputs.items() for a in kv]
        self.assert_refused(argv, [flag, "--features"], capsys)
        assert features.read_bytes() == before

    def test_segment_output_names_z(self, tmp_path, capsys):
        z = tmp_path / "z.bin"
        assert main(["synth", "--out-features", str(z), "--out-labels", str(tmp_path / "l"),
                     "--format", "binary"]) == 0
        before = z.read_bytes()
        self.assert_refused(["segment", "--z", str(z), "--method", "equal", "--k", "2",
                             "--out-labels", str(z)], ["--out-labels", "--z"], capsys)
        assert z.read_bytes() == before

    def test_eval_output_names_pred(self, video_files, capsys):
        _, labels = video_files
        before = labels.read_bytes()
        self.assert_refused(["eval", "--pred", str(labels), "--gt", str(labels),
                             "--out", str(labels)], ["--out", "--pred"], capsys)
        assert labels.read_bytes() == before

    @pytest.mark.parametrize("flag", ["--out-z", "--out-model"])
    def test_train_output_names_a_directory(self, video_files, tmp_path, capsys, monkeypatch,
                                            flag):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before refusing the output")

        monkeypatch.setattr("tsaseg.cli.train", no_training)
        features, _ = video_files
        directory = tmp_path / "d"
        directory.mkdir()
        outputs = {"--out-z": str(tmp_path / "z.bin"), flag: str(directory)}
        argv = ["train", "--features", str(features)] + [a for kv in outputs.items() for a in kv]
        self.assert_refused(argv, [flag, "is a directory"], capsys)
        assert list(directory.iterdir()) == []

    @staticmethod
    def unusable_output(tmp_path, parent):
        """An output path whose parent is a regular file, or does not exist."""
        if parent == "file":
            (tmp_path / "afile").write_text("keep\n")
            return tmp_path / "afile" / "out"
        return tmp_path / "missing" / "out"

    @pytest.mark.parametrize("parent", ["file", "missing"])
    @pytest.mark.parametrize("flag", ["--out-z", "--out-model", "--log", "--dump-triplets"])
    def test_train_output_in_no_directory(self, video_files, tmp_path, capsys, monkeypatch,
                                          flag, parent):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before refusing the output")

        monkeypatch.setattr("tsaseg.cli.train", no_training)
        features, _ = video_files
        outputs = {"--out-z": str(tmp_path / "z.bin"),
                   flag: str(self.unusable_output(tmp_path, parent))}
        argv = ["train", "--features", str(features)] + [a for kv in outputs.items() for a in kv]
        self.assert_refused(argv, [flag, "directory"], capsys)

    @pytest.mark.parametrize("parent", ["file", "missing"])
    def test_segment_output_in_no_directory(self, tmp_path, capsys, monkeypatch, parent):
        z = tmp_path / "z.bin"
        assert main(["synth", "--out-features", str(z), "--out-labels", str(tmp_path / "l"),
                     "--format", "binary"]) == 0

        def no_segmenting(*args, **kwargs):
            raise AssertionError("segmented before refusing the output")

        monkeypatch.setattr("tsaseg.cli.segment_features", no_segmenting)
        out = self.unusable_output(tmp_path, parent)
        self.assert_refused(["segment", "--z", str(z), "--method", "equal", "--k", "2",
                             "--out-labels", str(out)], ["--out-labels", "directory"], capsys)

    @pytest.mark.parametrize("parent", ["file", "missing"])
    def test_eval_output_in_no_directory(self, video_files, tmp_path, capsys, parent):
        _, labels = video_files
        out = self.unusable_output(tmp_path, parent)
        assert main(["eval", "--pred", str(labels), "--gt", str(labels), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before scoring
        assert "--out" in captured.err and "directory" in captured.err

    def test_failed_write_exits_1(self, video_files, tmp_path, capsys, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("tsaseg.cli.save_labels", full_disk)
        z = tmp_path / "z.bin"
        assert main(["synth", "--out-features", str(z), "--out-labels", str(tmp_path / "l"),
                     "--format", "binary"]) == 1
        assert "No space left on device" in capsys.readouterr().err

    def test_plot_output_links_to_gt(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        save_labels(np.array([0, 0, 1]), gt)
        before = gt.read_bytes()
        link = tmp_path / "bars.svg"
        link.symlink_to(gt)
        self.assert_refused(["plot", "--gt", str(gt), "--out", str(link)], ["--out", "--gt"], capsys)
        assert gt.read_bytes() == before


class TestNumberSyntax:
    """Number flags read plain ASCII decimal text, as config values do.

    int() and float() would read '1_0' as 10 and any Unicode digit
    ('１２' as 12, '٠.５' as 0.5); each such value exits 1 naming its
    flag, before any output is written.
    """

    @staticmethod
    def argv(verb, tmp_path):
        out, given = str(tmp_path / "out.txt"), str(tmp_path / "in.txt")
        return {
            "synth": ["synth", "--out-features", out, "--out-labels", str(tmp_path / "l.txt")],
            "train": ["train", "--features", given, "--out-z", out],
            "segment": ["segment", "--z", given, "--method", "equal", "--k", "2",
                        "--out-labels", out],
            "eval": ["eval", "--pred", given, "--gt", str(tmp_path / "gt.txt"), "--out", out],
        }[verb]

    @pytest.mark.parametrize("verb, flag", [
        ("synth", "--segments"), ("synth", "--frames-min"), ("synth", "--frames-max"),
        ("synth", "--dims"), ("synth", "--classes"), ("synth", "--seed"),
        ("train", "--seed"), ("segment", "--k"), ("segment", "--seed"), ("eval", "--seed"),
    ])
    @pytest.mark.parametrize("value", ["1_0", "１２"], ids=["separator", "fullwidth"])
    def test_int_flag_exits_one_naming_it(self, tmp_path, capsys, verb, flag, value):
        assert main(self.argv(verb, tmp_path) + [flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("verb, flag", [
        ("synth", "--noise"), ("synth", "--separation"), ("eval", "--tau"),
    ])
    @pytest.mark.parametrize("value", ["1e-3_0", "٠.５"], ids=["separator", "arabic-indic"])
    def test_float_flag_exits_one_naming_it(self, tmp_path, capsys, verb, flag, value):
        assert main(self.argv(verb, tmp_path) + [flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()
