import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsaseg.data_io import (
    DataFormatError,
    FeatureMatrix,
    LabelSequence,
    RunConfig,
    config_lines,
    load_config,
    load_features,
    load_labels,
    make_config,
    save_features,
    save_labels,
)


class TestFeatureMatrix:
    def test_minimal_valid(self):
        m = FeatureMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert m.n_frames == 2 and m.n_dims == 3

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="at least 2 frames"):
            FeatureMatrix([[1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix([[1.0, np.nan], [0.0, 1.0]])

    def test_one_dim_ok(self):
        assert FeatureMatrix([[1.0], [2.0]]).n_dims == 1


class TestTextFormat:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 3\n1 0 0\n0 1 0\n")
        m = load_features(path)
        assert m.n_frames == 2 and m.n_dims == 3
        assert np.array_equal(m.values, [[1, 0, 0], [0, 1, 0]])

    def test_one_by_one_output_bytes(self, tmp_path):
        # format definition: serializing a bare array bypasses the N >= 2 rule
        path = tmp_path / "one.txt"
        save_features(np.array([[0.5]]), path, "text")
        assert path.read_text() == "1 1\n0.5\n"

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 3\n1 0 0\n")
        with pytest.raises(DataFormatError, match="row count mismatch"):
            load_features(path)

    def test_row_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("2 3\n1 0 0\n0 1\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_features(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_features(path)

    def test_non_finite_names_position(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("2 2\n1 inf\n0 1\n")
        with pytest.raises(DataFormatError, match="line 2.*column 2"):
            load_features(path)

    def test_undecodable_names_file_and_byte(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"2 1\n1\n\xe9\n")
        with pytest.raises(DataFormatError, match=r"latin1\.txt: byte 6: not valid ascii"):
            load_features(path)

    def test_text_round_trip_exact(self, tmp_path, rng):
        values = rng.standard_normal((7, 4))
        path = tmp_path / "rt.txt"
        save_features(FeatureMatrix(values), path, "text")
        back = load_features(path)
        # repr() serialization round-trips doubles exactly
        assert np.array_equal(back.values, values)


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        values = rng.standard_normal((5, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.bin"
        save_features(FeatureMatrix(values), path, "binary")
        back = load_features(path)
        assert np.array_equal(back.values, values)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        values = (rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)).astype(
            np.float32
        )
        path = tmp_path_factory.mktemp("bin") / "m.bin"
        save_features(FeatureMatrix(values.astype(np.float64)), path, "binary")
        assert np.array_equal(load_features(path).values, values.astype(np.float64))

    def test_magic_sniffing(self, tmp_path, rng):
        values = rng.standard_normal((3, 2)).astype(np.float32).astype(np.float64)
        binary, text = tmp_path / "m.bin", tmp_path / "m.txt"
        save_features(FeatureMatrix(values), binary, "binary")
        save_features(FeatureMatrix(values), text, "text")
        assert np.array_equal(load_features(binary).values, load_features(text).values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"TSAF" + (2).to_bytes(4, "little"))
        with pytest.raises(DataFormatError, match="truncated header"):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"TSAF" + (2).to_bytes(4, "little") + (3).to_bytes(4, "little") + bytes(8))
        with pytest.raises(DataFormatError, match="payload"):
            load_features(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_features("/nonexistent/features.bin")


class TestLabels:
    def test_first_appearance_mapping(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("pour\npour\nstir\n")
        seq = load_labels(path)
        assert np.array_equal(seq.labels, [0, 0, 1])
        assert seq.names == ("pour", "stir")

    def test_background_token(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("SIL\npour\nSIL\n")
        seq = load_labels(path, background="SIL")
        assert seq.background_id == 0

    def test_background_token_absent(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("pour\nstir\n")
        with pytest.raises(DataFormatError, match="never appears"):
            load_labels(path, background="SIL")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_labels(path)

    def test_blank_line_mid_file(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("pour\n\nstir\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_labels(path)

    @settings(max_examples=50, deadline=None)
    @given(tokens=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=40))
    def test_mapping_is_bijection(self, tmp_path_factory, tokens):
        path = tmp_path_factory.mktemp("lab") / "l.txt"
        path.write_text("".join(t + "\n" for t in tokens))
        seq = load_labels(path)
        assert len(seq.names) == len(set(tokens))
        assert sorted(set(seq.labels.tolist())) == list(range(len(seq.names)))
        for token, label in zip(tokens, seq.labels):
            assert seq.names[label] == token

    def test_undecodable_names_file_and_byte(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_bytes(b"pour\n\xff\n")
        with pytest.raises(DataFormatError, match=r"l\.txt: byte 5: not valid utf-8"):
            load_labels(path)

    def test_save_round_trip(self, tmp_path):
        seq = LabelSequence(np.array([0, 0, 1, 2]), ("a", "b", "c"))
        path = tmp_path / "out.txt"
        save_labels(seq, path)
        assert path.read_text() == "a\na\nb\nc\n"
        back = load_labels(path)
        assert np.array_equal(back.labels, seq.labels)

    def test_save_plain_integers(self, tmp_path):
        path = tmp_path / "ints.txt"
        save_labels(np.array([0, 0, 1]), path)
        assert path.read_text() == "0\n0\n1\n"


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.min_epochs <= cfg.max_epochs
        assert 0 < cfg.positive_fraction < 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"L": 0},
            {"h": 0.0},
            {"min_epochs": 5, "max_epochs": 2},
            {"positive_fraction": 1.0},
            {"init_scheme": "zeros"},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            RunConfig(**kw)

    def test_config_file_round_trip(self, tmp_path):
        cfg = RunConfig(L=9, learning_rate=0.403, epsilon_stop=0.892, batch_size=12)
        path = tmp_path / "run.cfg"
        path.write_text("".join(line + "\n" for line in config_lines(cfg)))
        back = make_config(**load_config(path))
        assert back == cfg

    def test_config_file_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nL = 9\nlearning_rate = 0.5\n")
        assert load_config(path) == {"L": "9", "learning_rate": "0.5"}

    def test_undecodable_config_names_file_and_byte(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"L = 9\n\xff = 1\n")
        with pytest.raises(DataFormatError, match=r"run\.cfg: byte 6: not valid utf-8"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(DataFormatError, match="unknown config key"):
            load_config(path)
