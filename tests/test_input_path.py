"""Every library function that takes features checks them through ``data_io.as_values``.

A raw array with one NaN must fail at the door with a message naming
the frame, not deep inside a solver, as a collapsed row, or not at all.
"""

import numpy as np
import pytest

from tsaseg.cluster import finch, kmeans, spectral
from tsaseg.data_io import RunConfig, save_features
from tsaseg.model import backward, combined_distribution, forward, init_model, train
from tsaseg.pipeline import segment_features
from tsaseg.similarity import semantic_distribution
from tsaseg.triplet import Triplet

CONFIG = RunConfig(batch_size=8, max_epochs=3)


def _model():
    return init_model(4, 60, np.random.default_rng(0), scheme="random")


CALLS = {
    "train": lambda x, tmp: train(x, CONFIG),
    "backward": lambda x, tmp: backward(_model(), x, [Triplet(0, 1, 2)], CONFIG),
    "forward": lambda x, tmp: forward(_model(), x),
    "combined_distribution": lambda x, tmp: combined_distribution(_model(), x, CONFIG),
    "semantic_distribution": lambda x, tmp: semantic_distribution(x, 1.0),
    "kmeans": lambda x, tmp: kmeans(x, 3, np.random.default_rng(0)),
    "finch": lambda x, tmp: finch(x, 3),
    "spectral": lambda x, tmp: spectral(x, 3, np.random.default_rng(0)),
    "segment_features": lambda x, tmp: segment_features(x, "kmeans", 3, np.random.default_rng(0)),
    "save_features": lambda x, tmp: save_features(x, tmp / "features.txt"),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_non_finite_array_rejected_naming_the_frame(name, tmp_path):
    x = np.random.default_rng(1).standard_normal((60, 4))
    x[5, 2] = np.nan
    # match the message: ZeroNormRowError is a ValueError too
    with pytest.raises(ValueError, match=r"^non-finite feature value at frame 5, dim 2$"):
        CALLS[name](x, tmp_path)
    assert not (tmp_path / "features.txt").exists()
