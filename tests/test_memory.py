"""Memory of the experiment path, measured with tracemalloc (which counts
numpy's buffers and reads the same on every run of the same code): the text
codec streams, block splits are views, and the probe does not copy its
inputs."""

import tracemalloc

import numpy as np
import pytest

from mlclab.datamodel import (
    DataConfig,
    generate_longtail,
    read_dataset,
    write_dataset,
)
from mlclab.training import linear_eval

MB = 1e6


def _peak(fn, *args, **kwargs):
    """(fn's result, the most bytes allocated at once while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large():
    # 20 000 rows of the default generator: a 12.6 MB text file
    return generate_longtail(DataConfig(n=20_000))


def test_write_peak_does_not_grow_with_the_file(large, tmp_path):
    # a writer that builds the whole text first holds about 39 MB here
    _, peak = _peak(write_dataset, large, tmp_path / "d.txt")
    assert peak < 1 * MB


def test_read_peak_is_its_output_and_a_slack(large, tmp_path):
    path = tmp_path / "d.txt"
    write_dataset(large, path)
    back, peak = _peak(read_dataset, path)
    output = back.features.nbytes + back.labels.nbytes
    # the slack covers the finiteness mask (0.64 MB here), the rows' line
    # numbers and a line of text; a reader that holds the whole text and
    # its lines peaks at 4.6x output (26 MB)
    assert peak < output + 2 * MB


def test_linear_eval_peak_at_the_default_size():
    ds = generate_longtail(DataConfig())
    x, y = ds.subset("train")
    xv, yv = ds.subset("val")
    assert x.shape == (2000, 32) and y.shape == (2000, 20)
    # stacking [(x - mean) / scale, 1] and a float64 copy of the labels
    # took this to 3.3 MB; the logistic sigmoid's temporaries set it now
    _, peak = _peak(linear_eval, x, y, xv, yv)
    assert peak < 2.75 * MB


def test_block_split_is_a_read_only_view():
    ds = generate_longtail(DataConfig(n=100, labels=4, features=3, seed=1))
    for name in ("train", "val", "test"):
        rows = np.flatnonzero(ds.split == name)
        x, y = ds.subset(name)
        np.testing.assert_array_equal(x, ds.features[rows])
        np.testing.assert_array_equal(y, ds.labels[rows])
        assert np.shares_memory(x, ds.features) and np.shares_memory(y, ds.labels)
        for view in (x, y):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 0
    assert ds.features.flags.writeable

