import math

import numpy as np
import pytest

from scalepde import Field, make_grid

_FFT_ENTRY_POINTS = (
    "fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
    "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2",
)


@pytest.fixture
def grid1d():
    return make_grid(1, 128)


@pytest.fixture
def grid2d():
    return make_grid(2, 64)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _batch_size(a, axes) -> int:
    """How many fields one numpy.fft call transforms: its size over the
    axes it leaves alone.  Every call in src passes ``axes=``; a call
    without it counts as one field."""
    if axes is None:
        return 1
    shape = np.shape(a)
    done = {axis % len(shape) for axis in axes}
    return math.prod(size for axis, size in enumerate(shape) if axis not in done)


@pytest.fixture
def transform_counts(monkeypatch):
    """Live counts of numpy.fft calls (all, complex), the transforms they
    do (one per transformed field) and Field constructions.

    A band transform (``grid._band_rfft``/``_band_irfft``) is two calls:
    ``rfft``/``irfft`` along the last axis of a stack (rows, *grid.shape),
    which counts one real transform per row, and in 2-D the complex pass
    along axis -2, which counts as a call only."""
    counts = {"calls": 0, "complex": 0, "transforms": 0, "fields": 0}
    for name in _FFT_ENTRY_POINTS:

        def counted(a, *args, _orig=getattr(np.fft, name), _name=name, **kwargs):
            counts["calls"] += 1
            if kwargs.get("axis") != -2:
                counts["complex"] += "rfft" not in _name
                row_pass = _name in ("rfft", "irfft")
                counts["transforms"] += (
                    np.shape(a)[0] if row_pass else _batch_size(a, kwargs.get("axes"))
                )
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    post_init = Field.__post_init__

    def counted_post_init(field):
        counts["fields"] += 1
        post_init(field)

    monkeypatch.setattr(Field, "__post_init__", counted_post_init)
    return counts
