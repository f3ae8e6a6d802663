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


@pytest.fixture
def transform_counts(monkeypatch):
    """Live counts of numpy.fft calls (all, complex) and Field constructions."""
    counts = {"calls": 0, "complex": 0, "fields": 0}
    for name in _FFT_ENTRY_POINTS:

        def counted(*args, _orig=getattr(np.fft, name), _real="rfft" in name, **kwargs):
            counts["calls"] += 1
            counts["complex"] += not _real
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    post_init = Field.__post_init__

    def counted_post_init(field):
        counts["fields"] += 1
        post_init(field)

    monkeypatch.setattr(Field, "__post_init__", counted_post_init)
    return counts
