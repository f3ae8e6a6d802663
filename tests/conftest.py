import math

import numpy as np
import pytest

from scalepde import Field, evolve, make_grid

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
    """How many fields one n-D numpy.fft call transforms: its size over the
    axes it leaves alone.  Every n-D call in src passes ``axes=``; a call
    without it counts as one field."""
    if axes is None:
        return 1
    shape = np.shape(a)
    done = {axis % len(shape) for axis in axes}
    return math.prod(size for axis, size in enumerate(shape) if axis not in done)


def _one_axis_fields(shape, n=None) -> int:
    """How many fields a one-axis call along the last axis transforms: 2-D
    fields if axis -2 is of the transform's length n (the input's last
    axis unless given), else 1-D rows."""
    n = shape[-1] if n is None else n
    return math.prod(shape[:-2] if len(shape) > 1 and shape[-2] == n else shape[:-1])


@pytest.fixture
def forbid_nd_transforms(monkeypatch):
    """A call that makes numpy.fft's n-D entry points raise from then on,
    so that a test can take its expected values first."""

    def forbid():
        for name in ("fftn", "ifftn", "fft2", "ifft2", "rfftn", "irfftn", "rfft2", "irfft2"):

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"numpy.fft.{_name} called")

            monkeypatch.setattr(np.fft, name, refuse)

    return forbid


@pytest.fixture
def transform_counts(monkeypatch):
    """Live counts of numpy.fft calls (all, complex), the transforms they
    do (one per transformed field) and Field constructions.

    A one-axis call (``fft``, ``ifft``, ``rfft``, ``irfft``) along the last
    axis counts one transform per field it transforms: per 1-D row of a
    stack of 1-D fields (the transforms of ``grid`` in 1-D, whatever their
    leading node and component axes), and per 2-D field in the row pass of
    a band transform (``grid._band_rfft``/``_band_irfft``), told apart by
    its axis -2 of the transform's length.  In 2-D a band transform's
    complex pass along axis -2 counts as a call only."""
    counts = {"calls": 0, "complex": 0, "transforms": 0, "fields": 0}
    for name in _FFT_ENTRY_POINTS:

        def counted(a, *args, _orig=getattr(np.fft, name), _name=name, **kwargs):
            counts["calls"] += 1
            if kwargs.get("axis") != -2:
                counts["complex"] += "rfft" not in _name
                one_axis = _name in ("fft", "ifft", "rfft", "irfft")
                counts["transforms"] += (
                    _one_axis_fields(np.shape(a), kwargs.get("n"))
                    if one_axis
                    else _batch_size(a, kwargs.get("axes"))
                )
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    post_init = Field.__post_init__

    def counted_post_init(field):
        counts["fields"] += 1
        post_init(field)

    monkeypatch.setattr(Field, "__post_init__", counted_post_init)
    return counts


@pytest.fixture
def overflowing_rk4(monkeypatch):
    """Every RK4 step of the Burgers reference overflows: the step's result
    is multiplied by 1e308, so its largest modes, and every later state,
    are not finite."""
    rk4 = evolve._rk4

    def overflowing(u0, total, stage, dt, slope):
        rk4(u0, total, stage, dt, slope)
        total *= 1e308

    monkeypatch.setattr(evolve, "_rk4", overflowing)
