"""Periodic spectral discretization on a uniform 1-D grid.

The continuum problem lives on the whole real line; computations use a
periodic box [-L/2, L/2) with L large enough that localized profiles decay
below round-off at the boundary.  All derivatives are Fourier multipliers,
and quadrature is the rectangle rule h * sum(f) (exact for trigonometric
polynomials, and spectrally accurate for smooth decaying fields).

Conventions:
    nodes        x_m = -L/2 + m*h,  h = L/n,  m = 0..n-1
    wavenumbers  k in standard FFT order, 2*pi*fftfreq(n, h)

Every transform in trinls is `fft`/`ifft` below, or `rfft`/`irfft` for the
real arrays of the ground-state solvers, over the last axis: the call that
`scipy.fft.fft`/`ifft`/`rfft`/`irfft` make to pocketfft's kernels after their
backend dispatch, so the bits are the same, and `scipy.fft.set_backend`/
`set_workers` do not reach trinls.  The dispatch costs about 4 us a call (9.3
against 4.9 us for a (3, 256) complex array, on a 2-vCPU x86-64 machine with
SciPy 1.17).

`_rearrange_samples`, the symmetric decreasing rearrangement as a
permutation of samples, has no caller in the library: the benchmark's traced
run wraps it (through `ground_state`), and `oracles.rearrange` in the
tests builds on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2c, c2r, r2c


def check_args(*rules) -> None:
    """Raise ValueError(f"{name} must be {text}, got {value!r}") at the first
    rule (name, value, test, text) with a false test(value).  Each test runs
    after every rule before it has passed: a type rule guards the later ones."""
    for name, value, test, text in rules:
        if not test(value):
            raise ValueError(f"{name} must be {text}, got {value!r}")


def is_integer(x) -> bool:
    return isinstance(x, Integral)


def is_finite(x) -> bool:
    """x is a real number, neither infinite nor NaN, inside the float range."""
    try:
        return isinstance(x, Real) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def fft(x: np.ndarray) -> np.ndarray:
    """Forward DFT over the last axis, as `scipy.fft.fft(x, axis=-1)`."""
    return c2c(x, (-1,), True, 0, None, 1)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse DFT over the last axis (1/n), as `scipy.fft.ifft(x, axis=-1)`."""
    return c2c(x, (-1,), False, 2, None, 1)


def rfft(x: np.ndarray) -> np.ndarray:
    """Forward DFT of real samples over the last axis, its n // 2 + 1
    non-negative frequencies, as `scipy.fft.rfft(x, axis=-1)`."""
    return r2c(x, (-1,), True, 0, None, 1)


def irfft(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `rfft` over the last axis (1/n), n real samples, as
    `scipy.fft.irfft(x, n, axis=-1)`."""
    return c2r(x, (-1,), n, False, 2, None, 1)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points (power of two) on a box of length L."""

    n: int
    length: float
    spacing: float = field(compare=False, repr=False)
    nodes: np.ndarray = field(compare=False, repr=False)
    wavenumbers: np.ndarray = field(compare=False, repr=False)


def make_grid(n: int, length: float) -> Grid:
    """Build a periodic grid with nodes centered at 0.

    n must be an integer power of two, 16 <= n <= 2**62 (numpy's index
    range); length must be finite and positive, with length / n > 0, and at
    most 2**512, the largest box whose node squares are finite.
    """
    check_args(("n", n, is_integer, "an integer"),
               ("n", n, lambda n: n >= 16 and n & (n - 1) == 0, "a power of two >= 16"),
               ("n", n, lambda n: n <= 2 ** 62, "<= 2**62"),
               ("length", length, lambda length: is_finite(length) and length / n > 0,
                f"finite, with length / {n} > 0"),
               ("length", length, lambda length: float(length) <= 2 ** 512, "<= 2**512"))
    h = length / n
    x = -length / 2 + h * np.arange(n)
    k = 2 * np.pi * np.fft.fftfreq(n, d=h)
    return Grid(n=n, length=float(length), spacing=h,
                nodes=_readonly(x), wavenumbers=_readonly(k))


def _samples(grid: Grid, values, dtype) -> np.ndarray:
    """`values` as a read-only contiguous array of grid.n finite samples."""
    v = np.ascontiguousarray(values, dtype=dtype)
    if v.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field contains non-finite samples")
    return _readonly(v)


@dataclass(frozen=True)
class Field:
    """Complex-valued samples of one wave component on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _samples(self.grid, self.values, complex))


def require_same_grid(*grids: Grid) -> Grid:
    g0 = grids[0]
    for g in grids[1:]:
        if g != g0:
            raise ValueError(f"grid mismatch: {g0} vs {g}")
    return g0


def _rearrange_samples(values: np.ndarray) -> np.ndarray:
    """Symmetric decreasing rearrangement as a permutation of samples.

    Samples are sorted descending (stable; ties keep original order) and
    placed at nodes ordered by |x| ascending, non-negative node first at each
    tie: center, +h, -h, +2h, -2h, ..., ending at the lone -L/2 node.
    """
    n = values.shape[0]
    order = np.argsort(-values, kind="stable")
    half = n // 2
    place = np.empty(n, dtype=np.intp)
    place[0] = half                       # x = 0
    m = np.arange(1, half)
    place[1:2 * half - 1:2] = half + m    # +mh
    place[2:2 * half:2] = half - m        # -mh
    place[n - 1] = 0                      # x = -L/2, largest |x|, unpaired
    out = np.empty_like(values)
    out[place] = values[order]
    return out
