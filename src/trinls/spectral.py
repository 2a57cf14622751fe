"""Periodic spectral discretization on a uniform 1-D grid.

The continuum problem lives on the whole real line; computations use a
periodic box [-L/2, L/2) with L large enough that localized profiles decay
below round-off at the boundary.  All derivatives are Fourier multipliers,
quadrature is the rectangle rule (exact for trigonometric polynomials, and
spectrally accurate for smooth decaying fields), and the symmetric decreasing
rearrangement is realized as a deterministic permutation of samples.

Conventions:
    nodes        x_m = -L/2 + m*h,  h = L/n,  m = 0..n-1
    wavenumbers  k in standard FFT order, 2*pi*fftfreq(n, h)
    integrate(f) = h * sum(f)    and    mass(f) = integrate(|f|^2)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points (power of two) on a box of length L."""

    n: int
    length: float
    spacing: float
    nodes: np.ndarray
    wavenumbers: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self) -> int:
        return hash((self.n, self.length))

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, length={self.length})"


def make_grid(n: int, length: float) -> Grid:
    """Build a periodic grid with nodes centered at 0.

    n must be a power of two with n >= 16; length must be positive, with a
    spacing length / n that does not underflow to 0.
    """
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 16, got n={n}")
    h = length / n
    if not h > 0:
        raise ValueError(f"domain length must be positive, got {length} "
                         f"(spacing {h})")
    x = -length / 2 + h * np.arange(n)
    k = 2 * np.pi * np.fft.fftfreq(n, d=h)
    return Grid(n=n, length=float(length), spacing=h,
                nodes=_readonly(x), wavenumbers=_readonly(k))


@dataclass(frozen=True)
class Field:
    """Complex-valued samples of one wave component on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "values", _readonly(np.ascontiguousarray(v)))


@dataclass(frozen=True)
class RealField:
    """Non-negative real samples on a Grid (moduli and their rearrangements)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite samples")
        if np.any(v < 0):
            raise ValueError("RealField requires non-negative samples")
        object.__setattr__(self, "values", _readonly(v))


def require_same_grid(*grids: Grid) -> Grid:
    g0 = grids[0]
    for g in grids[1:]:
        if g != g0:
            raise ValueError(f"grid mismatch: {g0} vs {g}")
    return g0


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Rectangle-rule integral h * sum(f) over the periodic box."""
    return float(grid.spacing * np.sum(np.asarray(values, dtype=float)))


def spectral_derivative(f: Field) -> Field:
    """Fourier differentiation; exact for band-limited inputs."""
    df = ifft(1j * f.grid.wavenumbers * fft(f.values))
    return Field(f.grid, df)


def mass(f: Field) -> float:
    """L^2 mass of one component: integral of |f|^2."""
    return integrate(np.abs(f.values) ** 2, f.grid)


def h1_inner(f: Field, g: Field) -> complex:
    """H^1 inner product: integral of f*conj(g) + f'*conj(g')."""
    grid = require_same_grid(f.grid, g.grid)
    k = grid.wavenumbers
    # Parseval: h*sum(f conj(g)) = (h/n) * sum(F conj(G)); derivative adds k^2
    fh = fft(f.values)
    gh = fft(g.values)
    s = np.sum((1.0 + k ** 2) * fh * np.conj(gh))
    return complex(grid.spacing / grid.n * s)


def h1_norm(f: Field) -> float:
    return float(np.sqrt(max(h1_inner(f, f).real, 0.0)))


def translate(f: Field, shift: float) -> Field:
    """Translate f(x) -> f(x - shift).

    Whole-grid-step shifts are exact sample permutations; other shifts use
    spectral interpolation (exact for band-limited fields).
    """
    grid = f.grid
    steps = shift / grid.spacing
    if abs(steps - round(steps)) < 1e-12:
        return Field(grid, np.roll(f.values, int(round(steps)) % grid.n))
    phase = np.exp(-1j * grid.wavenumbers * shift)
    return Field(grid, ifft(phase * fft(f.values)))


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


def rearrange(f: RealField) -> RealField:
    """Discrete symmetric decreasing rearrangement of a non-negative field.

    The output takes the same sample values (exact equimeasurability for
    every power sum), is even about the center up to the one-sample parity
    artifact at -L/2, and is non-increasing in |x|.
    """
    return RealField(f.grid, _rearrange_samples(f.values))
