"""Proof-step oracles: helpers that check steps of the paper's arguments.

No command, `validate` check or benchmark computes a wave or a verdict with
these, so they live beside the tests and not in the library:

    spectral      RealField, rearrange (the symmetric decreasing
                  rearrangement of the Polya-Szego and Hardy-Littlewood
                  steps), integrate, mass, spectral_derivative, h1_inner,
                  translate
    model         gradient_array, energy_gradient, two_component_profile,
                  apply_symmetry, gn_ratio, gn_sharp_constant,
                  PhaseDiagnostics, phase_diagnostics
    ground_state  gaussian_start, noisy_start, lambda_long_double,
                  two_component_min, ConcentrationProfile, concentration

Conventions as in `trinls.spectral`:
    integrate(f) = h * sum(f)    and    mass(f) = integrate(|f|^2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.fft import fft, ifft

from trinls.ground_state import GroundState, SolverConfig, minimize
from trinls.model import (CouplingModel, MassTriple, State, _energy_terms,
                          _nonlinearity, sech_profile)
from trinls.spectral import (Field, Grid, _rearrange_samples, _samples,
                             require_same_grid)


# ---------------------------------------------------------------------------
# spectral: quadrature, transforms, norms and the discrete rearrangement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealField:
    """Non-negative real samples on a Grid (moduli and their rearrangements)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _samples(self.grid, self.values, float)
        if np.any(v < 0):
            raise ValueError("RealField requires non-negative samples")
        object.__setattr__(self, "values", v)


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


def rearrange(f: RealField) -> RealField:
    """Discrete symmetric decreasing rearrangement of a non-negative field.

    The output takes the same sample values (exact equimeasurability for
    every power sum), is even about the center up to the one-sample parity
    artifact at -L/2, and is non-increasing in |x|.
    """
    return RealField(f.grid, _rearrange_samples(f.values))


# ---------------------------------------------------------------------------
# model: the gradient, closed forms, symmetries, interpolation and phase
# ---------------------------------------------------------------------------

def gradient_array(u: np.ndarray, grid: Grid, a: np.ndarray, p: float) -> np.ndarray:
    """G = -u'' - N(u) of a (k, n) array, in the literal form: independent of
    the residual kernel through which the flow and `validate` form it."""
    k2 = grid.wavenumbers ** 2
    lap = ifft(-k2 * fft(u, axis=-1), axis=-1)
    return -lap - _nonlinearity(u, a, p)


def energy_gradient(state: State, model: CouplingModel) -> State:
    """Gradient G with dH(state)[d] = 2*Re<G, d>_{L^2}."""
    G = gradient_array(state.stack(), state.grid, model.a, model.p)
    return State.from_array(state.grid, G)


def two_component_profile(omega: float, beta: float, grid: Grid):
    """Explicit equal pair for p=2, a11=a22=1, a12=beta > -1.

    Both components equal sqrt(2*omega/(1+beta)) * sech(sqrt(omega) x).
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if beta <= -1:
        raise ValueError("beta must exceed -1")
    x = grid.nodes
    phi = np.sqrt(2 * omega / (1 + beta)) / np.cosh(np.sqrt(omega) * x)
    return Field(grid, phi), Field(grid, phi.copy())


def apply_symmetry(state: State, shift: float = 0.0, boost: float = 0.0,
                   phases=(0.0, 0.0, 0.0)) -> State:
    """Apply the symmetry group at t = 0:  u_j -> e^{i boost x + i b_j} u_j(x - shift).

    Whole-grid-step shifts are exact permutations; other shifts use spectral
    interpolation.
    """
    grid = state.grid
    gal = np.exp(1j * (boost * grid.nodes))
    out = []
    for f, beta in zip((state.u1, state.u2, state.u3), phases):
        g = translate(f, shift) if shift != 0.0 else f
        out.append(Field(grid, np.exp(1j * beta) * gal * g.values))
    return State(*out)


def gn_ratio(f: Field, p: float) -> float:
    """Interpolation ratio |f|_{2p}^{2p} / (||f'||^{p-1} ||f||^{p+1})."""
    num = integrate(np.abs(f.values) ** (2 * p), f.grid)
    l2, dl2 = np.sqrt(mass(f)), np.sqrt(mass(spectral_derivative(f)))
    if l2 == 0 or dl2 == 0:
        raise ValueError("ratio undefined for constant or zero fields")
    return float(num / (dl2 ** (p - 1) * l2 ** (p + 1)))


def gn_sharp_constant(p: float, grid: Grid) -> float:
    """Sharp 1-D interpolation constant, calibrated on the extremal profile.

    The ratio is invariant under amplitude scaling and dilation, so any
    member of the sech family evaluates it.
    """
    return gn_ratio(sech_profile(1.0, 1.0, p, grid), p)


@dataclass(frozen=True)
class PhaseDiagnostics:
    """Constancy-of-phase report for one component.

    theta is the mass-weighted mean phase; max_deviation the largest phase
    angle relative to theta over the support region (samples above
    1e-10 * max|f|); min_aligned_real the smallest value of
    Re(e^{-i theta} f) there (positive for a positive representative).
    """

    theta: float
    max_deviation: float
    min_aligned_real: float


def phase_diagnostics(f: Field) -> PhaseDiagnostics:
    v = f.values
    mod = np.abs(v)
    peak = mod.max()
    if peak == 0.0:
        raise ValueError("zero field has no phase")
    support = mod > 1e-10 * peak
    theta = float(np.angle(np.sum(mod[support] * v[support])))
    aligned = v[support] * np.exp(-1j * theta)
    max_dev = float(np.max(np.abs(np.angle(aligned))))
    return PhaseDiagnostics(theta, max_dev, float(aligned.real.min()))


# ---------------------------------------------------------------------------
# ground_state: the gaussian and perturbed starts, the reduced two-component
# problem and concentration
# ---------------------------------------------------------------------------

def gaussian_start(masses: MassTriple, grid: Grid) -> State:
    """Gaussian bumps exp(-x^2/8) on the components with positive mass and
    exact zeros elsewhere: the flow's start before it took the sech of the
    equal-coupling reduction, which as `SolverConfig(initial_state=...)`
    reproduces that flow's iterates bit for bit."""
    live = (masses.as_array() > 0)[:, None]
    return State.from_array(grid, live * np.exp(-grid.nodes ** 2 / 8.0).astype(complex))


def noisy_start(masses: MassTriple, grid: Grid, noise: float, seed: int) -> State:
    """`gaussian_start` times 1 + noise * (complex standard normal
    samples), for basin checks as `SolverConfig(initial_state=...)`: each
    component with positive mass, in order, draws its real then its
    imaginary parts from one `default_rng(seed)`; the others are zero."""
    rng = np.random.default_rng(seed)
    u = gaussian_start(masses, grid).stack()
    for j in np.flatnonzero(masses.as_array() > 0):
        u[j] *= 1.0 + noise * (rng.standard_normal(grid.n)
                               + 1j * rng.standard_normal(grid.n))
    return State.from_array(grid, u)


def lambda_long_double(gs: GroundState, model: CouplingModel,
                       masses: MassTriple) -> float:
    """lambda = H(u) + sum_j w_j (Q_j(u) - m_j) of `gs` at `masses`, every
    step in extended precision (|u|^p included), rounded once: what
    `GroundState.lam` reads at p = 2, and to an ulp or so at p != 2, where
    the solvers form |u|^p in double."""
    targets = masses.as_array()
    live = np.flatnonzero(targets > 0)
    u = gs.profile.stack()[live].astype(np.clongdouble)
    grid, p = gs.grid, model.p
    kin, inter = _energy_terms(u, grid, model.a[np.ix_(live, live)], p)
    dq = grid.spacing * np.sum(np.abs(u) ** 2, axis=1) - targets[live]
    w = gs.multipliers.as_array()[live]
    return float(np.sum(kin) - np.sum(inter) / p + np.sum(w * dq))


def two_component_min(alpha1: float, alpha2: float, beta: float,
                      a1: float, a2: float, grid: Grid,
                      cfg: SolverConfig = SolverConfig(),
                      p: float = 2.0) -> GroundState:
    """Reduced two-component problem: minimize

        F(f, g) = ||f'||^2 + ||g'||^2
                  - (1/p)(alpha1 |f|_{2p}^{2p} + alpha2 |g|_{2p}^{2p}
                          + 2 beta |f g|_p^p)

    over ||f||^2 = a1, ||g||^2 = a2 (masses a1, a2).  Realized as the full
    problem with couplings (a11, a22, a12) = (alpha1, alpha2, beta) and the
    third mass zero, whose couplings the solver never reads.  Both converged
    components are positive up to a constant phase (checked by the test
    suite, not assumed here).
    """
    if min(alpha1, alpha2, beta, a1, a2) <= 0:
        raise ValueError("all parameters of the reduced problem must be positive")
    a = np.array([[alpha1, beta, 1.0],
                  [beta, alpha2, 1.0],
                  [1.0, 1.0, 1.0]])
    model = CouplingModel(a=a, p=p)
    return minimize(model, MassTriple(a1, a2, 0.0), grid, cfg)


@dataclass(frozen=True)
class ConcentrationProfile:
    """Largest window mass P(eta) per half-width eta, plus the compactness
    proxy P(max eta) / total mass."""

    etas: tuple
    values: tuple
    gamma_proxy: float


def concentration(state: State, etas: Sequence[float]) -> ConcentrationProfile:
    """Concentration function: P(eta) = max over window centers y of the
    mass of (|u1|^2 + |u2|^2 + |u3|^2) in [y - eta, y + eta].

    Window centers range over grid nodes; windows wrap periodically and are
    capped at the whole box.  Values are non-decreasing in eta.
    """
    grid = state.grid
    h = grid.spacing
    n = grid.n
    u = state.stack()
    rho = np.sum(np.abs(u) ** 2, axis=0)
    total = float(h * np.sum(rho))
    etas_sorted = tuple(sorted(float(e) for e in etas))
    if not etas_sorted:
        raise ValueError("at least one window half-width is needed")
    if etas_sorted[0] < 0:
        raise ValueError("window half-widths must be non-negative")
    ext = np.concatenate([rho, rho])
    cs = np.concatenate([[0.0], np.cumsum(ext)])
    values = []
    for eta in etas_sorted:
        wsteps = int(np.floor(eta / h + 1e-12))
        width = min(2 * wsteps + 1, n)
        sums = cs[width:width + n] - cs[:n]
        values.append(float(h * sums.max()))
    gamma = values[-1] / total if total > 0 else 0.0
    return ConcentrationProfile(etas=etas_sorted, values=tuple(values),
                                gamma_proxy=float(gamma))
