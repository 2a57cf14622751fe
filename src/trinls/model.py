"""The coupled-NLS model made computable.

Energy functional over three complex fields (u1, u2, u3) with a symmetric
positive interaction matrix (a_kj) and exponent p in [2, 3):

    H(u) = integral( sum_j |u_j'|^2 - (1/p) sum_{k,j} a_kj |u_k|^p |u_j|^p )

together with the per-component masses Q(u_j) = integral(|u_j|^2).

Gradient convention: the first variation of H along a perturbation d is
2*Re<G, d>_{L^2} with

    G_j = -u_j'' - (sum_k a_kj |u_k|^p) |u_j|^{p-2} u_j ,

so a constrained minimizer satisfies G_j + w_j u_j = 0, where the w_j are the
Lagrange multipliers of the three mass constraints.  The oracles that
`trinls validate` runs are here too: the sech profile, the single-component
minimum values and a finite-difference check of the G the flow computes; so
is the sech profile's closed-form mass, from which the flow's start is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (Field, Grid, check_args, fft, ifft, is_finite,
                       require_same_grid, rfft)


def _exponent_rule(p) -> tuple:
    """The `check_args` rule on the exponent p: 2 <= p < 3."""
    return ("p", p, lambda p: is_finite(p) and 2 <= p < 3, "in [2, 3)")


@dataclass(frozen=True)
class CouplingModel:
    """Symmetric positive 3x3 interaction matrix plus exponent p in [2, 3)."""

    a: np.ndarray
    p: float

    def __post_init__(self):
        a = np.array(self.a, dtype=object)  # entries as given: the rules judge them
        check_args(("a", a.shape, lambda shape: shape == (3, 3), "of shape (3, 3)"))
        check_args(*((f"a{k + 1}{j + 1}", v, lambda v: is_finite(v) and v > 0,
                      "finite and > 0") for (k, j), v in np.ndenumerate(a)),
                   ("a", a.tolist(), lambda v: np.array_equal(v, a.T), "symmetric"),
                   _exponent_rule(self.p))
        a = a.astype(float)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class MassTriple:
    """Target masses (r, s, t); zero entries freeze the component at 0."""

    r: float
    s: float
    t: float

    def __post_init__(self):
        tiny = float(np.finfo(float).tiny)  # below it a mass has lost digits
        rules = ((lambda m: is_finite(m) and m >= 0, "finite and >= 0"),
                 (lambda m: m == 0 or m >= tiny, f"0 or >= {tiny!r}"))
        check_args(*((name, getattr(self, name), test, text)
                     for name in ("r", "s", "t") for test, text in rules),
                   ("t", self.t, lambda t: self.r + self.s + t > 0, "> 0 if r = s = 0"))

    @property
    def total(self) -> float:
        return self.r + self.s + self.t

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.s, self.t], dtype=float)


@dataclass(frozen=True)
class Multipliers:
    """Frequencies (w1, w2, w3); nan marks a zero-mass (undefined) component."""

    w1: float
    w2: float
    w3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.w1, self.w2, self.w3], dtype=float)


@dataclass(frozen=True)
class State:
    """Triple of complex fields on one common grid."""

    u1: Field
    u2: Field
    u3: Field

    def __post_init__(self):
        require_same_grid(self.u1.grid, self.u2.grid, self.u3.grid)

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    def stack(self) -> np.ndarray:
        """Writable (3, n) complex array of the three components."""
        return np.stack([self.u1.values, self.u2.values, self.u3.values])

    @classmethod
    def from_array(cls, grid: Grid, u: np.ndarray) -> "State":
        return cls(Field(grid, u[0]), Field(grid, u[1]), Field(grid, u[2]))

    def masses(self) -> np.ndarray:
        h = self.grid.spacing
        return h * (np.abs(self.stack()) ** 2).sum(axis=1)


# ---------------------------------------------------------------------------
# array-level kernels (shared by the solver and the time stepper), on a (k, n)
# array of k components with its k x k coupling block `a` and the exponent p.
# The time stepper passes all three rows.  The multiplier and the residual
# divide by the masses: the solver and their entry points pass live rows only.
# A complex array (the time stepper's) is transformed over its full spectrum,
# a real one (the solvers') over its half spectrum, the n/2 + 1 non-negative
# frequencies, whose sums take the Parseval weights 1, 2, ..., 2, 1.
# ---------------------------------------------------------------------------

def _forward(u: np.ndarray) -> np.ndarray:
    """The spectrum of u: full for a complex u, half for a real one."""
    return fft(u) if np.iscomplexobj(u) else rfft(u)


def _spectral_sum(terms: np.ndarray, n: int) -> np.ndarray:
    """Row sums over all n frequencies of `terms`, given on a full or a half
    spectrum (whose inner frequencies stand for two)."""
    total = terms.sum(axis=1)
    if terms.shape[1] != n:
        total = 2 * total - terms[:, 0] - terms[:, -1]
    return total


def _coefficients(u: np.ndarray, a: np.ndarray, p: float,
                  mod_p: np.ndarray = None) -> np.ndarray:
    """c_j = sum_k a_kj |u_k|^p, shaped like u (`mod_p`: |u|^p if at hand)."""
    return a.T @ (np.abs(u) ** p if mod_p is None else mod_p)


def _nonlinearity(u: np.ndarray, a: np.ndarray, p: float,
                  mod: np.ndarray = None, mod_p: np.ndarray = None) -> np.ndarray:
    """N_j = (sum_k a_kj |u_k|^p) |u_j|^{p-2} u_j, with |u|^{p-2}u := 0 at u=0
    (`mod`, `mod_p`: |u| and |u|^p if at hand)."""
    coef = _coefficients(u, a, p, mod_p)
    if p == 2.0:
        return coef * u
    mod = np.abs(u) if mod is None else mod
    return coef * mod ** (p - 2.0) * u


def _energy_terms(u: np.ndarray, grid: Grid, a: np.ndarray, p: float,
                  uh: np.ndarray = None, mod_p: np.ndarray = None):
    """Per-component kinetic energies and interaction integrals.

    Returns (kin, inter) with kin_j = int |u_j'|^2 and
    inter_j = int |u_j|^p sum_k a_jk |u_k|^p, so that
    H = sum(kin) - sum(inter)/p.  `uh` optionally passes the spectrum of u
    and `mod_p` the moduli np.abs(u) ** p.
    """
    h = grid.spacing
    if uh is None:
        uh = _forward(u)
    k2 = grid.wavenumbers[:uh.shape[1]] ** 2
    kin = h / grid.n * _spectral_sum(k2 * (uh.real ** 2 + uh.imag ** 2), grid.n)
    if mod_p is None:
        mod_p = np.abs(u) ** p
    inter = h * (mod_p * (a @ mod_p)).sum(axis=1)
    return kin, inter


def _energy_array(u: np.ndarray, grid: Grid, a: np.ndarray, p: float,
                  uh: np.ndarray = None, mod_p: np.ndarray = None) -> float:
    kin, inter = _energy_terms(u, grid, a, p, uh, mod_p)
    return float(kin.sum() - inter.sum() / p)


def _multiplier_array(u: np.ndarray, grid: Grid, a: np.ndarray, p: float,
                      m: np.ndarray = None, terms=None) -> np.ndarray:
    """w_j = -(kin_j - inter_j) / m_j; `m` and `terms` default to the masses
    of u and `_energy_terms(u, grid, a, p)`."""
    kin, inter = _energy_terms(u, grid, a, p) if terms is None else terms
    m = grid.spacing * (np.abs(u) ** 2).sum(axis=1) if m is None else m
    return -(kin - inter) / m


def _el_residual_array(u: np.ndarray, w: np.ndarray, grid: Grid,
                       a: np.ndarray, p: float, m: np.ndarray = None,
                       uh: np.ndarray = None, N: np.ndarray = None):
    """(max_j ||G_j + w_j u_j|| / sqrt(m_j), rh), by Parseval from rh_j =
    (k^2 + w_j) u_hat_j - N_hat_j, the transform of G_j + w_j u_j (full or
    half spectrum, as u is complex or real); `m`, `uh`, `N` default to the
    masses of u, the spectrum of u and N(u)."""
    m = grid.spacing * (np.abs(u) ** 2).sum(axis=1) if m is None else m
    uh = _forward(u) if uh is None else uh
    N = _nonlinearity(u, a, p) if N is None else N
    rh = (grid.wavenumbers[:uh.shape[1]] ** 2 + w[:, None]) * uh - _forward(N)
    sq = grid.spacing / grid.n * _spectral_sum(rh.real ** 2 + rh.imag ** 2, grid.n) / m
    return float(np.sqrt(sq.max())), rh


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _state_array(state: State) -> np.ndarray:
    """state.stack(), or its real part when every imaginary part is zero, so
    that a real state (a solved profile) takes the solvers' real path."""
    u = state.stack()
    return u if u.imag.any() else np.ascontiguousarray(u.real)


def energy(state: State, model: CouplingModel) -> float:
    """Value of the energy functional H."""
    return _energy_array(_state_array(state), state.grid, model.a, model.p)


def lagrange_multipliers(state: State, model: CouplingModel) -> Multipliers:
    """Extract (w1, w2, w3) from the multiplier identity.

    Every component must carry positive mass: zero mass leaves the
    multiplier undefined and raises.
    """
    m = state.masses()
    if not np.all(m > 0):
        raise ValueError("undefined multiplier: a component has zero mass")
    return Multipliers(*map(float, _multiplier_array(_state_array(state), state.grid,
                                                     model.a, model.p, m)))


def el_residual(state: State, mult: Multipliers, model: CouplingModel) -> float:
    """max_j ||G_j + w_j u_j|| / ||u_j||, skipping zero-mass components."""
    m = state.masses()
    live = np.flatnonzero(m > 0)
    if not live.size:
        raise ValueError("all components have zero mass")
    return _el_residual_array(_state_array(state)[live], mult.as_array()[live], state.grid,
                              model.a[np.ix_(live, live)], model.p, m[live])[0]


def sech_profile(sigma: float, a: float, p: float, grid: Grid) -> Field:
    """Unique positive solution of  -u'' + sigma*u = a*u^(2p-1).

    psi(x) = (sigma*p/a)^(1/(2p-2)) * sech^(2/(2p-2))( sqrt(sigma)*(2p-2)*x/2 ).
    """
    check_args(*((name, v, lambda v: is_finite(v) and v > 0, "finite and > 0")
                  for name, v in (("sigma", sigma), ("a", a))), _exponent_rule(p))
    x = grid.nodes
    amp = (sigma * p / a) ** (1.0 / (2 * p - 2))
    arg = np.sqrt(sigma) * (2 * p - 2) * x / 2
    return Field(grid, amp * (1.0 / np.cosh(arg)) ** (2.0 / (2 * p - 2)))


def sech_mass(omega: float, a: float, p: float) -> float:
    """Mass of `sech_profile(omega, a, p)` on the line: (omega p /
    a)^(1/(p-1)) B(1/(p-1), 1/2) / (sqrt(omega) (p - 1)), which is
    4 sqrt(omega) / a at p = 2."""
    nu = 1.0 / (p - 1.0)
    beta = math.sqrt(math.pi) * math.gamma(nu) / math.gamma(nu + 0.5)
    return (omega * p / a) ** nu * beta / (math.sqrt(omega) * (p - 1.0))


def single_component_minimum(m: float) -> tuple:
    """(lambda, omega) = (-m^3/48, (m/4)^2) of one component of mass m at
    p = 2, a = 1 (profile sech_profile(omega, 1, 2, grid)).  With every
    coupling 1, masses (m1, m2, m3) reduce to one component of mass
    m1 + m2 + m3: the equal triple has (-4/3, 1), the 2 + 2 split margin -1."""
    return -m ** 3 / 48, (m / 4) ** 2


# mass r -> grid (n, L) resolving the sech of mass r (width 4/r)
SINGLE_COMPONENT_BOXES = {1.0: (2048, 160.0), 2.0: (1024, 80.0), 4.0: (1024, 40.0)}


def random_smooth_state(grid: Grid, rng, amplitude: float = 0.5) -> np.ndarray:
    """Localized smooth random (3, n) complex samples for diagnostics.

    Band-limited complex noise under a gaussian envelope, normalized so the
    largest modulus equals `amplitude`.  The envelope is exp(-8) ~ 3.4e-4 at
    the box edge: whole-line identities hold only to about that level.
    """
    k = grid.wavenumbers
    env = np.exp(-grid.nodes ** 2 / (2 * (grid.length / 8) ** 2))
    u = np.empty((3, grid.n), dtype=complex)
    for j in range(3):
        spec = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        spec *= np.exp(-(k / 3.0) ** 2)
        f = env * ifft(spec)
        u[j] = amplitude * f / np.abs(f).max()
    return u


def gradient_fd_error(grid: Grid, model: CouplingModel, rng) -> float:
    """Worst relative gap between 2 Re<G, d> and (H(u + eps d) - H(u - eps d))
    / (2 eps), eps = 1e-5, over 20 `random_smooth_state` pairs (u, d).  G is
    the flow's own: the inverse transform of `_el_residual_array` at w = 0."""
    eps, worst = 1e-5, 0.0
    for _ in range(20):
        u, d = random_smooth_state(grid, rng), random_smooth_state(grid, rng)
        G = ifft(_el_residual_array(u, np.zeros(3), grid, model.a, model.p)[1])
        pairing = 2 * (grid.spacing * np.sum(G * np.conj(d))).real
        fd = (_energy_array(u + eps * d, grid, model.a, model.p)
              - _energy_array(u - eps * d, grid, model.a, model.p)) / (2 * eps)
        worst = max(worst, abs(fd - pairing) / max(abs(fd), 1e-12))
    return worst
