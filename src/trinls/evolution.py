"""Time integration of the coupled system by Strang splitting.

One step of size dt is the symmetric composition

    half linear:   u_j <- F^{-1}[ exp(-i k^2 dt/2) F[u_j] ]
    full nonlinear: u_j <- exp( i dt (sum_k a_kj |u_k|^p) |u_j|^{p-2} ) u_j
    half linear again.

The loop carries the spectrum F[u] from one step to the next, so a step
costs two transform calls: the forward one out of the nonlinear substep and
one inverse transform of a stacked (6, n) array whose rows give the next
nonlinear substep's input and the recorded samples u(t_n), bit for bit as
separate calls would (time-splitting spectral scheme of Bao, Jin &
Markowich, JCP 175, 2002).  The per-step record reduces the energy by dot
products; the drifts are formed once after the loop.

The nonlinear substep is exact: the coefficients depend only on the moduli
|u_m|, and a simultaneous pure phase rotation of the components leaves every
modulus unchanged.  Both substeps are L^2 isometries per component, so the
per-component masses are conserved to round-off; the energy is conserved up
to the O(dt^2) splitting error.  The scheme is unconditionally stable;
accuracy requires dt well below 1/max(k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import fft, ifft

from .model import CouplingModel, State, _coefficients, _mod_pow
from .spectral import Grid


class BlowUpError(RuntimeError):
    """Non-finite samples detected; carries the partial trace."""

    def __init__(self, message: str, trace: Optional["EvolutionTrace"] = None):
        super().__init__(message)
        self.trace = trace


@dataclass
class EvolutionTrace:
    """Per-step conservation record of one trajectory.

    times has one entry per recorded instant (t = 0 included); energy_drift
    is relative |H(t) - H(0)| / |H(0)|; mass_drifts has shape (len(times), 3)
    with relative per-component drifts (zero-mass components report 0).
    snapshots, when requested, is a tuple of (time, State); orbital_distance
    is filled by the stability experiments.
    """

    times: np.ndarray
    energy_drift: np.ndarray
    mass_drifts: np.ndarray
    snapshots: Optional[tuple] = None
    orbital_distance: Optional[np.ndarray] = None


def _phase_coefficient(u: np.ndarray, a: np.ndarray, p: float) -> np.ndarray:
    """Real rotation rates (sum_k a_kj |u_k|^p) |u_j|^{p-2} per component."""
    if p == 2.0:
        return _coefficients(u, a, p)
    mod = np.abs(u)
    return _coefficients(u, a, p, mod ** p) * _mod_pow(mod, p - 2.0)


def _strang(v: np.ndarray, half: np.ndarray, dt: float, model: CouplingModel,
            rot: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rest of one Strang step from the samples v after the opening half
    linear step (`half` = exp(-i k^2 dt/2)): v is rotated in place by the
    phase factor cos(theta) + i sin(theta), transformed and given the closing
    half step; the next spectrum goes to `out`, which may be `rot`.  `rot`
    is a complex work buffer of v's shape; cos and sin write contiguous
    arrays, which are then copied into its strided parts."""
    theta = _phase_coefficient(v, model.a, model.p)
    theta *= dt
    rot.real = np.cos(theta)
    rot.imag = np.sin(theta, out=theta)
    v *= rot
    return np.multiply(fft(v, axis=-1), half, out=out)


def step(state: State, dt: float, model: CouplingModel) -> State:
    """One Strang step of size dt (dt < 0 integrates backwards)."""
    grid = state.grid
    half = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2)
    u = state.stack()
    v = ifft(half * fft(u, axis=-1), axis=-1)
    rot = np.empty_like(u)
    uh = _strang(v, half, dt, model, rot, out=rot)
    return State.from_array(grid, ifft(uh, axis=-1))


def _mass_energy(u, uh, grid: Grid, model: CouplingModel, kin_w=None):
    """Per-component masses and the energy from one |u| pass.

    The masses sum as State.masses does; the energy takes two BLAS
    reductions: the squared real and imaginary parts of uh against
    `kin_w` = h/n k^2 (each k twice), and <|u|^p, a |u|^p>.
    """
    if kin_w is None:
        kin_w = grid.spacing / grid.n * np.repeat(grid.wavenumbers ** 2, 2)
    mod = np.abs(u)
    mod2 = mod ** 2
    mod_p = mod2 if model.p == 2.0 else mod ** model.p
    kin = np.square(uh.view(float)) @ kin_w
    inter = grid.spacing * np.vdot(mod_p, model.a @ mod_p)
    return grid.spacing * np.sum(mod2, axis=1), float(np.sum(kin) - inter / model.p)


def _trace(times, masses, energies, snaps) -> EvolutionTrace:
    """Drifts of the recorded masses and energies relative to the first
    record; the first row reads 0 even when the start is not finite."""
    e0, m0 = energies[0], masses[0]
    e_drift = np.zeros(len(energies))
    e_drift[1:] = np.abs(energies[1:] - e0) / (abs(e0) if e0 != 0 else 1.0)
    m_drift = np.zeros(masses.shape)
    live = m0 > 0
    m_drift[1:, live] = np.abs(masses[1:, live] - m0[live]) / m0[live]
    return EvolutionTrace(times=times, energy_drift=e_drift, mass_drifts=m_drift,
                          snapshots=None if snaps is None else tuple(snaps))


def evolve(state0: State, T: float, dt: float, model: CouplingModel,
           snapshot_every: int = 0) -> EvolutionTrace:
    """Integrate for round(T / |dt|) steps, recording drifts every step.

    dt < 0 integrates backwards.  Snapshots of the full state are stored
    every `snapshot_every` steps (0 disables; t = 0 is always included when
    enabled).  Raises BlowUpError with the partial trace on NaN detection;
    the check rides on the per-step energy record, so it costs nothing.
    """
    if dt == 0:
        raise ValueError("dt must be non-zero")
    if T < 0:
        raise ValueError("T must be non-negative; use dt < 0 to go backwards")
    grid = state0.grid
    nsteps = int(round(T / abs(dt)))
    times = np.arange(nsteps + 1) * dt
    u = state0.stack()
    uh = fft(u, axis=-1)
    kin_w = grid.spacing / grid.n * np.repeat(grid.wavenumbers ** 2, 2)
    masses = np.empty((nsteps + 1, 3))
    energies = np.empty(nsteps + 1)
    masses[0], energies[0] = _mass_energy(u, uh, grid, model, kin_w)
    snaps = [(0.0, State.from_array(grid, u))] if snapshot_every > 0 else None

    # rows 0-2: the next step's spectrum after its opening half step, rows
    # 3-5: the spectrum at t_s; one inverse transform yields both samples
    half = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2)
    pair = np.empty((6, grid.n), dtype=complex)
    rot = np.empty_like(u)
    v = ifft(half * uh, axis=-1)
    for s in range(1, nsteps + 1):
        uh = _strang(v, half, dt, model, rot, out=pair[3:])
        np.multiply(half, uh, out=pair[:3])
        both = ifft(pair, axis=-1)
        v, u = both[:3], both[3:]
        masses[s], energies[s] = _mass_energy(u, uh, grid, model, kin_w)
        if not math.isfinite(energies[s]):
            partial = _trace(times[:s], masses[:s], energies[:s], snaps)
            raise BlowUpError(f"non-finite state at t = {s * dt:g}", trace=partial)
        if snaps is not None and (s % snapshot_every == 0 or s == nsteps):
            snaps.append((s * dt, State.from_array(grid, u.copy())))

    return _trace(times, masses, energies, snaps)
