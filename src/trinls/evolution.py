"""Time integration of the coupled system by Strang splitting.

One step of size dt is the symmetric composition

    half linear:   u_j <- F^{-1}[ exp(-i k^2 dt/2) F[u_j] ]
    full nonlinear: u_j <- exp( i dt (sum_k a_kj |u_k|^p) |u_j|^{p-2} ) u_j
    half linear again.

The nonlinear substep is exact: the coefficients depend only on the moduli
|u_m|, and a simultaneous pure phase rotation of the components leaves every
modulus unchanged.  Both substeps are L^2 isometries per component, so the
per-component masses are conserved to round-off; the energy is conserved up
to the O(dt^2) splitting error.  The scheme is unconditionally stable;
accuracy requires dt well below 1/max(k^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import fft, ifft

from .model import (CouplingModel, State, _coefficients, _energy_array,
                    _mod_pow)
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
    coef = _coefficients(u, a, p)
    if p == 2.0:
        return coef
    return coef * _mod_pow(np.abs(u), p - 2.0)


def _strang(u: np.ndarray, half: np.ndarray, dt: float,
            model: CouplingModel):
    """One Strang step of a (3, n) array (`half` = exp(-i k^2 dt/2));
    returns the new samples and their FFT."""
    v = ifft(half * fft(u, axis=-1), axis=-1)
    v = np.exp(1j * dt * _phase_coefficient(v, model.a, model.p)) * v
    vh = half * fft(v, axis=-1)
    return ifft(vh, axis=-1), vh


def step(state: State, dt: float, model: CouplingModel) -> State:
    """One Strang step of size dt (dt < 0 integrates backwards)."""
    grid = state.grid
    half = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2)
    u, _ = _strang(state.stack(), half, dt, model)
    return State.from_array(grid, u)


def _mass_energy(u, uh, grid: Grid, model: CouplingModel):
    m = grid.spacing * np.sum(np.abs(u) ** 2, axis=1)
    return m, _energy_array(u, grid, model, uh)


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
    u = state0.stack()
    m0, E0 = _mass_energy(u, None, grid, model)
    active = m0 > 0
    e_scale = abs(E0) if E0 != 0 else 1.0

    times = np.arange(nsteps + 1) * dt
    e_drift = np.zeros(nsteps + 1)
    m_drift = np.zeros((nsteps + 1, 3))
    snaps = []
    if snapshot_every > 0:
        snaps.append((0.0, State.from_array(grid, u.copy())))

    half = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2)
    for s in range(1, nsteps + 1):
        u, uh = _strang(u, half, dt, model)
        m, E = _mass_energy(u, uh, grid, model)
        if not np.isfinite(E):
            partial = EvolutionTrace(
                times=times[:s], energy_drift=e_drift[:s],
                mass_drifts=m_drift[:s],
                snapshots=tuple(snaps) if snapshot_every > 0 else None)
            raise BlowUpError(f"non-finite state at t = {s * dt:g}", trace=partial)
        e_drift[s] = abs(E - E0) / e_scale
        m_drift[s, active] = np.abs(m[active] - m0[active]) / m0[active]
        if snapshot_every > 0 and (s % snapshot_every == 0 or s == nsteps):
            snaps.append((s * dt, State.from_array(grid, u.copy())))

    return EvolutionTrace(
        times=times, energy_drift=e_drift, mass_drifts=m_drift,
        snapshots=tuple(snaps) if snapshot_every > 0 else None)
