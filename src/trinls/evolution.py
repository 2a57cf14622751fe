"""Time integration of the coupled system by Strang splitting.

One step of size dt is the symmetric composition

    half linear:   u_j <- F^{-1}[ exp(-i k^2 dt/2) F[u_j] ]
    full nonlinear: u_j <- exp( i dt (sum_k a_kj |u_k|^p) |u_j|^{p-2} ) u_j
    half linear again.

The loop carries the spectrum F[u] from one step to the next, so a step
costs three transforms: the inverse one into the nonlinear substep, the
forward one out of it, and one inverse transform for the recorded samples
u(t_n) that the per-step conservation record needs (time-splitting spectral
scheme of Bao, Jin & Markowich, JCP 175, 2002).

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
    if p == 2.0:
        return _coefficients(u, a, p)
    mod = np.abs(u)
    return _coefficients(u, a, p, mod ** p) * _mod_pow(mod, p - 2.0)


def _strang(uh: np.ndarray, half: np.ndarray, dt: float,
            model: CouplingModel, rot: np.ndarray) -> np.ndarray:
    """One Strang step mapping the (3, n) spectrum uh to the next one
    (`half` = exp(-i k^2 dt/2)); `rot` is a complex work buffer of the same
    shape that receives the phase factor cos(theta) + i sin(theta)."""
    v = ifft(half * uh, axis=-1)
    theta = dt * _phase_coefficient(v, model.a, model.p)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    v *= rot
    vh = fft(v, axis=-1)
    vh *= half
    return vh


def step(state: State, dt: float, model: CouplingModel) -> State:
    """One Strang step of size dt (dt < 0 integrates backwards)."""
    grid = state.grid
    half = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2)
    u = state.stack()
    uh = _strang(fft(u, axis=-1), half, dt, model, np.empty_like(u))
    return State.from_array(grid, ifft(uh, axis=-1))


def _mass_energy(u, uh, grid: Grid, model: CouplingModel):
    """Per-component masses and the energy from one |u| pass."""
    mod = np.abs(u)
    mod2 = mod ** 2
    E = _energy_array(u, grid, model, uh,
                      mod2 if model.p == 2.0 else mod ** model.p)
    return grid.spacing * np.sum(mod2, axis=1), E


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
    uh = fft(u, axis=-1)
    m0, E0 = _mass_energy(u, uh, grid, model)
    active = m0 > 0
    e_scale = abs(E0) if E0 != 0 else 1.0

    times = np.arange(nsteps + 1) * dt
    e_drift = np.zeros(nsteps + 1)
    m_drift = np.zeros((nsteps + 1, 3))
    snaps = []
    if snapshot_every > 0:
        snaps.append((0.0, State.from_array(grid, u)))

    half = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2)
    rot = np.empty_like(u)
    for s in range(1, nsteps + 1):
        uh = _strang(uh, half, dt, model, rot)
        u = ifft(uh, axis=-1)
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
            snaps.append((s * dt, State.from_array(grid, u)))

    return EvolutionTrace(
        times=times, energy_drift=e_drift, mass_drifts=m_drift,
        snapshots=tuple(snaps) if snapshot_every > 0 else None)
