"""Time integration of the coupled system by Strang splitting.

One step of size dt is the symmetric composition

    half linear:   u_j <- F^{-1}[ exp(-i k^2 dt/2) F[u_j] ]
    full nonlinear: u_j <- exp( i dt (sum_k a_kj |u_k|^p) |u_j|^{p-2} ) u_j
    half linear again.

The loop carries the spectrum F[u] from one step to the next (time-splitting
spectral scheme of Bao, Jin & Markowich, JCP 175, 2002).  A step that is
neither recorded nor snapshotted costs two transform calls of three rows:
the forward one out of the nonlinear substep and the inverse one into the
next.  A recorded step makes its inverse transform of a stacked (6, n)
array instead, whose rows give the next nonlinear substep's input and the
samples u(t_n), bit for bit as separate calls would; its record uses the
model's energy kernel, and the drifts are formed once after the loop.  A
snapshotted step hands its state to the caller's hook, sample(t, State),
and keeps nothing, so a run of any length holds one state at a time.

The nonlinear substep is exact: the coefficients depend only on the moduli
|u_m|, and a simultaneous pure phase rotation of the components leaves every
modulus unchanged.  Its factor cos + i sin takes cos = sqrt(1 - sin^2)
wherever every phase lies in [-pi/4, pi/4] (within 1 ulp of np.cos there),
and np.cos elsewhere.  Both substeps are L^2 isometries per component, so
the per-component masses are conserved to round-off; the energy is
conserved up to the O(dt^2) splitting error.  The scheme is unconditionally
stable; accuracy requires dt well below 1/max(k^2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.fft import fft, ifft

from .model import CouplingModel, State, _coefficients, _energy_array
from .spectral import Grid, check_args, is_finite, is_integer


class BlowUpError(RuntimeError):
    """Non-finite samples detected; carries the partial trace."""

    def __init__(self, message: str, trace: Optional["EvolutionTrace"] = None):
        super().__init__(message)
        self.trace = trace


@dataclass
class EvolutionTrace:
    """Conservation record of one trajectory.

    times has one entry per recorded instant (t = 0 included); energy_drift
    is relative |H(t) - H(0)| / |H(0)|; mass_drifts has shape (len(times), 3)
    with relative per-component drifts (zero-mass components report 0).
    """

    times: np.ndarray
    energy_drift: np.ndarray
    mass_drifts: np.ndarray


def _phase_coefficient(u: np.ndarray, a: np.ndarray, p: float) -> np.ndarray:
    """Real rotation rates (sum_k a_kj |u_k|^p) |u_j|^{p-2} per component."""
    if p == 2.0:
        return _coefficients(u, a, p)
    mod = np.abs(u)
    return _coefficients(u, a, p, mod ** p) * mod ** (p - 2.0)


def _phase_factor(phase: np.ndarray, bound: float, rot: np.ndarray) -> None:
    """Write cos(phase) + i sin(phase) into the complex buffer `rot`, given
    bound >= max |phase|; `phase` is overwritten with its sine.  Up to
    bound = pi/4, cos = sqrt(1 - sin^2) (cos >= 1/sqrt(2) there, so the error
    of sin passes to cos at most one to one); past it, and for a NaN bound,
    np.cos.  Both parts are formed contiguously, then copied into `rot`."""
    if bound <= math.pi / 4:
        sin = np.sin(phase, out=phase)
        cos = 1.0 - sin * sin
        np.sqrt(cos, out=cos)
    else:
        cos = np.cos(phase)
        sin = np.sin(phase, out=phase)
    rot.real = cos
    rot.imag = sin


def _strang(v: np.ndarray, half: np.ndarray, dt: float, model: CouplingModel,
            rot: np.ndarray, out: np.ndarray):
    """Rest of one Strang step from the samples v after the opening half
    linear step (`half` = exp(-i k^2 dt/2)): v is rotated in place by the
    phase factor, transformed and given the closing half step; the next
    spectrum goes to `out`, which may be `rot`, a complex work buffer of v's
    shape.  Returns the spectrum and the largest rate theta (all >= 0; NaN
    passes through the max), finite exactly when the step's result is."""
    theta = _phase_coefficient(v, model.a, model.p)
    peak = float(theta.max())
    theta *= dt
    _phase_factor(theta, peak * abs(dt), rot)
    v *= rot
    return np.multiply(fft(v, axis=-1), half, out=out), peak


def check_evolve_args(t: float, dt: float, snapshot_every: int = 0,
                      record_every: int = 1) -> None:
    """Raise ValueError, led by the argument's name, at the first rule broken."""
    check_args(("dt", dt, lambda dt: is_finite(dt) and dt != 0, "finite and non-zero"),
               ("t", t, lambda t: is_finite(t) and 0 <= t <= sys.maxsize * abs(dt),
                "in [0, sys.maxsize * |dt|]"),
               ("snapshot_every", snapshot_every, is_integer, "an integer"),
               ("snapshot_every", snapshot_every, lambda every: every >= 0, ">= 0"),
               ("record_every", record_every, is_integer, "an integer"),
               ("record_every", record_every, lambda every: every > 0, "> 0"))


def step(state: State, dt: float, model: CouplingModel) -> State:
    """One Strang step of size dt, finite and != 0 (else ValueError); < 0 goes back."""
    check_evolve_args(0.0, dt)
    grid = state.grid
    half = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2)
    u = state.stack()
    v = ifft(half * fft(u, axis=-1), axis=-1)
    rot = np.empty_like(u)
    uh, _ = _strang(v, half, dt, model, rot, out=rot)
    return State.from_array(grid, ifft(uh, axis=-1))


def _record(u, uh, grid: Grid, model: CouplingModel):
    """Per-component masses and the energy H from one |u| pass."""
    mod = np.abs(u)
    mod2 = mod ** 2
    mod_p = mod2 if model.p == 2.0 else mod ** model.p
    return (grid.spacing * np.sum(mod2, axis=1),
            _energy_array(u, grid, model.a, model.p, uh, mod_p))


def _trace(times, masses, energies) -> EvolutionTrace:
    """Drifts of the recorded masses and energies relative to the first
    record; the first row reads 0 even when the start is not finite."""
    e0, m0 = energies[0], masses[0]
    e_drift = np.zeros(len(energies))
    e_drift[1:] = np.abs(energies[1:] - e0) / (abs(e0) if e0 != 0 else 1.0)
    m_drift = np.zeros(masses.shape)
    live = m0 > 0
    m_drift[1:, live] = np.abs(masses[1:, live] - m0[live]) / m0[live]
    return EvolutionTrace(times=times, energy_drift=e_drift, mass_drifts=m_drift)


def evolve(state0: State, T: float, dt: float, model: CouplingModel,
           snapshot_every: int = 0, record_every: int = 1,
           sample: Optional[Callable[[float, State], None]] = None) -> EvolutionTrace:
    """Integrate for round(T / |dt|) steps, recording the drifts at t = 0,
    every `record_every` steps and at the last step.

    dt < 0 integrates backwards.  Every `snapshot_every` steps (0 disables;
    t = 0 and the last step are always included when enabled) the state is
    passed to the hook as sample(t, State) while the loop runs; nothing is
    kept, so memory does not grow with the number of samples.  No later
    step writes to the samples a State views, so the hook may keep it.  Every step checks its phase rates for a
    non-finite value, which flags exactly the first non-finite state, and
    every recorded step its energy, which can overflow first (p > 2); either
    raises BlowUpError there with the trace of the rows recorded before it,
    after the samples before it have gone to the hook.
    ValueError: an argument of the wrong type, not finite or out of range
    (`check_evolve_args`, which calls T t), or snapshot_every > 0 without a
    hook.
    """
    check_evolve_args(T, dt, snapshot_every, record_every)
    check_args(("snapshot_every", snapshot_every,
                lambda n: n == 0 or sample is not None, "0 without a sample hook"))
    grid = state0.grid
    nsteps = int(round(T / abs(dt)))
    nrec = -(-nsteps // record_every) + 1  # t = 0, every record_every, the last
    u = state0.stack()
    uh = fft(u, axis=-1)
    steps = np.zeros(nrec, dtype=np.int64)  # times = steps * dt: -0.0 going back
    masses, energies = np.empty((nrec, 3)), np.empty(nrec)
    masses[0], energies[0] = _record(u, uh, grid, model)
    rows = 1
    if snapshot_every > 0:
        sample(0.0, State.from_array(grid, u))

    def blow_up(what, s):
        partial = _trace(steps[:rows] * dt, masses[:rows], energies[:rows])
        return BlowUpError(f"non-finite {what} at t = {s * dt:g}", trace=partial)

    # rows 0-2: the next step's spectrum after its opening half step, rows
    # 3-5: the spectrum at t_s; on a recorded or snapshotted step one
    # inverse transform yields both samples, on any other rows 0-2 alone
    half = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2)
    pair = np.empty((6, grid.n), dtype=complex)
    rot = np.empty_like(u)
    v = ifft(half * uh, axis=-1)
    for s in range(1, nsteps + 1):
        uh, peak = _strang(v, half, dt, model, rot, out=pair[3:])
        if not math.isfinite(peak):
            raise blow_up("state", s)
        np.multiply(half, uh, out=pair[:3])
        record = s % record_every == 0 or s == nsteps
        snap = snapshot_every > 0 and (s % snapshot_every == 0 or s == nsteps)
        if not (record or snap):
            v = ifft(pair[:3], axis=-1)
            continue
        both = ifft(pair, axis=-1)
        v, u = both[:3], both[3:]
        if record:
            steps[rows] = s
            masses[rows], energies[rows] = _record(u, uh, grid, model)
            if not math.isfinite(energies[rows]):
                raise blow_up("energy", s)
            rows += 1
        if snap:
            sample(s * dt, State.from_array(grid, u))

    return _trace(steps * dt, masses, energies)
