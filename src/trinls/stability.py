"""Orbital-stability experiments.

The distance of a state to the orbit of a computed minimizer is measured
modulo the symmetry group: over all whole-grid translations y and all
per-component phases, minimize

    sum_j || S_j - e^{i theta_j} Phi_j(. - y) ||_{H^1}^2 ,

then take the square root.  For each y the optimal phase is analytic (the
argument of the complex H^1 inner product), so a full scan over shifts costs
one FFT correlation per component.  The shift is then refined off the grid:
the vertex of the parabola through the best node and its two neighbours
starts at most three safeguarded Newton steps on the derivative of the
spectrally interpolated correlation.  The resulting number is an upper bound
for the distance to the full minimizer set, since only the orbit of one
representative is scanned.

A stability experiment perturbs a ground state, evolves it, measures this
orbital distance on each sampled state inside the evolution's sample hook
(so no state outlives its measurement), and issues a bounded / escaped /
blow_up verdict against a threshold eps (default 20 * perturbation size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import fft, ifft

from .evolution import BlowUpError, EvolutionTrace, evolve
from .ground_state import GroundState, _project
from .model import CouplingModel, State
from .spectral import check_args, is_finite, is_integer, require_same_grid
from .tolerances import DEFAULT as TOLS

PERTURBATION_KINDS = ("random_h1", "mass_preserving_random", "component_tilt")


def check_stability_args(kind: str, delta: float, eps: Optional[float] = None,
                         sample_every: int = 1, seed: int = 0) -> None:
    """Raise ValueError, led by the argument's name, at the first rule broken."""
    check_args(("kind", kind, lambda kind: kind in PERTURBATION_KINDS,
                f"one of {PERTURBATION_KINDS}"),
               ("delta", delta, lambda d: is_finite(d) and d >= 0, "finite and >= 0"),
               ("eps", eps, lambda e: e is None or is_finite(e) and e > 0,
                "finite and > 0 when given"),
               ("sample_every", sample_every, is_integer, "an integer"),
               ("sample_every", sample_every, lambda every: every > 0, "> 0"),
               ("seed", seed, is_integer, "an integer"),
               ("seed", seed, lambda seed: seed >= 0, ">= 0"))


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one perturb-evolve-measure run.

    distances holds the orbital distance at each of trace.times.  verdict
    is "bounded" iff sup_distance <= eps; "blow_up" marks NaN detection (sup
    over the partial trajectory).  orbit_drift_flag is a heuristic marker:
    the distance fell well below its running peak late in the run, which can
    mean the trajectory drifted toward a different minimizer, so the
    reported distances over-estimate.
    """

    delta: float
    eps: float
    kind: str
    seed: int
    sup_distance: float
    verdict: str
    trace: EvolutionTrace
    distances: np.ndarray
    orbit_drift_flag: bool = False


def _h1_weights(grid):
    return 1.0 + grid.wavenumbers ** 2


def orbital_distance(state: State, ground: GroundState) -> float:
    """Distance from `state` to the symmetry orbit of `ground.profile`.

    Scans every whole-grid translation, then refines the shift continuously
    around the best node (spectral interpolation of the correlation); per
    component and shift the optimal phase is the argument of
    <S, Phi(.-y)>_{H^1}.  Without the sub-grid refinement a drifting wave
    sampled between nodes would carry an artificial distance floor of about
    (h/2) * ||Phi'||_{H^1}.  The H^1 norm of the difference is computed
    directly: expanding its square cancels about eight digits.
    """
    grid = require_same_grid(state.grid, ground.grid)
    w = _h1_weights(grid)
    h = grid.spacing
    S = fft(state.stack(), axis=-1)
    P = fft(ground.profile.stack(), axis=-1)
    cross = w * S * np.conj(P)
    # corr[j, m] = <S_j, Phi_j(. - m h)>_{H^1}
    corr = h * ifft(cross, axis=-1)
    scan = np.sum(np.abs(corr), axis=0)
    m0 = int(np.argmax(scan))

    k = grid.wavenumbers
    # c(y), c'(y), c''(y) of c_j(y) = <S_j, Phi_j(. - y)>_{H^1}
    X = h / grid.n * cross
    derivs = np.concatenate([X, 1j * k * X, -k ** 2 * X])

    def distance(y: float) -> float:
        phases = np.exp(1j * k * y)
        diff = S - np.exp(1j * np.angle(X @ phases))[:, None] * P * np.conj(phases)
        return float(np.sqrt(h / grid.n * np.sum(w * np.abs(diff) ** 2)))

    # maximize F(y) = sum_j |c_j(y)|: vertex of the parabola through the
    # best node and its neighbours, then safeguarded Newton steps on F'
    y0 = m0 * h
    f_lo, f0, f_hi = scan[m0 - 1], scan[m0], scan[(m0 + 1) % grid.n]
    bend = f_lo - 2 * f0 + f_hi
    y = y0 + (0.5 * h * (f_lo - f_hi) / bend if bend < 0 else 0.0)
    for _ in range(3):
        c, dc, d2c = (derivs @ np.exp(1j * k * y)).reshape(3, 3)
        mod = np.abs(c)
        live = mod > 0
        c, dc, d2c, mod = c[live], dc[live], d2c[live], mod[live]
        slope = (np.conj(c) * dc).real / mod
        curv = np.sum((np.abs(dc) ** 2 + (np.conj(c) * d2c).real) / mod
                      - slope ** 2 / mod)
        if not curv < 0:
            break
        y = min(max(y - np.sum(slope) / curv, y0 - h), y0 + h)
    return min(distance(y0), distance(y))


def _smooth_noise(grid, rng) -> np.ndarray:
    """Smooth localized complex noise: gaussian spectral envelope times a
    broad spatial envelope (keeps samples decaying at the box edge)."""
    k = grid.wavenumbers
    spec = (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    spec *= np.exp(-(k / 2.0) ** 2 / 2)
    field = ifft(spec)
    return field * np.exp(-grid.nodes ** 2 / (2 * (grid.length / 5) ** 2))


def _y_norm(u: np.ndarray, grid) -> float:
    w = _h1_weights(grid)
    uh = fft(u, axis=-1)
    return float(np.sqrt(grid.spacing / grid.n * np.sum(w * np.abs(uh) ** 2)))


def perturb(state: State, kind: str, amplitude: float, seed: int = 0) -> State:
    """Return state + amplitude * eta with eta of unit Y-norm.

    kinds: "random_h1" (smooth random field), "mass_preserving_random"
    (same, then each component is renormalized so its mass matches `state`
    exactly), "component_tilt" (mass exchange direction along the profile
    shapes; deterministic).  amplitude 0 returns the state unchanged.
    ValueError: an unknown kind, an amplitude not finite and >= 0 (as delta),
    or a seed not an integer >= 0.
    """
    check_stability_args(kind, amplitude, seed=seed)
    if amplitude == 0.0:
        return state
    grid = state.grid
    u = state.stack()
    masses0 = state.masses()
    live = masses0 > 0

    if kind == "component_tilt":
        eta = np.zeros_like(u)
        for rank, j in enumerate(np.flatnonzero(live)):
            eta[j] = (1.0, -1.0)[rank % 2] * u[j] / _y_norm(u[j][None, :], grid)
    else:
        rng = np.random.default_rng(seed)
        eta = np.stack([_smooth_noise(grid, rng) for _ in range(3)])
    eta /= _y_norm(eta, grid)

    out = u + amplitude * eta
    if kind == "mass_preserving_random":  # a zero-mass component stays 0
        out[~live] = 0.0
        out[live] = _project(out[live], masses0[live], grid.spacing)
    return State.from_array(grid, out)


def _drift_reversal(d: np.ndarray) -> bool:
    if d.size < 5 or d.max() <= 0:
        return False
    i_peak = int(np.argmax(d))
    if i_peak >= int(0.8 * (d.size - 1)):
        return False
    rose = d[i_peak] > 5 * max(d[0], 1e-300)
    fell = d[i_peak:].min() < 0.5 * d[i_peak]
    return bool(rose and fell)


def stability_experiment(ground: GroundState, model: CouplingModel, kind: str,
                         delta: float, T: float, dt: float,
                         sample_every: int, eps: Optional[float] = None,
                         seed: int = 0) -> StabilityReport:
    """Perturb, evolve, and sample the orbital distance.

    eps defaults to 20 * delta (for the delta = 0 control, to the scheme
    error allowance instead).  The returned trace records the drifts only at
    the sampled times (t = 0, every `sample_every` steps and the last step),
    and the report's distances are taken there, each measured in the hook
    `evolve` calls with the sampled state.  A blow-up during evolution
    yields verdict "blow_up" with the partial trajectory.
    ValueError: an argument of the wrong type, not finite or out of range
    (`check_stability_args`, `evolve`).
    """
    check_stability_args(kind, delta, eps, sample_every, seed)
    if eps is None:
        eps = 20.0 * delta if delta > 0 else TOLS.stability_control
    initial = perturb(ground.profile, kind, delta, seed)
    blew_up = False
    dists = []
    try:
        trace = evolve(initial, T, dt, model, snapshot_every=sample_every,
                       record_every=sample_every,
                       sample=lambda _, s: dists.append(orbital_distance(s, ground)))
    except BlowUpError as err:
        trace = err.trace
        blew_up = True

    dists = np.array(dists)
    sup = float(dists.max())
    verdict = "blow_up" if blew_up else ("bounded" if sup <= eps else "escaped")
    return StabilityReport(
        delta=delta, eps=float(eps), kind=kind, seed=seed,
        sup_distance=sup, verdict=verdict,
        trace=trace, distances=dists, orbit_drift_flag=_drift_reversal(dists))
