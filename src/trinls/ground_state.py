"""Constrained energy minimization with three independent mass constraints.

The minimizer of H over states with prescribed per-component masses is
computed by a normalized gradient flow (`minimize`): step against the energy
gradient, then renormalize each constrained component to its target mass.
Because the three constraints involve disjoint variables, per-component
renormalization is the exact projection onto the constraint set.

The flow steps along (k^2 + s_j)^{-1} (G_j + w_j u_j) in Fourier space, with
w_j and the residual re-extracted every iteration by the `model` kernels the
polish and `el_residual` use (relative to the prescribed masses here).  The
fixed point of step + projection g(u) is exactly the Euler-Lagrange state.
With s_j = w_j the step is the Green-kernel sweep below.  g is Anderson-mixed
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011) over the last `_DEPTH` iterate
and step differences; a mixed iterate that raises the energy beyond the
monotonicity slack, or the residual above `_RESIDUAL_GROWTH` times the
lowest one reached, gives way to the plain step and the history is cleared.
About 15 iterations reach the round-off floor; `_STALL` accepted iterations
without a new lowest residual mean a floor above the target, and end the
flow.

The flow, the polish and lambda work on the live components only, those
with positive target mass: a (k, n) array of their rows, with the k x k
coupling block a[live, live].  Both solvers build their start on those rows
alone, and the mass projection takes no other.  The three components are
formed once, when the `GroundState` is packaged; a zero-mass one is an exact
+0.0 row with a NaN multiplier and achieved mass 0.0.

Every `GroundState` reports lambda = H(u) + sum_j w_j (Q_j(u) - m_j) in
extended precision, rounded once: the minimum value at the masses m, with the
mass error of the projection's rounding corrected to first order, so lambda
does not depend on the path the iterates took.

The independent cross-check `refine_fixed_point` rewrites the Euler-Lagrange
system as u_j = E_{w_j} * N_j(u), where E_w is the Green kernel of
(-d^2/dx^2 + w), i.e. division by (k^2 + w) in Fourier space, and iterates it
with per-sweep mass renormalization and multiplier re-extraction up to the
residual target; one guard (every active multiplier positive) and one sweep
budget end it with `DivergenceError` otherwise.

Also here: the subadditivity margin check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import fft, ifft

from .model import (CouplingModel, MassTriple, Multipliers, State,
                    _el_residual_array, _energy_terms,
                    _multiplier_array, _nonlinearity)
from .spectral import Grid, check_args, is_finite, is_integer
from .spectral import _rearrange_samples  # noqa: F401 (bench/tracing.py wraps it here)
from .tolerances import DEFAULT as TOLS


class ConvergenceError(RuntimeError):
    """A solve did not converge.  Raised as is when the flow misses its
    stopping criteria, carrying the last iterate; the subclasses mark a
    collapsed flow step and a diverging polish."""

    def __init__(self, message: str, last: Optional["GroundState"] = None):
        super().__init__(message)
        self.last = last


class DivergenceError(ConvergenceError):
    """Fixed-point sweeps met a multiplier that is not positive, or ran out
    of sweeps before reaching the residual target."""


class StepCollapseError(ConvergenceError):
    """The iterate left the finite range (step size collapse / blow-up)."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for `minimize`.  Defaults suit n=1024, L=40 production runs.

    `residual_tol` is raised to the grid's round-off floor
    (`_residual_target`).  The flow starts from `initial_state` when it is
    given, else from gaussian bumps on the active components, which `noise`
    (so only without `initial_state`) seeds with multiplicative complex
    noise (for basin checks).
    """

    max_iters: int = 5000
    residual_tol: float = 5e-12
    seed: int = 0
    initial_state: Optional[State] = None
    noise: float = 0.0

    def __post_init__(self):
        check_args(("max_iters", self.max_iters, is_integer, "an integer"),
                   ("max_iters", self.max_iters, lambda n: n >= 1, ">= 1"),
                   ("residual_tol", self.residual_tol,
                    lambda tol: is_finite(tol) and tol > 0, "finite and > 0"),
                   ("seed", self.seed, is_integer, "an integer"),
                   ("seed", self.seed, lambda seed: seed >= 0, ">= 0"),
                   ("noise", self.noise, lambda x: is_finite(x) and x >= 0,
                    "finite and >= 0"),
                   ("noise", self.noise, lambda x: x == 0 or self.initial_state is None,
                    "0 with a supplied start"))


@dataclass(frozen=True)
class GroundState:
    """Converged minimizer: profile, multipliers, the minimum value lam at
    the prescribed masses (it can differ from `energy(profile)` by a few
    ulp), Euler-Lagrange residual, iteration count, achieved masses, and the
    energy history of the run (diagnostic).  The solvers ran on the
    components with positive mass only; each zero-mass one is an exact
    +0.0 row of the profile, with a NaN multiplier and achieved mass 0.0."""

    profile: State
    multipliers: Multipliers
    lam: float
    residual: float
    iterations: int
    masses_achieved: MassTriple
    energy_history: tuple = field(default=(), repr=False)

    @property
    def grid(self) -> Grid:
        return self.profile.grid


@dataclass(frozen=True)
class SubadditivityResult:
    """Margin lam(total) - lam(part1) - lam(part2) with its noise band."""

    part1: MassTriple
    part2: MassTriple
    lam_total: float
    lam_part1: float
    lam_part2: float
    margin: float
    tolerance: float
    inconclusive: bool


_SHIFT_FLOOR = 1e-3
_SHIFT_FALLBACK = 0.5
_DEPTH = 3  # Anderson mixing depth: step differences kept
_RESIDUAL_GROWTH = 10.0  # a mixed iterate's residual over the lowest reached
_STALL = 50  # accepted iterations without a new lowest residual: stalled
_MAX_SWEEPS = 600  # polish sweeps before `refine_fixed_point` gives up


def _project(u: np.ndarray, targets: np.ndarray, h: float) -> np.ndarray:
    """Exact projection onto the mass constraints: each row of u, in place,
    rescaled to its entry of `targets` (live rows: every target positive)."""
    u *= np.sqrt(targets / (h * np.sum(np.abs(u) ** 2, axis=1)))[:, None]
    return u


def _initial_array(masses: MassTriple, grid: Grid, cfg: SolverConfig) -> np.ndarray:
    """A solver's start: the live rows of the supplied state, or gaussian bumps."""
    targets = masses.as_array()
    live = np.flatnonzero(targets > 0)
    start = cfg.initial_state
    if start is not None:
        check_args(("initial_state", start.grid, lambda g: g == grid, f"on {grid}"))
        empty = live[start.masses()[live] == 0.0]
        if empty.size:
            raise ValueError(f"component {empty[0] + 1} is identically zero; "
                             f"cannot rescale it to mass {targets[empty[0]]}")
        u = start.stack()[live]
    else:  # gaussian bumps
        env = np.exp(-grid.nodes ** 2 / 8.0)
        rng = np.random.default_rng(cfg.seed)
        u = np.empty((live.size, grid.n), dtype=complex)
        for row in u:
            row[:] = env
            if cfg.noise > 0:
                row *= 1.0 + cfg.noise * (rng.standard_normal(grid.n)
                                          + 1j * rng.standard_normal(grid.n))
    return _project(u, targets[live], grid.spacing)


def _residual_target(grid: Grid, tol: float) -> float:
    """Stopping threshold for the relative Euler-Lagrange residual: `tol`,
    raised to the round-off floor eps * max(k^2) of the residual's k^2 u_hat
    term (about 2.3e-11 at n = 4096, L = 40)."""
    return max(tol, float(np.finfo(float).eps * np.max(grid.wavenumbers ** 2)))


def minimize(model: CouplingModel, masses: MassTriple, grid: Grid,
             cfg: SolverConfig = SolverConfig()) -> GroundState:
    """Minimize H over the mass-constraint set; returns the ground state.

    Iterates the Anderson-mixed normalized flow (step, exact mass projection)
    until the Euler-Lagrange residual is below
    `_residual_target(grid, residual_tol)`.  Raises `ConvergenceError`
    (carrying the last accepted, evaluated iterate) after `max_iters`, after
    `_STALL` accepted iterations without a new lowest residual, when the
    converged lambda is not negative (not a minimizer), or when a target
    mass underflows to 0.0 on the grid; `StepCollapseError` if the iterate
    leaves the finite range.
    """
    targets = masses.as_array()
    live = np.flatnonzero(targets > 0)
    m, a, p = targets[live], model.a[np.ix_(live, live)], model.p
    h = grid.spacing
    k2 = grid.wavenumbers ** 2
    target = _residual_target(grid, cfg.residual_tol)
    u = _initial_array(masses, grid, cfg)  # (k, n): the live rows

    size = 2 * u.size  # mixing history over the real view of the iterate
    dX, dF = np.empty((_DEPTH, size)), np.empty((_DEPTH, size))
    x_prev, f_prev = np.empty(size), np.empty(size)
    count = -1  # differences recorded; -1 before the first iterate
    plain = None  # the unmixed step behind the current mixed iterate

    e_prev = np.inf
    history = []
    w = np.full(live.size, np.nan)
    res = res_min = np.inf
    best = 0  # accepted iterations up to the lowest residual
    for it in range(cfg.max_iters):
        uh = fft(u, axis=-1)
        mod = np.abs(u)
        mod_p = mod ** p
        kin, inter = _energy_terms(u, grid, a, p, uh, mod_p)
        E = float(np.sum(kin) - np.sum(inter) / p)
        if not np.isfinite(E):
            raise StepCollapseError(
                f"non-finite energy at iteration {it} (step size collapse)")
        N = _nonlinearity(u, a, p, mod, mod_p)
        w_it = _multiplier_array(u, grid, a, p, m, (kin, inter))
        # rh: Fourier transform of the residual G_j + w_j u_j
        res_it, rh = _el_residual_array(u, w_it, grid, a, p, m, uh, N)
        if plain is not None and not (E <= e_prev + TOLS.energy_monotone_slack and
                                      res_it <= _RESIDUAL_GROWTH * res_min):
            # raised energy or residual (at round-off the weights fit noise)
            u, plain, count = plain, None, -1
            continue
        history.append(E)
        u_acc, w, res = u, w_it, res_it  # the iterate w, res and E belong to
        if res < res_min:
            res_min, best = res, len(history)

        if res < target or len(history) - best >= _STALL:
            break
        e_prev = E

        s = np.where(w > _SHIFT_FLOOR, w, _SHIFT_FALLBACK)[:, None]
        g = _project(ifft(uh - rh / (k2 + s), axis=-1), m, h)

        x = u.view(float).ravel()  # real views of the iterate and the step
        gx = g.view(float).ravel()
        f = gx - x
        if count >= 0:
            np.subtract(x, x_prev, out=dX[count % _DEPTH])
            np.subtract(f, f_prev, out=dF[count % _DEPTH])
        x_prev[:] = x
        f_prev[:] = f
        count += 1
        if count == 0:
            u, plain = g, None
            continue
        # least-squares weights minimizing |f - dF gamma|, then the mixed
        # iterate g - (dX + dF) gamma, projected back onto the constraints
        F = dF[:min(count, _DEPTH)]
        gamma = np.linalg.lstsq(F @ F.T, F @ f, rcond=None)[0]
        mixed = gx - gamma @ dX[:len(F)]
        mixed -= gamma @ F
        u, plain = _project(mixed.view(complex).reshape(g.shape), m, h), g
        del f, mixed  # free before the next step: lower peak memory

    dX = dF = x_prev = f_prev = F = None  # released before lambda is formed
    if not res < target:
        last = _package(u_acc, w, res, it + 1, a, p, m, live, grid, history)
        raise ConvergenceError(
            f"no convergence in {it + 1} iterations, the last {len(history) - best} "
            f"without a new lowest residual (residual {res:.3e}, target "
            f"{target:.1e})", last=last)
    gs = _package(u_acc, w, res, it, a, p, m, live, grid, history)
    if not gs.lam < 0:
        raise ConvergenceError(
            f"converged to non-negative energy {gs.lam:.3e}; not a minimizer", last=gs)
    return gs


def _embed(rows: np.ndarray, live: np.ndarray, fill: float) -> np.ndarray:
    """The three components: `rows` at the `live` ones, `fill` elsewhere."""
    out = np.full((3,) + rows.shape[1:], fill, dtype=rows.dtype)
    out[live] = rows
    return out


def _package(u, w, res, iters, a, p, m, live, grid, history) -> GroundState:
    """The `GroundState` of the live rows u, with multipliers w, at masses m."""
    h = grid.spacing
    achieved = h * np.sum(np.abs(u) ** 2, axis=1)
    if not achieved.all():  # a positive target the grid's quadrature loses
        j = np.flatnonzero(achieved == 0)[0]
        raise ConvergenceError(f"mass {'rst'[live[j]]} = {float(m[j])!r} "
                               "underflows: the solved component has mass 0.0")
    # lambda = H(u) + sum_j w_j (Q_j(u) - m_j), in extended precision
    ul = u.astype(np.clongdouble)
    kin, inter = _energy_terms(ul, grid, a, p)
    dq = h * np.sum(np.abs(ul) ** 2, axis=1) - m
    lam = float(np.sum(kin) - np.sum(inter) / p + np.sum(w * dq))
    return GroundState(
        profile=State.from_array(grid, _embed(u, live, 0.0)),
        multipliers=Multipliers(*map(float, _embed(w, live, np.nan))),
        lam=lam,
        residual=res,
        iterations=iters,
        masses_achieved=MassTriple(*map(float, _embed(achieved, live, 0.0))),
        energy_history=tuple(history),
    )


def refine_fixed_point(state: State, model: CouplingModel,
                       masses: MassTriple) -> GroundState:
    """Polish a near-solution by Green-kernel fixed-point sweeps.

    Each sweep applies u_j <- (k^2 + w_j)^{-1} N_j(u) spectrally,
    renormalizes the constrained masses and re-extracts the multipliers,
    until the residual is below `_residual_target(grid, 1e-11)`.  Raises
    `DivergenceError` when a multiplier is not positive (a non-finite iterate
    included) or after `_MAX_SWEEPS` sweeps.
    """
    grid = state.grid
    h = grid.spacing
    targets = masses.as_array()
    live = np.flatnonzero(targets > 0)
    m, a, p = targets[live], model.a[np.ix_(live, live)], model.p
    k2 = grid.wavenumbers ** 2
    target = _residual_target(grid, 1e-11)
    u = _initial_array(masses, grid, SolverConfig(initial_state=state))  # live rows
    w, res = _multiplier_array(u, grid, a, p), np.inf
    for sweeps in range(1, _MAX_SWEEPS + 1):
        if not np.all(w > 0):
            raise DivergenceError(f"multiplier {_embed(w, live, np.nan)} "
                                  "not positive during refinement")
        N = _nonlinearity(u, a, p)
        u = _project(ifft(fft(N, axis=-1) / (k2 + w[:, None]), axis=-1), m, h)
        w = _multiplier_array(u, grid, a, p)
        res = _el_residual_array(u, w, grid, a, p)[0]
        if res < target:
            return _package(u, w, res, sweeps, a, p, m, live, grid, [])
    raise DivergenceError(f"no fixed-point convergence in {_MAX_SWEEPS} sweeps "
                          f"(residual {res:.3e}, target {target:.1e})")


def subadditivity_check(model: CouplingModel, part1: MassTriple,
                        part2: MassTriple, grid: Grid,
                        cfg: SolverConfig = SolverConfig(),
                        lam_total: Optional[float] = None) -> SubadditivityResult:
    """Margin lam(part1 + part2) - lam(part1) - lam(part2).

    A strictly negative margin confirms strict subadditivity numerically.
    Each part must carry positive total mass (MassTriple enforces this); the
    margin is flagged inconclusive when it sits inside the +-2*tolerance
    noise band of the three solves.  Pass `lam_total` when it is already
    solved (several splits of one total).
    """
    if lam_total is None:
        total = MassTriple(part1.r + part2.r, part1.s + part2.s,
                           part1.t + part2.t)
        lam_total = minimize(model, total, grid, cfg).lam
    lam_1 = minimize(model, part1, grid, cfg).lam
    lam_2 = minimize(model, part2, grid, cfg).lam
    margin = lam_total - lam_1 - lam_2
    tolerance = TOLS.lambda_rel * (abs(lam_total) + abs(lam_1) + abs(lam_2))
    return SubadditivityResult(
        part1=part1, part2=part2,
        lam_total=lam_total, lam_part1=lam_1, lam_part2=lam_2,
        margin=float(margin), tolerance=float(tolerance),
        inconclusive=bool(abs(margin) <= 2 * tolerance),
    )
