"""Constrained energy minimization with three independent mass constraints.

The minimizer of H over states with prescribed per-component masses is
computed by a normalized gradient flow (`minimize`): step against the energy
gradient, then renormalize each constrained component to its target mass.
Because the three constraints involve disjoint variables, per-component
renormalization is the exact projection onto the constraint set.

Two flow schemes are provided:

``preconditioned`` (default)
    Steps along (k^2 + s_j)^{-1} (G_j + w_j u_j) in Fourier space, with the
    multiplier estimate w_j re-extracted every iteration.  The fixed point of
    step + projection g(u) is exactly the Euler-Lagrange state.  With tau = 1
    and s_j = w_j the step is the Green-kernel sweep below.  g is Anderson-
    mixed (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) over the last
    `_DEPTH` iterate and step differences; a mixed iterate that raises the
    energy beyond the monotonicity slack, or the residual above
    `_RESIDUAL_GROWTH` times the lowest one reached, gives way to the plain
    step and the history is cleared.  About 15 iterations reach the
    round-off floor.

``explicit``
    Plain forward-Euler descent u <- u - tau_eff * G with tau_eff a fraction
    of the von Neumann limit 2 / max(k^2), never mixed.  Kept as a
    cross-check; it needs O(1e5) iterations at production resolution.

Every `GroundState` reports lambda = H(u) + sum_j w_j (Q_j(u) - m_j) in
extended precision, rounded once: the minimum value at the masses m, with the
mass error of the projection's rounding corrected to first order, so lambda
does not depend on the path the iterates took.

The independent cross-check `refine_fixed_point` rewrites the Euler-Lagrange
system as u_j = E_{w_j} * N_j(u), where E_w is the Green kernel of
(-d^2/dx^2 + w), i.e. division by (k^2 + w) in Fourier space, and iterates it
with per-sweep multiplier re-extraction and mass renormalization.

Also here: the two-component reduced problem, the concentration (window-mass)
diagnostic, and the subadditivity margin check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.fft import fft, ifft

from .model import (CouplingModel, MassTriple, Multipliers, State,
                    _el_residual_array, _energy_terms,
                    _multiplier_array, _nonlinearity, sech_profile)
# _rearrange_samples is unused here; bench/tracing.py wraps it by this path
from .spectral import Grid, _rearrange_samples  # noqa: F401
from .tolerances import DEFAULT as TOLS


class ConvergenceError(RuntimeError):
    """Flow did not meet the stopping criteria; carries the last iterate."""

    def __init__(self, message: str, last: Optional["GroundState"] = None):
        super().__init__(message)
        self.last = last


class DivergenceError(RuntimeError):
    """Fixed-point sweeps made the residual grow; carries the best iterate."""

    def __init__(self, message: str, best: Optional["GroundState"] = None):
        super().__init__(message)
        self.best = best


class StepCollapseError(RuntimeError):
    """The iterate left the finite range (step size collapse / blow-up)."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for `minimize`.  Defaults suit n=1024, L=40 production runs.

    `residual_tol` is raised to the grid's round-off floor
    (`_residual_target`); `init` is one of {"gaussian_bumps", "sech_guess",
    "supplied"} ("supplied" requires `initial_state`); `noise` seeds the
    gaussian init with multiplicative complex noise (for basin checks).
    """

    tau: float = 1.0
    max_iters: int = 5000
    residual_tol: float = 5e-12
    energy_tol: float = 1e-12
    seed: int = 0
    init: str = "gaussian_bumps"
    initial_state: Optional[State] = None
    scheme: str = "preconditioned"
    noise: float = 0.0

    def __post_init__(self):
        for name, ok, rule in (
                ("tau", self.tau > 0, "> 0"),
                ("max_iters", self.max_iters >= 1, ">= 1"),
                ("residual_tol", self.residual_tol > 0, "> 0"),
                ("energy_tol", self.energy_tol > 0, "> 0"),
                ("seed", self.seed >= 0, ">= 0"),
                ("noise", self.noise >= 0, ">= 0"),
                ("init", self.init in ("gaussian_bumps", "sech_guess", "supplied"),
                 "gaussian_bumps, sech_guess or supplied"),
                ("scheme", self.scheme in ("preconditioned", "explicit"),
                 "preconditioned or explicit")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.init == "supplied" and self.initial_state is None:
            raise ValueError("init='supplied' requires initial_state")


@dataclass(frozen=True)
class GroundState:
    """Converged minimizer: profile, multipliers, the minimum value lam at
    the prescribed masses (it can differ from `energy(profile)` by a few
    ulp), Euler-Lagrange residual, iteration count, achieved masses, and the
    energy history of the run (diagnostic)."""

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
class ConcentrationProfile:
    """Largest window mass P(eta) per half-width eta, plus the compactness
    proxy P(max eta) / total mass."""

    etas: tuple
    values: tuple
    gamma_proxy: float


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


def _project(u: np.ndarray, targets: np.ndarray, h: float) -> np.ndarray:
    """Exact projection onto the mass constraints: per-component rescale."""
    m = h * np.sum(np.abs(u) ** 2, axis=1)
    active = targets > 0
    empty = active & (m == 0.0)
    if np.any(empty):
        j = int(np.argmax(empty))
        raise ValueError(
            f"component {j + 1} is identically zero; cannot rescale it "
            f"to mass {targets[j]}")
    u *= np.sqrt(targets / np.where(active, m, 1.0))[:, None]
    u[~active] = 0.0
    return u


def _initial_array(model: CouplingModel, masses: MassTriple, grid: Grid,
                   cfg: SolverConfig) -> np.ndarray:
    targets = masses.as_array()
    n = grid.n
    x = grid.nodes
    u = np.zeros((3, n), dtype=complex)
    if cfg.init == "supplied":
        sup = cfg.initial_state
        if sup.grid != grid:
            raise ValueError("supplied initial state lives on a different grid")
        u = sup.stack().astype(complex)
    elif cfg.init == "sech_guess":
        seed_profile = sech_profile(1.0, 1.0, model.p, grid).values
        for j in range(3):
            if targets[j] > 0:
                u[j] = seed_profile
    else:  # gaussian_bumps
        env = np.exp(-x ** 2 / 8.0)
        rng = np.random.default_rng(cfg.seed)
        for j in range(3):
            if targets[j] > 0:
                bump = env.astype(complex)
                if cfg.noise > 0:
                    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    bump = env * (1.0 + cfg.noise * xi)
                u[j] = bump
    return _project(u, targets, grid.spacing)


def _residual_target(grid: Grid, tol: float) -> float:
    """Stopping threshold for the relative Euler-Lagrange residual: `tol`,
    raised to the round-off floor eps * max(k^2) of the residual's k^2 u_hat
    term (about 2.3e-11 at n = 4096, L = 40)."""
    return max(tol, float(np.finfo(float).eps * np.max(grid.wavenumbers ** 2)))


def minimize(model: CouplingModel, masses: MassTriple, grid: Grid,
             cfg: SolverConfig = SolverConfig()) -> GroundState:
    """Minimize H over the mass-constraint set; returns the ground state.

    Iterates the normalized flow (step, exact mass projection), Anderson-mixed
    for the preconditioned scheme, until the energy decrease drops below
    `energy_tol` while the Euler-Lagrange residual is below
    `_residual_target(grid, residual_tol)`.  Raises `ConvergenceError`
    (carrying the last iterate) when `max_iters` is exhausted and
    `StepCollapseError` if the iterate leaves the finite range.
    """
    targets = masses.as_array()
    act = np.flatnonzero(targets > 0)
    h = grid.spacing
    k2 = grid.wavenumbers ** 2
    target = _residual_target(grid, cfg.residual_tol)
    slack = TOLS.energy_monotone_factor * cfg.energy_tol
    u = _initial_array(model, masses, grid, cfg)

    mix = cfg.scheme == "preconditioned"
    tau_eff = cfg.tau if mix else cfg.tau * 2.0 / k2.max()
    if mix:  # mixing history over the real view of the active components
        size = 2 * act.size * grid.n
        dX, dF = np.empty((_DEPTH, size)), np.empty((_DEPTH, size))
        x_prev, f_prev = np.empty(size), np.empty(size)
    count = -1  # differences recorded; -1 before the first iterate
    plain = None  # the unmixed step behind the current mixed iterate

    e_prev = np.inf
    history = []
    w = np.full(3, np.nan)
    res = res_min = np.inf
    converged = False
    for it in range(cfg.max_iters):
        uh = fft(u, axis=-1)
        mod = np.abs(u)
        mod_p = mod ** model.p
        kin, inter = _energy_terms(u, grid, model, uh, mod_p)
        E = float(np.sum(kin) - np.sum(inter) / model.p)
        if not np.isfinite(E):
            raise StepCollapseError(
                f"non-finite energy at iteration {it} (step size collapse)")
        N = _nonlinearity(u, model.a, model.p, mod, mod_p)

        w_it = np.full(3, np.nan)
        w_it[act] = -(kin[act] - inter[act]) / targets[act]
        wa = w_it[act, None]

        # Fourier transform of the residual G_j + w_j u_j
        rh = (k2 + wa) * uh[act] - fft(N[act], axis=-1)
        res_it = float(np.sqrt(np.max(
            h / grid.n * np.sum(np.abs(rh) ** 2, axis=1) / targets[act])))
        if plain is not None and not (E <= e_prev + slack and
                                      res_it <= _RESIDUAL_GROWTH * res_min):
            # raised energy or residual (at round-off the weights fit noise)
            u, plain, count = plain, None, -1
            continue
        history.append(E)
        w, res = w_it, res_it
        res_min = min(res_min, res)

        if abs(e_prev - E) < cfg.energy_tol and res < target:
            converged = True
            break
        e_prev = E

        g = np.zeros_like(u)
        if not mix:
            g[act] = ifft(uh[act] - tau_eff * (rh - wa * uh[act]), axis=-1)
            u = _project(g, targets, h)
            continue
        s = np.where(wa > _SHIFT_FLOOR, wa, _SHIFT_FALLBACK)
        g[act] = ifft(uh[act] - tau_eff * rh / (k2 + s), axis=-1)
        g = _project(g, targets, h)

        x = u[act].view(float).ravel()
        gx = g[act].view(float).ravel()
        if count >= 0:
            np.subtract(x, x_prev, out=dX[count % _DEPTH])
        x_prev[:] = x
        f = np.subtract(gx, x, out=x)  # the step, in x's buffer
        if count >= 0:
            np.subtract(f, f_prev, out=dF[count % _DEPTH])
        f_prev[:] = f
        count += 1
        if count == 0:
            u, plain = g, None
            continue
        # least-squares weights minimizing |f - dF gamma|, then the mixed
        # iterate g - (dX + dF) gamma, projected back onto the constraints
        F = dF[:min(count, _DEPTH)]
        gamma = np.linalg.lstsq(F @ F.T, F @ f, rcond=None)[0]
        gx -= gamma @ dX[:len(F)]
        gx -= gamma @ F
        u = np.zeros_like(u)
        u[act] = gx.view(complex).reshape(act.size, grid.n)
        u, plain = _project(u, targets, h), g
        del x, gx, f  # free before the next step: lower peak memory

    dX = dF = x_prev = f_prev = F = None  # released before lambda is formed
    if not converged:
        last = _package(u, w, res, cfg.max_iters, model, masses, grid,
                        history, validate=False)
        raise ConvergenceError(
            f"no convergence in {cfg.max_iters} iterations "
            f"(residual {res:.3e}, target {target:.1e})", last=last)
    return _package(u, w, res, it, model, masses, grid, history)


def _package(u, w, res, iters, model, masses, grid, history,
             validate: bool = True) -> GroundState:
    h = grid.spacing
    achieved = h * np.sum(np.abs(u) ** 2, axis=1)
    # lambda = H(u) + sum_j w_j (Q_j(u) - m_j), in extended precision
    ul = u.astype(np.clongdouble)
    kin, inter = _energy_terms(ul, grid, model)
    targets = masses.as_array()
    act = targets > 0
    dq = h * np.sum(np.abs(ul[act]) ** 2, axis=1) - targets[act]
    lam = float(np.sum(kin) - np.sum(inter) / model.p + np.sum(w[act] * dq))
    gs = GroundState(
        profile=State.from_array(grid, u),
        multipliers=Multipliers(*map(float, w)),
        lam=lam,
        residual=res,
        iterations=iters,
        masses_achieved=MassTriple(*map(float, achieved)),
        energy_history=tuple(history),
    )
    if validate and not lam < 0:
        raise ConvergenceError(
            f"converged to non-negative energy {lam:.3e}; not a minimizer",
            last=gs)
    return gs


def refine_fixed_point(state: State, model: CouplingModel, masses: MassTriple,
                       max_sweeps: int = 600,
                       residual_tol: float = 1e-11) -> GroundState:
    """Polish a near-solution by Green-kernel fixed-point sweeps.

    Each sweep re-extracts the multipliers, applies u_j <- (k^2 + w_j)^{-1}
    N_j(u) spectrally, and renormalizes the constrained masses, until the
    residual is below `_residual_target(grid, residual_tol)`.  Raises
    `DivergenceError` (carrying the best iterate seen) if the residual grows
    over 5 consecutive sweeps or a multiplier leaves the positive range.
    """
    grid = state.grid
    targets = masses.as_array()
    active = targets > 0
    h = grid.spacing
    k2 = grid.wavenumbers ** 2
    target = _residual_target(grid, residual_tol)
    u = _project(state.stack(), targets, h)

    best = None  # (u, w, residual, sweeps) of the lowest residual seen
    best_res = np.inf
    increases = 0
    w = _multiplier_array(u, grid, model)
    res = _el_residual_array(u, w, grid, model)

    def packaged():
        return None if best is None else _package(
            *best, model, masses, grid, [], validate=False)

    for sweeps in range(1, max_sweeps + 1):
        if np.any(w[active] <= 0):
            raise DivergenceError(
                f"non-positive multiplier {w} during refinement", best=packaged())
        N = _nonlinearity(u, model.a, model.p)
        for j in range(3):
            if active[j]:
                u[j] = ifft(fft(N[j]) / (k2 + w[j]))
        u = _project(u, targets, h)
        if not np.all(np.isfinite(u)):
            raise DivergenceError("non-finite iterate during refinement",
                                  best=packaged())

        w = _multiplier_array(u, grid, model)
        new_res = _el_residual_array(u, w, grid, model)
        if new_res < best_res:
            best_res = new_res
            best = (u.copy(), w, new_res, sweeps)
        increases = increases + 1 if new_res > res else 0
        res = new_res
        if increases >= 5:
            raise DivergenceError(
                f"residual grew over 5 consecutive sweeps (now {res:.3e})",
                best=packaged())
        if res < target:
            break
    else:
        if best_res > 10 * target:
            raise DivergenceError(
                f"no fixed-point convergence in {max_sweeps} sweeps "
                f"(best residual {best_res:.3e})", best=packaged())
    return packaged()


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
    third mass frozen at zero.  Both converged components are positive up to
    a constant phase (checked by the test suite, not assumed here).
    """
    if min(alpha1, alpha2, beta, a1, a2) <= 0:
        raise ValueError("all parameters of the reduced problem must be positive")
    a = np.array([[alpha1, beta, 1.0],
                  [beta, alpha2, 1.0],
                  [1.0, 1.0, 1.0]])
    model = CouplingModel(a=a, p=p)
    return minimize(model, MassTriple(a1, a2, 0.0), grid, cfg)


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
    if any(e < 0 for e in etas_sorted):
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
