"""Parameter-space properties of `minimize` and `evolve`, drawn by hypothesis.

Inputs to `minimize` mirror the benchmark's random cases: a symmetric
coupling matrix with entries in [0.8, 1.2], p in [2, 2.5], one to three
active components, and masses drawn through a target frequency omega in
[0.3, 2] (the mass of the one-component sech ground state at that
frequency, shared unevenly over the active components), which keeps the
ground state resolved on n = 256, L = 40.  `evolve` starts from smooth
random states on the same grid.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import trinls as t
from trinls.ground_state import _residual_target
from trinls.stability import _y_norm
from trinls.tolerances import DEFAULT as TOLS

GRID = t.make_grid(256, 40.0)


def sech_mass(omega, a, p):
    """Mass of the one-component ground state of frequency omega."""
    nu = 1.0 / (p - 1.0)
    beta = math.sqrt(math.pi) * math.gamma(nu) / math.gamma(nu + 0.5)
    return (omega * p / a) ** nu * beta / (math.sqrt(omega) * (p - 1.0))


def couplings(draw):
    """Symmetric a with entries in [0.8, 1.2], p in [2, 2.5] and the sorted
    indices of one to three active components."""
    a = np.empty((3, 3))
    iu = np.triu_indices(3)
    a[iu] = draw(st.lists(st.floats(0.8, 1.2), min_size=6, max_size=6))
    a.T[iu] = a[iu]
    p = draw(st.floats(2.0, 2.5))
    active = sorted(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3,
                                  unique=True)))
    return a, p, active


@st.composite
def cases(draw):
    a, p, active = couplings(draw)
    k = len(active)
    # k equal components with equal coupling a reduce to one component with
    # coupling a k^(2-p) and the total mass
    a_eff = a[np.ix_(active, active)].mean() * k ** (2.0 - p)
    share = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=k, max_size=k)))
    masses = np.zeros(3)
    masses[active] = share / share.sum() * sech_mass(draw(st.floats(0.3, 2.0)),
                                                     a_eff, p)
    return t.CouplingModel(a, p), t.MassTriple(*masses)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(cases())
def test_minimize_properties(case):
    model, masses = case
    cfg = t.SolverConfig()
    gs = t.minimize(model, masses, GRID, cfg)
    targets = masses.as_array()
    active = targets > 0

    assert gs.residual < _residual_target(GRID, cfg.residual_tol)
    assert gs.lam < 0
    assert np.all(gs.multipliers.as_array()[active] > 0)
    achieved = np.array([gs.masses_achieved.r, gs.masses_achieved.s,
                         gs.masses_achieved.t])
    assert np.all(np.abs(achieved - targets) <= TOLS.projection_rel * targets)
    assert np.all(np.diff(gs.energy_history) <= TOLS.energy_monotone_slack)
    assert gs.iterations <= 40


@st.composite
def trajectories(draw):
    a, p, active = couplings(draw)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = t.random_smooth_state(GRID, rng, amplitude=draw(st.floats(0.3, 1.5)))
    u[[j for j in range(3) if j not in active]] = 0.0
    return t.CouplingModel(a, p), t.State.from_array(GRID, u)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(trajectories(), st.integers(1, 10))
def test_evolve_properties(case, steps):
    model, state = case
    dt = 1e-3
    trace = t.evolve(state, 50 * dt, dt, model)
    assert trace.mass_drifts.max() <= TOLS.mass_drift

    short = t.evolve(state, steps * dt, dt, model, snapshot_every=steps)
    manual = state
    for _ in range(steps):
        manual = t.step(manual, dt, model)
    assert _y_norm(short.snapshots[-1][1].stack() - manual.stack(), GRID) <= 1e-13
