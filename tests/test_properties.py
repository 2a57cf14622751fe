"""Parameter-space properties of `minimize` and `evolve`, drawn by hypothesis.

Inputs to `minimize` mirror the benchmark's random cases: a symmetric
coupling matrix with entries in [0.8, 1.2], p in [2, 2.5], one to three
active components, and masses drawn through a target frequency omega in
[0.3, 2] (the mass of the one-component sech ground state at that
frequency, shared unevenly over the active components), which keeps the
ground state resolved on n = 256, L = 40.  Relabelling the components
must relabel the ground state.  `evolve` starts from smooth random states on
the same grid.  The argument checks of `evolve` and
`stability_experiment` get one drawn value in an otherwise valid call.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import trinls as t
from trinls.evolution import check_evolve_args
from trinls.ground_state import _residual_target
from trinls.stability import PERTURBATION_KINDS, _y_norm, check_stability_args
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


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(cases(), st.permutations(range(3)))
def test_minimize_permutes_with_components(case, perm):
    """Relabelling the components (masses and coupling matrix) relabels the
    profile, lambda and the multipliers.  The live components are solved as
    a block in their order, so a relabelling that keeps that order gives the
    relabelled answer bit for bit, wherever it moves the zero-mass rows.  One
    that reorders them changes the summation order of the coupling sums, and
    the profile and multipliers move by round-off (about 1e-15 relative)."""
    model, masses = case
    m = masses.as_array()
    gs = t.minimize(model, masses, GRID)

    def relabelled(order):
        """(lambda, profile, multipliers) solved with component order[i] as
        component i, and the profile and multipliers gs predicts."""
        got = t.minimize(t.CouplingModel(model.a[np.ix_(order, order)], model.p),
                         t.MassTriple(*m[order]), GRID)
        return (got.lam, got.profile.stack(), got.multipliers.as_array(),
                gs.profile.stack()[order], gs.multipliers.as_array()[order])

    slots = [i for i, j in enumerate(perm) if m[j] > 0]
    kept = list(perm)
    for i, j in zip(slots, sorted(perm[i] for i in slots)):
        kept[i] = j  # the live components back in their order
    lam, u, w, want_u, want_w = relabelled(kept)
    assert lam == gs.lam
    assert u.tobytes() == want_u.tobytes() and w.tobytes() == want_w.tobytes()
    if perm != kept:
        lam, u, w, want_u, want_w = relabelled(perm)
        assert abs(lam - gs.lam) <= 1e-12 * abs(gs.lam)
        assert np.max(np.abs(u - want_u)) <= 1e-12 * np.max(np.abs(want_u))
        assert np.allclose(w, want_w, rtol=1e-12, atol=0, equal_nan=True)


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

    samples = []
    t.evolve(state, steps * dt, dt, model, snapshot_every=steps,
             sample=lambda time, s: samples.append(s))
    manual = state
    for _ in range(steps):
        manual = t.step(manual, dt, model)
    assert _y_norm(samples[-1].stack() - manual.stack(), GRID) <= 1e-13


FLOATS = st.floats()   # NaN and +-inf included
INTS = st.integers()
MODEL = t.CouplingModel(np.ones((3, 3)), 2.0)
# argument -> (valid base value, strategy of drawn values)
STEPS = INTS | FLOATS  # step counts: non-integral values must be rejected
EVOLVE_ARGS = {"T": (5e-3, FLOATS), "dt": (1e-3, FLOATS),
               "snapshot_every": (0, STEPS), "record_every": (1, STEPS)}
STABILITY_ARGS = {
    "kind": ("mass_preserving_random",
             st.sampled_from(PERTURBATION_KINDS) | st.text(max_size=8)),
    "delta": (1e-3, FLOATS), "eps": (None, st.none() | FLOATS),
    "sample_every": (2, STEPS), "seed": (0, STEPS)}


@st.composite
def one_drawn(draw, args):
    """(name, kwargs): every argument at its base value but one drawn."""
    name = draw(st.sampled_from(sorted(args)))
    kwargs = {k: base for k, (base, _) in args.items()}
    kwargs[name] = draw(args[name][1])
    return name, kwargs


def led_by(err, name):
    """The message starts with the name of the drawn argument: evolve's T is
    t there, and t's step-count rule reads dt, so a drawn dt may name t."""
    names = {"T": ("t",), "dt": ("dt", "t")}.get(name, (name,))
    return str(err).startswith(tuple(f"{n} " for n in names))


@pytest.fixture(scope="module")
def ground():
    return t.minimize(MODEL, t.MassTriple(4 / 3, 4 / 3, 4 / 3), GRID)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(one_drawn(EVOLVE_ARGS))
@example(("T", dict(T=math.inf, dt=1e-3, snapshot_every=0, record_every=1)))
@example(("snapshot_every", dict(T=5e-3, dt=1e-3, snapshot_every=-1,
                                 record_every=1)))
@example(("snapshot_every", dict(T=5e-3, dt=1e-3, snapshot_every=1.5,
                                 record_every=1)))
@example(("record_every", dict(T=5e-3, dt=1e-3, snapshot_every=0,
                               record_every=2.5)))
def test_evolve_runs_or_names_argument(case):
    """A drawn value either runs (at most 10 steps) or raises the ValueError
    of `check_evolve_args`, led by the argument's name, before any step."""
    name, kw = case
    state = t.State.from_array(GRID, np.exp(-GRID.nodes ** 2) * np.ones((3, 1)))
    try:
        check_evolve_args(kw["T"], kw["dt"], kw["snapshot_every"], kw["record_every"])
    except ValueError as err:
        assert led_by(err, name), err
        with pytest.raises(ValueError) as raised:
            t.evolve(state, model=MODEL, sample=lambda time, s: None, **kw)
        assert str(raised.value) == str(err)
        return
    assume(kw["T"] / abs(kw["dt"]) <= 10)
    with np.errstate(all="ignore"):  # |dt| near the float range overflows k^2 dt
        trace = t.evolve(state, model=MODEL, sample=lambda time, s: None, **kw)
    assert trace.times[0] == 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=one_drawn(STABILITY_ARGS))
@example(case=("eps", dict(kind="random_h1", delta=1e-3, eps=-1.0, sample_every=2)))
@example(case=("eps", dict(kind="random_h1", delta=1e-3, eps=math.nan,
                           sample_every=2)))
@example(case=("delta", dict(kind="random_h1", delta=math.inf, eps=None,
                             sample_every=2)))
@example(case=("sample_every", dict(kind="random_h1", delta=1e-3, eps=None,
                                    sample_every=2.5)))
@example(case=("seed", dict(kind="component_tilt", delta=1e-3, eps=None,
                            sample_every=2, seed=-1)))
@example(case=("seed", dict(kind="random_h1", delta=1e-3, eps=None,
                            sample_every=2, seed=1.5)))
def test_stability_runs_or_names_argument(ground, case):
    """A drawn value either gives a report (4 steps) or raises the
    ValueError of `check_stability_args`, led by the argument's name."""
    name, kw = case
    try:
        check_stability_args(**kw)
    except ValueError as err:
        assert led_by(err, name), err
        with pytest.raises(ValueError) as raised:
            t.stability_experiment(ground, MODEL, T=4e-3, dt=1e-3, **kw)
        assert str(raised.value) == str(err)
        return
    with np.errstate(all="ignore"):  # a huge delta may blow up
        rep = t.stability_experiment(ground, MODEL, T=4e-3, dt=1e-3, **kw)
    assert rep.verdict in ("bounded", "escaped", "blow_up")
    assert kw["eps"] is None or rep.eps == kw["eps"]
