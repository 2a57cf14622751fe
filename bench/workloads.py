"""The three benchmark workloads: set-up, one pass, and the output checks.

Every call into trinls goes through a module attribute looked up at call
time (``ground_state.minimize``, not a name bound at import), so the traced
run can wrap those names with span recorders.

* ensemble     the criterion-8 orbital-stability ensemble with T shortened:
               ten perturbed trajectories and the delta = 0 control per pass.
* solve_sweep  ground-state solves with the CLI's policy (flow, then the
               fixed-point polish, keeping the flow result when the polish
               diverges) over seeded random inputs and the closed-form
               presets, plus one subadditivity check per pass.
* cli_wide     trinls.cli.main in-process: solve, evolve, stability, subadd
               on a p = 2.5, asymmetric-coupling, n = 4096 config.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

import trinls.cli as cli
import trinls.ground_state as ground_state
import trinls.model as model_mod
import trinls.spectral as spectral
import trinls.stability as stability
from trinls.tolerances import DEFAULT as TOLS

KIND = "mass_preserving_random"

# Closed forms for a = ones, p = 2 (lambda(r,0,0) = -r^3/48, omega = (r/4)^2;
# the equal triple reduces to it with r = 4): (masses, lambda, omega).
PRESETS = (
    ((4.0, 0.0, 0.0), -4.0 / 3.0, (1.0, None, None)),
    ((4 / 3, 4 / 3, 4 / 3), -4.0 / 3.0, (1.0, 1.0, 1.0)),
)

# ensemble: criterion 8 with T = 50 shortened to ENSEMBLE_T
ENSEMBLE_T = 0.5
ENSEMBLE_DELTAS = (1e-3, 1e-2)
ENSEMBLE_SEEDS_PER_DELTA = 5

# solve_sweep: random cases per pass at each grid size; the presets run at
# every size.  n = 4096 gets presets only: one random case there costs
# 0.2-1.3 s depending on how the polish stalls at its round-off floor, which
# made the per-run medians spread by more than the bounds allow.
SWEEP_SIZES = (256, 1024, 4096)
SWEEP_RANDOM = {256: 3, 1024: 6}
SWEEP_SUBADD_N = 1024
SWEEP_OMEGA = (0.3, 2.0)

# cli_wide
CLI_A = ((1.0, 0.7, 0.5), (0.7, 1.3, 0.9), (0.5, 0.9, 0.8))
CLI_MASSES = (2.0, 1.5, 1.2)
CLI_T, CLI_DT, CLI_SNAPSHOT_EVERY = 0.2, 1e-3, 50
CLI_DELTA, CLI_SAMPLE_EVERY = 1e-3, 50
# written without spaces around ';': configparser treats " ;" as the start
# of an inline comment and would silently keep only the first split
CLI_SPLITS = "1.0,0.75,0.0;0.5,0.5,0.6"
CLI_NSPLITS = 2

WARMUP_T, WARMUP_DT, WARMUP_SAMPLE_EVERY = 0.5, 1e-3, 100


class Tally:
    """What one phase of a run did, and every check that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.solve_s = []          # latency of each solve request
        self.solves = 0            # ground states computed by rated work
        self.solve_work_s = 0.0    # seconds spent in that work
        self.steps = 0             # time steps evolved by rated work
        self.traj_s = 0.0          # seconds spent in that work
        # accuracy of the seed-independent work only (see `check_*`)
        self.lam_rel_err = []
        self.residual = []
        self.energy_drift = []
        self.mass_drift = []

    def op(self, name, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")

    def rated(self):
        """The counters the per-segment rates are computed from."""
        return (self.steps, self.traj_s, self.solves, self.solve_work_s)

def merge(*tallies):
    out = Tally()
    for t in tallies:
        for key, value in vars(t).items():
            setattr(out, key, getattr(out, key) + value)
    return out


class Context:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.ones = model_mod.CouplingModel(np.ones((3, 3)), p=2.0)
        self.grids = {}
        self.ground = None
        self.passes = 0
        self.complement_runs = 0
        self.bytes_written = []    # cli_wide: bytes per pass


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def solve(model, masses, grid):
    """The CLI's solve policy: flow, then polish unless the polish diverges."""
    gs = ground_state.minimize(model, masses, grid)
    try:
        gs = ground_state.refine_fixed_point(gs.profile, model, masses)
    except ground_state.DivergenceError:
        pass
    return gs


# Every output is checked against the tolerances.  Only results of
# seed-independent work (presets, the reference ground state, the warm-up,
# the delta = 0 control, cli_wide's fixed config) are kept in the tally's
# accuracy lists: they give maxima that repeat exactly from run to run, where
# the maximum over seeded inputs is an extreme value that moves with the seed.

def check_ground_state(tally, lam, omega, residual, active, exact=None,
                       keep=True):
    problems = []
    if keep:
        tally.residual.append(residual)
    if not residual <= TOLS.residual_converged:
        problems.append(f"residual {residual:.2e}")
    if not lam < 0:
        problems.append(f"energy {lam:.3e} >= 0")
    omega = np.asarray(omega, dtype=float)
    if not np.all(omega[active] > 0):
        problems.append(f"non-positive omega {omega}")
    if exact is not None:
        lam_exact, omega_exact = exact
        err = abs(lam - lam_exact) / abs(lam_exact)
        if keep:
            tally.lam_rel_err.append(err)
        if not err <= TOLS.lambda_rel:
            problems.append(f"lambda rel error {err:.2e}")
        for j, w in enumerate(omega_exact):
            if w is not None and not abs(omega[j] - w) <= TOLS.omega_abs:
                problems.append(f"omega_{j + 1} {omega[j]:.8f} vs {w}")
    return problems


def check_drifts(tally, energy_drift, mass_drift, keep=True):
    e, m = float(np.max(energy_drift)), float(np.max(mass_drift))
    if keep:
        tally.energy_drift.append(e)
        tally.mass_drift.append(m)
    problems = []
    if not e <= TOLS.energy_drift:
        problems.append(f"energy drift {e:.2e}")
    if not m <= TOLS.mass_drift:
        problems.append(f"mass drift {m:.2e}")
    return problems


def check_report(tally, rep, delta, keep):
    problems = check_drifts(tally, rep.trace.energy_drift, rep.trace.mass_drifts,
                            keep)
    if delta > 0:
        if rep.verdict != "bounded":
            problems.append(f"verdict {rep.verdict}")
        if not rep.sup_distance <= TOLS.stability_distance_factor * delta:
            problems.append(f"sup distance {rep.sup_distance:.2e}")
    elif not rep.sup_distance <= TOLS.stability_control:
        problems.append(f"control distance {rep.sup_distance:.2e}")
    return problems


def timed_solve(tally, model, masses, grid, exact=None, keep=True):
    """Solve, time it, check it; returns the ground state or None."""
    t0 = time.perf_counter()
    try:
        gs = solve(model, masses, grid)
    except (ground_state.ConvergenceError, ground_state.StepCollapseError,
            ValueError) as err:
        secs = time.perf_counter() - t0
        tally.solve_s.append(secs)
        tally.solve_work_s += secs
        tally.op("solve", [f"{type(err).__name__}: {err}"])
        return None
    secs = time.perf_counter() - t0
    tally.solve_s.append(secs)
    tally.solve_work_s += secs
    tally.solves += 1
    active = masses.as_array() > 0
    tally.op("solve", check_ground_state(
        tally, gs.lam, gs.multipliers.as_array(), gs.residual, active, exact,
        keep))
    return gs


def timed_experiment(ctx, tally, delta, T, dt, sample_every, seed, keep):
    t0 = time.perf_counter()
    rep = stability.stability_experiment(
        ctx.ground, ctx.ones, KIND, delta, T=T, dt=dt,
        sample_every=sample_every, seed=seed)
    tally.traj_s += time.perf_counter() - t0
    tally.steps += round(T / dt)
    tally.op(f"trajectory delta={delta:g} seed={seed}",
             check_report(tally, rep, delta, keep))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed, workdir, tally):
    """Grids, the equal-triple reference ground state, and a warm-up
    stability experiment (its first orbital_distance call pays the lazy
    scipy.optimize import)."""
    ctx = Context(workload, seed, workdir)
    grid = spectral.make_grid(1024, 40.0)
    ctx.grids[1024] = grid
    masses, lam, omega = PRESETS[1]
    ctx.ground = timed_solve(tally, ctx.ones, model_mod.MassTriple(*masses),
                             grid, exact=(lam, omega))
    if ctx.ground is None:
        raise RuntimeError(f"reference solve failed: {tally.failures[-1]}")

    timed_experiment(ctx, tally, 1e-3, WARMUP_T, WARMUP_DT,
                     WARMUP_SAMPLE_EVERY, seed=0, keep=True)

    if workload == "solve_sweep":
        for n in SWEEP_SIZES:
            ctx.grids[n] = spectral.make_grid(n, 40.0)
    if workload == "cli_wide":
        ctx.workdir.mkdir(parents=True, exist_ok=True)
    return ctx


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def ensemble_pass(ctx, tally):
    runs = [(delta, 1e-3, 100) for delta in ENSEMBLE_DELTAS
            for _ in range(ENSEMBLE_SEEDS_PER_DELTA)]
    runs.append((0.0, 5e-4, 200))        # the control
    for delta, dt, sample_every in runs:
        seed = int(ctx.rng.integers(2 ** 31))
        timed_experiment(ctx, tally, delta, ENSEMBLE_T, dt, sample_every, seed,
                         keep=delta == 0)


def sech_mass(omega, a, p):
    """Mass of the one-component ground state of frequency omega (the sech
    profile of `model.sech_profile`): (omega p / a)^(1/(p-1)) B(1/(p-1), 1/2)
    / (sqrt(omega) (p - 1)); for p = 2 this is 4 sqrt(omega) / a."""
    nu = 1.0 / (p - 1.0)
    beta = math.sqrt(math.pi) * math.gamma(nu) / math.gamma(nu + 0.5)
    return (omega * p / a) ** nu * beta / (math.sqrt(omega) * (p - 1.0))


def _masses(rng, a, p, active):
    """Masses on the `active` components whose frequencies lie near a target
    omega in SWEEP_OMEGA: k equal components with equal coupling a reduce
    to one component with coupling a k^(2-p) and the total mass."""
    k = len(active)
    a_eff = a[np.ix_(active, active)].mean() * k ** (2.0 - p)
    share = rng.uniform(0.5, 1.5, k)
    m = np.zeros(3)
    m[active] = share / share.sum() * sech_mass(rng.uniform(*SWEEP_OMEGA), a_eff, p)
    return m


def random_case(rng, p_max=2.5):
    """A coupling model (symmetric, entries in [0.8, 1.2], p in [2, p_max])
    and one to three active components.  `_masses` then draws masses through
    a target frequency, which keeps the ground state inside what the L = 40
    box and the n = 256 grid resolve; masses drawn directly reached
    omega ~ 0.01, where `minimize` runs out of iterations."""
    a = np.empty((3, 3))
    iu = np.triu_indices(3)
    a[iu] = rng.uniform(0.8, 1.2, 6)
    a.T[iu] = a[iu]
    p = float(rng.uniform(2.0, p_max))
    active = np.sort(rng.permutation(3)[:int(rng.integers(1, 4))])
    return model_mod.CouplingModel(a, p), active


def solve_sweep_pass(ctx, tally):
    for n in SWEEP_SIZES:
        for masses, lam, omega in PRESETS:
            timed_solve(tally, ctx.ones, model_mod.MassTriple(*masses),
                        ctx.grids[n], exact=(lam, omega))
    for n, count in SWEEP_RANDOM.items():
        for _ in range(count):
            model, active = random_case(ctx.rng)
            m = _masses(ctx.rng, model.a, model.p, active)
            timed_solve(tally, model, model_mod.MassTriple(*m), ctx.grids[n],
                        keep=False)

    # both parts drawn through a target frequency; p <= 2.25 keeps the
    # frequency of the whole (up to ~10x a part's) resolved at n = 1024
    model, active = random_case(ctx.rng, p_max=2.25)
    part1, part2 = (model_mod.MassTriple(*_masses(ctx.rng, model.a, model.p, active))
                    for _ in range(2))
    t0 = time.perf_counter()
    try:
        res = ground_state.subadditivity_check(model, part1, part2,
                                               ctx.grids[SWEEP_SUBADD_N])
    except (ground_state.ConvergenceError, ground_state.StepCollapseError) as err:
        tally.solve_work_s += time.perf_counter() - t0
        tally.op("subadd", [f"{type(err).__name__}: {err}"])
        return
    tally.solve_work_s += time.perf_counter() - t0
    tally.solves += 3
    problems = [f"lambda {x:.3e} >= 0" for x in
                (res.lam_total, res.lam_part1, res.lam_part2) if not x < 0]
    if res.margin > 2 * res.tolerance:
        problems.append(f"positive margin {res.margin:.3e}")
    tally.op("subadd", problems)


def _cli_config(path, seeds):
    (a11, a12, a13), (_, a22, a23), (_, _, a33) = CLI_A
    r, s, t = CLI_MASSES
    path.write_text(f"""[grid]
n = 4096
length = 80.0

[coupling]
a11 = {a11}
a12 = {a12}
a13 = {a13}
a22 = {a22}
a23 = {a23}
a33 = {a33}
p = 2.5

[masses]
r = {r}
s = {s}
t = {t}

[evolution]
t = {CLI_T}
dt = {CLI_DT}
snapshot_every = {CLI_SNAPSHOT_EVERY}

[stability]
kind = {KIND}
delta = {CLI_DELTA}
seeds = {seeds[0]},{seeds[1]}
sample_every = {CLI_SAMPLE_EVERY}

[subadd]
splits = {CLI_SPLITS}
""")


def _csv_rows(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh
                                      if not line.startswith("#"))]
    return rows[0], rows[1:]


def _check_solve_dir(tally, out):
    gs = json.loads((out / "groundstate.json").read_text())
    active = np.array(gs["masses"]) > 0
    omega = [np.nan if w is None else w for w in gs["omega"]]
    return check_ground_state(tally, gs["lambda"], omega, gs["residual"], active)


def _check_evolve_dir(tally, out):
    header, rows = _csv_rows(out / "trace.csv")
    steps = round(CLI_T / CLI_DT)
    problems = []
    if len(rows) != steps + 1:
        problems.append(f"trace.csv has {len(rows)} rows, expected {steps + 1}")
    data = np.array(rows, dtype=float)
    problems += check_drifts(tally, data[:, 1], data[:, 2:5])
    _, snaps = _csv_rows(out / "snapshots.csv")
    if len(snaps) != steps // CLI_SNAPSHOT_EVERY + 1:
        problems.append(f"{len(snaps)} snapshots")
    return problems


def _check_stability_dir(out, seeds):
    problems = []
    for s in seeds:
        rep = json.loads((out / f"report_seed{s}.json").read_text())
        if rep["verdict"] != "bounded":
            problems.append(f"seed {s} verdict {rep['verdict']}")
        if not rep["sup_distance"] <= TOLS.stability_distance_factor * CLI_DELTA:
            problems.append(f"seed {s} sup distance {rep['sup_distance']:.2e}")
    return problems


def _check_subadd_dir(out):
    _, rows = _csv_rows(out / "margins.csv")
    problems = []
    if len(rows) != CLI_NSPLITS:
        problems.append(f"margins.csv has {len(rows)} rows, expected {CLI_NSPLITS}")
    for row in rows:
        margin, tol = float(row[9]), float(row[10])
        if margin > 2 * tol:
            problems.append(f"positive margin {margin:.3e}")
    return problems


def cli_wide_pass(ctx, tally):
    d = ctx.workdir / f"pass{ctx.passes}"
    d.mkdir(parents=True)
    seeds = [int(x) for x in ctx.rng.integers(2 ** 31, size=2)]
    cfg = d / "run.ini"
    _cli_config(cfg, seeds)
    cfg = str(cfg)

    def run(cmd, extra=()):
        out = d / cmd
        t0 = time.perf_counter()
        code = cli.main([cmd, "--config", cfg, "--out", str(out), "--quiet",
                         *extra])
        return out, code, time.perf_counter() - t0

    # The rates count `solve` and `subadd` as solve work and `evolve` as
    # trajectory work; `stability` mixes both and counts in neither.
    out, code, secs = run("solve")
    tally.solve_s.append(secs)
    tally.solve_work_s += secs
    if code == 0:
        tally.solves += 1
        tally.op("cli solve", _check_solve_dir(tally, out))
    else:
        tally.op("cli solve", [f"exit {code}"])
        return

    out, code, secs = run("evolve", ("--profile", str(d / "solve" / "profile.csv")))
    tally.traj_s += secs
    tally.steps += round(CLI_T / CLI_DT)
    tally.op("cli evolve", _check_evolve_dir(tally, out) if code == 0
             else [f"exit {code}"])

    out, code, _ = run("stability")
    tally.op("cli stability", _check_stability_dir(out, seeds) if code == 0
             else [f"exit {code}"])

    out, code, secs = run("subadd")
    tally.solve_work_s += secs
    tally.solves += 3 * CLI_NSPLITS
    tally.op("cli subadd", _check_subadd_dir(out) if code == 0
             else [f"exit {code}"])


# Work a workload's passes never do, run on fixed inputs between the timed
# passes (so it samples the same stretch of machine time as they do), so
# that every end-to-end metric is measured on every workload: ensemble never
# solves, so it solves the reference triple; solve_sweep never evolves, so
# it runs a T = 0.5 perturbed trajectory (fixed perturbation seeds).
COMPLEMENT_PER_PASS = {"ensemble": 4, "solve_sweep": 1}
COMPLEMENT_MIN = {"ensemble": 80, "solve_sweep": 10}
COMPLEMENT_T = 0.5


def complement(ctx, tally, units):
    for _ in range(units):
        if ctx.workload == "ensemble":
            masses, lam, omega = PRESETS[1]
            timed_solve(tally, ctx.ones, model_mod.MassTriple(*masses),
                        ctx.grids[1024], exact=(lam, omega))
        elif ctx.workload == "solve_sweep":
            timed_experiment(ctx, tally, 1e-3, COMPLEMENT_T, 1e-3, 100,
                             seed=ctx.complement_runs % 10, keep=True)
        ctx.complement_runs += 1


def after_pass(ctx):
    """Untimed clean-up after a pass."""
    ctx.passes += 1
    if ctx.workload == "cli_wide":
        d = ctx.workdir / f"pass{ctx.passes - 1}"
        ctx.bytes_written.append(
            sum(f.stat().st_size for f in d.rglob("*") if f.is_file()))
        shutil.rmtree(d)


WORKLOADS = ("ensemble", "solve_sweep", "cli_wide")
CLI_COMMANDS = ("solve", "evolve", "stability", "subadd")
PASSES = {"ensemble": ensemble_pass, "solve_sweep": solve_sweep_pass,
          "cli_wide": cli_wide_pass}
