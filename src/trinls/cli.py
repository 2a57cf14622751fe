"""Batch front-end: config parsing, subcommands, structured result emission.

Subcommands
    solve      minimize the constrained energy; write groundstate.json + profile.csv
    evolve     integrate an input profile; write trace.csv (+ snapshots/)
    stability  perturbation ensemble around the solved minimizer; report.json per seed
    subadd     subadditivity margins for configured mass splits; margins.csv
    validate   built-in closed-form oracle checks; exit 0 iff all pass

Config files are INI-style key = value text, read strictly against one
schema table (`_SCHEMA`): unknown sections or keys are rejected, physics
parameters have no defaults, solver knobs do, floats must be finite, and
every error names its section.key.  Accepted values (see README):

    [grid]      n (power of two >= 16), length > 0
    [coupling]  a11, a12, a13, a22, a23, a33 > 0 (symmetric), 2 <= p < 3
    [masses]    r, s, t >= 0, at least one > 0
    [solver]    tau > 0, max_iters >= 1, residual_tol > 0, energy_tol > 0,
                seed >= 0, init, init_profile (given exactly when
                init = supplied), scheme, noise >= 0       (all optional)
    [evolution] t >= 0, dt != 0 (t / |dt| steps at most sys.maxsize),
                snapshot_every >= 0
    [stability] kind, delta >= 0, eps > 0, seeds >= 0, sample_every > 0
    [subadd]    splits        e.g.  splits = 2,0,0 ; 1,0.5,0
    [output]    dir                                        (optional)

Every ground state is one `minimize` call.  Only `#` starts an inline
comment: `;` separates subadd splits.

All scalar results go to JSON, field data to CSV.  Outputs are byte-identical
across runs for a fixed config and seed; the wall-clock timestamp lives in a
separate metadata.json.

Exit codes: 0 ok, 1 config/input error (`ConfigError`), 2 non-convergence
(`ConvergenceError`), 3 blow-up, 4 validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .evolution import BlowUpError, evolve
from .ground_state import (ConvergenceError, GroundState, SolverConfig,
                           minimize, refine_fixed_point, subadditivity_check)
from .model import (CouplingModel, MassTriple, Multipliers, State,
                    el_residual, energy, energy_gradient, random_smooth_state,
                    sech_profile)
from .spectral import Field, Grid, make_grid
from .stability import PERTURBATION_KINDS, stability_experiment


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the field."""


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    model: CouplingModel
    masses: MassTriple
    solver: SolverConfig
    evolution: Optional[dict]
    stability: Optional[dict]
    subadd_splits: Optional[tuple]
    out_dir: str


def _splits(raw: str) -> tuple:
    """`r,s,t ; r,s,t ...` as a tuple of finite float triples."""
    splits = tuple(tuple(float(c) for c in part.split(","))
                   for part in raw.split(";") if part.strip())
    for split in splits:
        if len(split) != 3 or not all(map(math.isfinite, split)):
            raise ValueError(f"entry {split} is not a finite r,s,t triple")
    if not splits:
        raise ValueError("no split given")
    return splits


def _ints(raw: str) -> tuple:
    return tuple(int(x) for x in raw.split(","))


# Range rules: (text for the error message, test of one value; a tuple
# value passes when every entry does).
_GE0 = (">= 0", lambda v: v >= 0)
_GT0 = ("> 0", lambda v: v > 0)
_NE0 = ("!= 0", lambda v: v != 0)
_KIND = ("one of " + ", ".join(PERTURBATION_KINDS), PERTURBATION_KINDS.__contains__)
_SOLVER = SolverConfig()

# section -> (section required, {key -> (converter, default, range rule)});
# a `...` default marks a required key.  The solver rows carry converters
# and SolverConfig's defaults only, since SolverConfig checks its own
# fields; make_grid, CouplingModel and MassTriple check grid, coupling and
# masses.
_SCHEMA = {
    "grid": (True, {"n": (int, ..., None), "length": (float, ..., None)}),
    "coupling": (True, {k: (float, ..., None) for k in
                        ("a11", "a12", "a13", "a22", "a23", "a33", "p")}),
    "masses": (True, {k: (float, ..., None) for k in ("r", "s", "t")}),
    "solver": (False, {k: (conv, getattr(_SOLVER, k, None), None) for k, conv in (
        ("tau", float), ("max_iters", int), ("residual_tol", float),
        ("energy_tol", float), ("seed", int), ("init", str),
        ("init_profile", str), ("scheme", str), ("noise", float))}),
    "evolution": (False, {"t": (float, ..., _GE0), "dt": (float, ..., _NE0),
                          "snapshot_every": (int, 0, _GE0)}),
    "stability": (False, {
        "kind": (str, "mass_preserving_random", _KIND),
        "delta": (float, ..., _GE0),
        "eps": (float, None, _GT0),
        "seeds": (_ints, (0,), _GE0),
        "sample_every": (int, 100, _GT0)}),
    "subadd": (False, {"splits": (_splits, ..., None)}),
    "output": (False, {"dir": (str, "out", None)}),
}


def _read_section(name: str, raw) -> dict:
    """The schema pass: `raw` (key -> text) as key -> checked value, with
    defaults filled in."""
    rows = _SCHEMA[name][1]
    for key in raw:
        if key not in rows:
            raise ConfigError(f"unknown key {name}.{key}")
    values = {}
    for key, (conv, default, rule) in rows.items():
        what, text = f"{name}.{key}", raw.get(key)
        if text is None:
            if default is ...:
                raise ConfigError(f"missing required key {what}")
            values[key] = default
            continue
        try:
            value = conv(text)
        except ValueError as err:
            raise ConfigError(f"invalid value for {what}: {err}") from err
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"invalid value for {what}: {text!r} is not finite")
        items = value if isinstance(value, tuple) else (value,)
        if rule and not all(map(rule[1], items)):
            raise ConfigError(f"invalid value for {what}: {text!r} (must be {rule[0]})")
        values[key] = value
    return values


def _build(prefix: str, factory, **kwargs):
    """factory(**kwargs); its ValueError becomes a ConfigError that starts
    with `prefix` (the section)."""
    try:
        return factory(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{prefix}{err}") from err


def load_config(path: str, seed_override: Optional[int] = None) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse config file {path!r}: {err}") from err
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
    if seed_override is not None and seed_override < 0:
        raise ConfigError(f"invalid value for --seed: {seed_override} (must be >= 0)")

    sec = {}
    for name, (required, rows) in _SCHEMA.items():
        # an absent section whose keys all have defaults reads as empty
        if name in parser or all(row[1] is not ... for row in rows.values()):
            sec[name] = _read_section(name, parser[name] if name in parser else {})
        elif required:
            raise ConfigError(f"missing required section [{name}]")
        else:
            sec[name] = None

    c = sec["coupling"]
    a = np.array([[c["a11"], c["a12"], c["a13"]],
                  [c["a12"], c["a22"], c["a23"]],
                  [c["a13"], c["a23"], c["a33"]]])
    grid = _build("grid: ", make_grid, **sec["grid"])
    model = _build("coupling: ", CouplingModel, a=a, p=c["p"])
    masses = _build("masses: ", MassTriple, **sec["masses"])

    knobs = sec["solver"]
    profile = knobs.pop("init_profile")
    if (profile is not None) != (knobs["init"] == "supplied"):
        raise ConfigError("solver.init_profile must be given exactly when "
                          "solver.init = supplied")
    if profile is not None:
        try:
            knobs["initial_state"] = read_profile_csv(Path(profile), grid)
        except (OSError, ValueError) as err:
            raise ConfigError(
                f"cannot read solver.init_profile {profile!r}: {err}") from err
    if seed_override is not None:
        knobs["seed"] = seed_override
        if sec["stability"] is not None:
            sec["stability"]["seeds"] = (seed_override,)
    solver = _build("solver.", SolverConfig, **knobs)

    ev = sec["evolution"]
    if ev is not None and ev["t"] / abs(ev["dt"]) > sys.maxsize:
        raise ConfigError(f"invalid value for evolution.t: {ev['t']!r} is more "
                          f"than sys.maxsize steps of |dt| = {abs(ev['dt'])!r}")

    return RunConfig(grid=grid, model=model, masses=masses, solver=solver,
                     evolution=ev, stability=sec["stability"],
                     subadd_splits=sec["subadd"] and sec["subadd"]["splits"],
                     out_dir=sec["output"]["dir"])


# ---------------------------------------------------------------------------
# writers / readers
# ---------------------------------------------------------------------------

def _json_float(x: float):
    return None if (x is None or math.isnan(x)) else float(x)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_metadata(out: Path, argv) -> None:
    write_json(out / "metadata.json", {
        "package": f"trinls {__version__}",
        "command": list(argv),
        "written_at": datetime.now(timezone.utc).isoformat(),
    })


def _write_csv(path: Path, header, rows, comment=None) -> None:
    """One header row and `rows` as CSV, after an optional `# comment` line."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


PROFILE_HEADER = ["x", "re_u1", "im_u1", "re_u2", "im_u2", "re_u3", "im_u3"]


def write_profile_csv(path: Path, state: State) -> None:
    u = state.stack()
    cols = [state.grid.nodes]
    for j in range(3):
        cols += [u[j].real, u[j].imag]
    _write_csv(path, PROFILE_HEADER, np.column_stack(cols).tolist(),
               "dimensionless units; one row per grid node, ordered by x")


def read_profile_csv(path: Path, grid: Grid) -> State:
    with open(path, newline="") as fh:
        rows = [line.strip() for line in fh if not line.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if header != PROFILE_HEADER:
        raise ConfigError(f"profile file {path}: unexpected header {header}")
    data = np.array([[float(v) for v in row] for row in reader])
    if data.shape[0] != grid.n:
        raise ConfigError(
            f"profile file {path}: {data.shape[0]} rows but grid has {grid.n} nodes")
    if not np.allclose(data[:, 0], grid.nodes, atol=1e-9 * max(1.0, grid.spacing)):
        raise ConfigError(f"profile file {path}: node positions do not match grid")
    u = data[:, 1::2] + 1j * data[:, 2::2]
    return State.from_array(grid, u.T)


def write_groundstate_json(path: Path, gs: GroundState, model: CouplingModel) -> None:
    w = gs.multipliers.as_array()
    write_json(path, {
        "lambda": gs.lam,
        "omega": [_json_float(x) for x in w],
        "residual": gs.residual,
        "iterations": gs.iterations,
        "masses": [gs.masses_achieved.r, gs.masses_achieved.s, gs.masses_achieved.t],
        "grid": {"n": gs.grid.n, "length": gs.grid.length},
        "coupling": {"a": [list(map(float, row)) for row in model.a], "p": model.p},
    })


def write_trace_csv(path: Path, trace) -> None:
    _write_csv(path, ["t", "energy_drift", "mass_drift_1", "mass_drift_2",
                      "mass_drift_3"],
               np.column_stack([trace.times, trace.energy_drift,
                                trace.mass_drifts]).tolist(),
               "dimensionless units; drifts are relative to t = 0")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _solve_ground_state(cfg: RunConfig, quiet: bool) -> GroundState:
    gs = minimize(cfg.model, cfg.masses, cfg.grid, cfg.solver)
    if not quiet:
        print(f"lambda = {gs.lam:.10f}  residual = {gs.residual:.3e}  "
              f"iterations = {gs.iterations}")
    return gs


def cmd_solve(cfg: RunConfig, out: Path, quiet: bool) -> int:
    gs = _solve_ground_state(cfg, quiet)
    write_groundstate_json(out / "groundstate.json", gs, cfg.model)
    write_profile_csv(out / "profile.csv", gs.profile)
    return 0


def cmd_evolve(cfg: RunConfig, profile_path: str, out: Path, quiet: bool) -> int:
    if cfg.evolution is None:
        raise ConfigError("[evolution] section required for evolve")
    try:
        state0 = read_profile_csv(Path(profile_path), cfg.grid)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot load profile: {err}") from err
    ev = cfg.evolution
    try:
        trace = evolve(state0, ev["t"], ev["dt"], cfg.model,
                       snapshot_every=ev["snapshot_every"])
        code = 0
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        trace = err.trace
        code = 3
    write_trace_csv(out / "trace.csv", trace)
    if trace.snapshots:
        (out / "snapshots").mkdir(exist_ok=True)
        index = [(repr(float(t)), f"snap_{i:06d}.csv")
                 for i, (t, _) in enumerate(trace.snapshots)]
        for (_, name), (_, snap) in zip(index, trace.snapshots):
            write_profile_csv(out / "snapshots" / name, snap)
        _write_csv(out / "snapshots.csv", ["t", "file"], index)
    if not quiet and code == 0:
        print(f"evolved to T = {trace.times[-1]:g}; "
              f"max energy drift = {trace.energy_drift.max():.3e}")
    return code


def cmd_stability(cfg: RunConfig, out: Path, quiet: bool) -> int:
    if cfg.stability is None or cfg.evolution is None:
        raise ConfigError("[stability] and [evolution] sections required")
    gs = _solve_ground_state(cfg, quiet)
    st = cfg.stability
    ev = cfg.evolution
    summary = {"verdicts": {}, "sup_distances": {}, "delta": st["delta"]}
    code = 0
    for seed in st["seeds"]:
        rep = stability_experiment(
            gs, cfg.model, st["kind"], st["delta"], ev["t"], ev["dt"],
            st["sample_every"], eps=st["eps"], seed=seed)
        write_json(out / f"report_seed{seed}.json", {
            "delta": rep.delta, "eps": rep.eps, "kind": rep.kind,
            "seed": rep.seed, "sup_distance": rep.sup_distance,
            "verdict": rep.verdict, "orbit_drift_flag": rep.orbit_drift_flag,
            "times": [float(t) for t in rep.times_sampled],
            "distances": [float(d) for d in rep.trace.orbital_distance],
        })
        summary["verdicts"][str(seed)] = rep.verdict
        summary["sup_distances"][str(seed)] = rep.sup_distance
        if rep.verdict == "blow_up":
            code = 3
        if not quiet:
            print(f"seed {seed}: verdict = {rep.verdict}, "
                  f"sup distance = {rep.sup_distance:.4e}")
    summary["all_bounded"] = all(v == "bounded" for v in summary["verdicts"].values())
    write_json(out / "summary.json", summary)
    return code


def cmd_subadd(cfg: RunConfig, out: Path, quiet: bool) -> int:
    if cfg.subadd_splits is None:
        raise ConfigError("[subadd] section required for subadd")
    total = cfg.masses
    parts = []
    for split in cfg.subadd_splits:
        rest = (total.r - split[0], total.s - split[1], total.t - split[2])
        if min(rest) < -1e-12:
            raise ConfigError(f"split {split} exceeds total masses")
        try:
            parts.append((MassTriple(*split),
                          MassTriple(*(max(v, 0.0) for v in rest))))
        except ValueError as err:
            raise ConfigError(f"invalid split {split}: {err}") from err
    lam_total = minimize(cfg.model, total, cfg.grid, cfg.solver).lam
    rows = []
    for split, (part1, part2) in zip(cfg.subadd_splits, parts):
        res = subadditivity_check(cfg.model, part1, part2, cfg.grid,
                                  cfg.solver, lam_total=lam_total)
        rows.append([repr(v) for v in (
            res.part1.r, res.part1.s, res.part1.t, res.part2.r, res.part2.s,
            res.part2.t, res.lam_total, res.lam_part1, res.lam_part2,
            res.margin, res.tolerance)] + [str(res.inconclusive)])
        if not quiet:
            print(f"split {split}: margin = {res.margin:.6f} "
                  f"(tolerance {res.tolerance:.1e}, "
                  f"{'inconclusive' if res.inconclusive else 'conclusive'})")
    _write_csv(out / "margins.csv",
               ["r1", "s1", "t1", "r2", "s2", "t2", "lambda_total",
                "lambda_part1", "lambda_part2", "margin", "tolerance",
                "inconclusive"], rows,
               "dimensionless units; margin = lambda(total) - lambda(p1) - lambda(p2)")
    return 0


def _validate_checks():
    """Built-in oracle suite; yields (name, passed, detail)."""
    # closed-form residuals on a wide box (truncation floor ~1e-12)
    wide = make_grid(2048, 64.0)
    for p in (2.0, 2.5):
        psi = sech_profile(1.0, 1.0, p, wide)
        zero = Field(wide, np.zeros(wide.n, dtype=complex))
        state = State(psi, zero, zero)
        model = CouplingModel(np.ones((3, 3)), p=p)
        res = el_residual(state, Multipliers(1.0, np.nan, np.nan), model)
        yield (f"sech residual p={p}", res <= 1e-9, f"residual {res:.2e}")

    grid = make_grid(1024, 40.0)
    model1 = CouplingModel(np.ones((3, 3)), p=2.0)
    phi = sech_profile(1.0, 3.0, 2.0, wide)
    triple = State(phi, phi, phi)
    res = el_residual(triple, Multipliers(1.0, 1.0, 1.0),
                      CouplingModel(np.ones((3, 3)), p=2.0))
    yield ("equal-coupling triple residual", res <= 1e-9, f"residual {res:.2e}")

    # lambda(r,0,0) = -r^3/48, omega = (r/4)^2; the polish must keep lambda
    for r, (n, L) in ((1.0, (2048, 160.0)), (2.0, (1024, 80.0)), (4.0, (1024, 40.0))):
        grid_r = make_grid(n, L)
        masses = MassTriple(r, 0.0, 0.0)
        gs = minimize(model1, masses, grid_r, SolverConfig())
        polished = refine_fixed_point(gs.profile, model1, masses)
        lam_exact = -r ** 3 / 48
        ok = (abs(gs.lam - lam_exact) <= 1e-5 * abs(lam_exact)
              and abs(gs.multipliers.w1 - (r / 4) ** 2) <= 1e-6
              and abs(polished.lam - gs.lam) <= 1e-10 * abs(lam_exact))
        yield (f"lambda({r:g},0,0) closed form", ok,
               f"lambda {gs.lam:.8f} vs {lam_exact:.8f}, w1 {gs.multipliers.w1:.8f}, "
               f"polish moved lambda by {abs(polished.lam - gs.lam):.1e}")

    # gradient vs centered finite differences
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        u = random_smooth_state(grid, rng)
        d = random_smooth_state(grid, rng)
        S = State.from_array(grid, u)
        G = energy_gradient(S, model1)
        pairing = 2 * (grid.spacing * np.sum(
            np.stack([G.u1.values, G.u2.values, G.u3.values]) * np.conj(d))).real
        epsln = 1e-5
        plus = State.from_array(grid, u + epsln * d)
        minus = State.from_array(grid, u - epsln * d)
        fd = (energy(plus, model1) - energy(minus, model1)) / (2 * epsln)
        worst = max(worst, abs(fd - pairing) / max(abs(fd), 1e-12))
    yield ("gradient vs finite differences", worst <= 1e-6,
           f"worst relative error {worst:.2e}")


def cmd_validate(out: Optional[Path], quiet: bool) -> int:
    results = []
    for name, ok, detail in _validate_checks():
        results.append({"check": name, "passed": bool(ok), "detail": detail})
        if not (quiet and ok):
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    all_ok = all(r["passed"] for r in results)
    if out is not None:
        write_json(out / "validate.json", {"checks": results, "all_passed": all_ok})
    return 0 if all_ok else 4


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trinls",
        description="Normalized solitary waves of the 3-coupled NLS system")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "evolve", "stability", "subadd"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to INI config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override solver seed / stability seed list")
        p.add_argument("--quiet", action="store_true")
        if name == "evolve":
            p.add_argument("--profile", required=True,
                           help="input profile.csv (must match [grid])")
    v = sub.add_parser("validate")
    v.add_argument("--out", default=None)
    v.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)

    if args.command == "validate":
        out = Path(args.out) if args.out else None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        return cmd_validate(out, args.quiet)

    # the exit-code map: the cmd_* functions raise, main reports
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        out = Path(args.out) if args.out else Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_metadata(out, [args.command] + argv[1:])
        if args.command == "evolve":
            return cmd_evolve(cfg, args.profile, out, args.quiet)
        cmd = {"solve": cmd_solve, "stability": cmd_stability,
               "subadd": cmd_subadd}[args.command]
        return cmd(cfg, out, args.quiet)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except ConvergenceError as err:
        print(f"solve failed: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
