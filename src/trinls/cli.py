"""Batch front-end: config parsing, subcommands, structured result emission.

Subcommands
    solve      minimize the constrained energy; write groundstate.json + profile.csv
    evolve     integrate an input profile; write trace.csv (+ snapshots/)
    stability  perturbation ensemble around the solved minimizer; report.json per seed
    subadd     subadditivity margins for configured mass splits; margins.csv
    validate   built-in closed-form oracle checks; exit 0 iff all pass

Config files are INI-style key = value text, parsed strictly: unknown
sections or keys are rejected, physics parameters have no defaults, solver
knobs do.  Schema (see README for details):

    [grid]      n, length
    [coupling]  a11, a12, a13, a22, a23, a33, p
    [masses]    r, s, t
    [solver]    tau, max_iters, residual_tol, energy_tol, seed, init,
                init_profile, scheme, noise                (all optional)
    [evolution] T, dt, snapshot_every
    [stability] kind, delta, eps, seeds, sample_every      (eps optional)
    [subadd]    splits        e.g.  splits = 2,0,0 ; 1,0.5,0
    [output]    dir                                        (optional)

Every ground state is one `minimize` call.  Only `#` starts an inline
comment: `;` separates subadd splits.

All scalar results go to JSON, field data to CSV.  Outputs are byte-identical
across runs for a fixed config and seed; the wall-clock timestamp lives in a
separate metadata.json.

Exit codes: 0 ok, 1 config/input error, 2 non-convergence, 3 blow-up,
4 validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
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
from .stability import stability_experiment


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


_SCHEMA = {
    "grid": {"n", "length"},
    "coupling": {"a11", "a12", "a13", "a22", "a23", "a33", "p"},
    "masses": {"r", "s", "t"},
    "solver": {"tau", "max_iters", "residual_tol", "energy_tol", "seed",
               "init", "init_profile", "scheme", "noise"},
    "evolution": {"t", "dt", "snapshot_every"},
    "stability": {"kind", "delta", "eps", "seeds", "sample_every"},
    "subadd": {"splits"},
    "output": {"dir"},
}
_REQUIRED = ("grid", "coupling", "masses")


def _get(section, key, conv, what, default=...):
    """section[key] converted by `conv`; `default` when absent (required
    when no default is given).  Bad values, and non-finite ones for float
    keys, raise a ConfigError naming it."""
    raw = section.get(key)
    if raw is None:
        if default is ...:
            raise ConfigError(f"missing required key {what}.{key}")
        return default
    try:
        value = conv(raw)
    except ValueError as err:
        raise ConfigError(f"invalid value for {what}.{key}: {raw!r}") from err
    if conv is float and not math.isfinite(value):
        raise ConfigError(f"invalid value for {what}.{key}: {raw!r} is not finite")
    return value


def _parse_splits(raw: str) -> tuple:
    splits = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        comps = [c.strip() for c in part.split(",")]
        if len(comps) != 3:
            raise ConfigError(f"subadd.splits entry {part!r} is not an r,s,t triple")
        try:
            split = tuple(float(c) for c in comps)
        except ValueError as err:
            raise ConfigError(f"invalid number in subadd.splits entry {part!r}") from err
        if not all(map(math.isfinite, split)):
            raise ConfigError(f"subadd.splits entry {part!r} is not finite")
        splits.append(split)
    if not splits:
        raise ConfigError("subadd.splits is empty")
    return tuple(splits)


def load_config(path: str, seed_override: Optional[int] = None) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    for section in _REQUIRED:
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")

    g = parser["grid"]
    try:
        grid = make_grid(_get(g, "n", int, "grid"), _get(g, "length", float, "grid"))
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    c = parser["coupling"]
    vals = {k: _get(c, k, float, "coupling") for k in _SCHEMA["coupling"]}
    a = np.array([
        [vals["a11"], vals["a12"], vals["a13"]],
        [vals["a12"], vals["a22"], vals["a23"]],
        [vals["a13"], vals["a23"], vals["a33"]],
    ])
    try:
        model = CouplingModel(a=a, p=vals["p"])
    except ValueError as err:
        raise ConfigError(f"coupling: {err}") from err

    m = parser["masses"]
    try:
        masses = MassTriple(_get(m, "r", float, "masses"),
                            _get(m, "s", float, "masses"),
                            _get(m, "t", float, "masses"))
    except ValueError as err:
        raise ConfigError(f"masses: {err}") from err

    defaults = SolverConfig()
    if "solver" in parser:
        s = parser["solver"]
        initial_state = None
        if s.get("init", defaults.init) == "supplied":
            profile_path = s.get("init_profile")
            if profile_path is None:
                raise ConfigError("solver.init = supplied requires solver.init_profile")
            try:
                initial_state = read_profile_csv(Path(profile_path), grid)
            except (OSError, ValueError) as err:
                raise ConfigError(
                    f"cannot read solver.init_profile {profile_path!r}: {err}") from err
        convs = {"tau": float, "max_iters": int, "residual_tol": float,
                 "energy_tol": float, "seed": int, "init": str,
                 "scheme": str, "noise": float}
        knobs = {k: _get(s, k, conv, "solver", getattr(defaults, k))
                 for k, conv in convs.items()}
        try:
            solver = SolverConfig(initial_state=initial_state, **knobs)
        except ValueError as err:
            raise ConfigError(f"solver: {err}") from err
    else:
        solver = defaults
    if seed_override is not None:
        solver = replace(solver, seed=seed_override)

    evolution = None
    if "evolution" in parser:
        e = parser["evolution"]
        evolution = {
            "T": _get(e, "t", float, "evolution"),
            "dt": _get(e, "dt", float, "evolution"),
            "snapshot_every": _get(e, "snapshot_every", int, "evolution", 0),
        }
        if evolution["dt"] == 0:
            raise ConfigError("invalid value for evolution.dt: must be non-zero")
        if evolution["T"] < 0:
            raise ConfigError("invalid value for evolution.t: must be non-negative")
        if evolution["snapshot_every"] < 0:
            raise ConfigError("invalid value for evolution.snapshot_every: must be >= 0")

    stability = None
    if "stability" in parser:
        from .stability import PERTURBATION_KINDS

        st = parser["stability"]
        kind = st.get("kind", "mass_preserving_random")
        if kind not in PERTURBATION_KINDS:
            raise ConfigError(
                f"invalid value for stability.kind: {kind!r} "
                f"(choose from {', '.join(PERTURBATION_KINDS)})")
        seeds = _get(st, "seeds", lambda raw: tuple(int(x) for x in raw.split(",")),
                     "stability", (0,))
        if seed_override is not None:
            seeds = (seed_override,)
        stability = {
            "kind": kind, "delta": _get(st, "delta", float, "stability"),
            "eps": _get(st, "eps", float, "stability", None), "seeds": seeds,
            "sample_every": _get(st, "sample_every", int, "stability", 100),
        }
        if not stability["delta"] >= 0:
            raise ConfigError("invalid value for stability.delta: must be >= 0")
        if stability["sample_every"] <= 0:
            raise ConfigError("invalid value for stability.sample_every: must be > 0")
        if stability["eps"] is not None and stability["eps"] <= 0:
            raise ConfigError("invalid value for stability.eps: must be > 0")

    subadd_splits = None
    if "subadd" in parser:
        subadd_splits = _parse_splits(_get(parser["subadd"], "splits", str, "subadd"))

    out_dir = "out"
    if "output" in parser:
        out_dir = parser["output"].get("dir", out_dir)

    return RunConfig(grid=grid, model=model, masses=masses, solver=solver,
                     evolution=evolution, stability=stability,
                     subadd_splits=subadd_splits, out_dir=out_dir)


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


PROFILE_HEADER = ["x", "re_u1", "im_u1", "re_u2", "im_u2", "re_u3", "im_u3"]


def write_profile_csv(path: Path, state: State) -> None:
    u = state.stack()
    with open(path, "w", newline="") as fh:
        fh.write("# dimensionless units; one row per grid node, ordered by x\n")
        writer = csv.writer(fh)
        writer.writerow(PROFILE_HEADER)
        cols = [state.grid.nodes]
        for j in range(3):
            cols += [u[j].real, u[j].imag]
        writer.writerows(np.column_stack(cols).tolist())


def read_profile_csv(path: Path, grid: Grid) -> State:
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.strip())
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
    with open(path, "w", newline="") as fh:
        fh.write("# dimensionless units; drifts are relative to t = 0\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "energy_drift", "mass_drift_1", "mass_drift_2",
                         "mass_drift_3"])
        writer.writerows(np.column_stack(
            [trace.times, trace.energy_drift, trace.mass_drifts]).tolist())


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
    try:
        gs = _solve_ground_state(cfg, quiet)
    except ConvergenceError as err:
        print(f"solve failed: {err}", file=sys.stderr)
        return 2
    write_groundstate_json(out / "groundstate.json", gs, cfg.model)
    write_profile_csv(out / "profile.csv", gs.profile)
    return 0


def cmd_evolve(cfg: RunConfig, profile_path: str, out: Path, quiet: bool) -> int:
    if cfg.evolution is None:
        print("config error: [evolution] section required for evolve",
              file=sys.stderr)
        return 1
    try:
        state0 = read_profile_csv(Path(profile_path), cfg.grid)
    except (OSError, ConfigError, ValueError) as err:
        print(f"cannot load profile: {err}", file=sys.stderr)
        return 1
    ev = cfg.evolution
    try:
        trace = evolve(state0, ev["T"], ev["dt"], cfg.model,
                       snapshot_every=ev["snapshot_every"])
        code = 0
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        trace = err.trace
        code = 3
    write_trace_csv(out / "trace.csv", trace)
    if trace.snapshots:
        snapdir = out / "snapshots"
        snapdir.mkdir(exist_ok=True)
        index = []
        for i, (t, snap) in enumerate(trace.snapshots):
            name = f"snap_{i:06d}.csv"
            write_profile_csv(snapdir / name, snap)
            index.append((t, name))
        with open(out / "snapshots.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "file"])
            for t, name in index:
                writer.writerow([repr(float(t)), name])
    if not quiet and code == 0:
        print(f"evolved to T = {trace.times[-1]:g}; "
              f"max energy drift = {trace.energy_drift.max():.3e}")
    return code


def cmd_stability(cfg: RunConfig, out: Path, quiet: bool) -> int:
    if cfg.stability is None or cfg.evolution is None:
        print("config error: [stability] and [evolution] sections required",
              file=sys.stderr)
        return 1
    try:
        gs = _solve_ground_state(cfg, quiet)
    except ConvergenceError as err:
        print(f"solve failed: {err}", file=sys.stderr)
        return 2
    st = cfg.stability
    ev = cfg.evolution
    summary = {"verdicts": {}, "sup_distances": {}, "delta": st["delta"]}
    code = 0
    for seed in st["seeds"]:
        rep = stability_experiment(
            gs, cfg.model, st["kind"], st["delta"], ev["T"], ev["dt"],
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
        print("config error: [subadd] section required for subadd", file=sys.stderr)
        return 1
    total = cfg.masses
    parts = []
    for split in cfg.subadd_splits:
        rest = (total.r - split[0], total.s - split[1], total.t - split[2])
        if min(rest) < -1e-12:
            print(f"config error: split {split} exceeds total masses",
                  file=sys.stderr)
            return 1
        try:
            parts.append((MassTriple(*split),
                          MassTriple(*(max(v, 0.0) for v in rest))))
        except ValueError as err:
            print(f"config error: invalid split {split}: {err}", file=sys.stderr)
            return 1
    try:
        lam_total = minimize(cfg.model, total, cfg.grid, cfg.solver).lam
    except ConvergenceError as err:
        print(f"solve failed for the total masses: {err}", file=sys.stderr)
        return 2
    rows = []
    for split, (part1, part2) in zip(cfg.subadd_splits, parts):
        try:
            result = subadditivity_check(cfg.model, part1, part2, cfg.grid,
                                         cfg.solver, lam_total=lam_total)
        except ConvergenceError as err:
            print(f"sub-solve failed for split {split}: {err}", file=sys.stderr)
            return 2
        rows.append(result)
        if not quiet:
            print(f"split {split}: margin = {result.margin:.6f} "
                  f"(tolerance {result.tolerance:.1e}, "
                  f"{'inconclusive' if result.inconclusive else 'conclusive'})")
    with open(out / "margins.csv", "w", newline="") as fh:
        fh.write("# dimensionless units; margin = lambda(total) - lambda(p1) - lambda(p2)\n")
        writer = csv.writer(fh)
        writer.writerow(["r1", "s1", "t1", "r2", "s2", "t2", "lambda_total",
                         "lambda_part1", "lambda_part2", "margin", "tolerance",
                         "inconclusive"])
        for res in rows:
            writer.writerow([
                repr(res.part1.r), repr(res.part1.s), repr(res.part1.t),
                repr(res.part2.r), repr(res.part2.s), repr(res.part2.t),
                repr(res.lam_total), repr(res.lam_part1), repr(res.lam_part2),
                repr(res.margin), repr(res.tolerance), str(res.inconclusive)])
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

    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1

    out = Path(args.out) if args.out else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metadata(out, [args.command] + argv[1:])

    if args.command == "solve":
        return cmd_solve(cfg, out, args.quiet)
    if args.command == "evolve":
        return cmd_evolve(cfg, args.profile, out, args.quiet)
    if args.command == "stability":
        return cmd_stability(cfg, out, args.quiet)
    if args.command == "subadd":
        return cmd_subadd(cfg, out, args.quiet)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
