"""Batch front-end: config parsing, subcommands, structured result emission.

Subcommands
    solve      minimize the constrained energy; write groundstate.json + profile.csv
    evolve     integrate an input profile; write trace.csv (+ snapshots/, each
               written when the time loop samples it)
    stability  perturbation ensemble around the solved minimizer; report.json per seed
    subadd     subadditivity margins for configured mass splits; margins.csv
    validate   built-in closed-form oracle checks; exit 0 iff all pass

Config files are INI-style key = value text, read strictly against one
schema table (`_SCHEMA`) that only converts: unknown sections or keys are
rejected, physics parameters have no defaults, solver knobs do.  The code
that takes a value checks its type, finiteness and range at load time
(`make_grid`, `CouplingModel`, `MassTriple`, `SolverConfig`,
`check_evolve_args`, `check_stability_args`), and every error names its
section.key.  README's config schema lists the keys.

Every ground state is one `minimize` call: it starts from init_profile when
that is given, else from the sech ground state of the equal-coupling
reduction, and stops on its residual target.
Only the stability perturbations draw random numbers, so only `stability`
takes `--seed`, which replaces the [stability] seeds list.
Only `#` starts an inline comment: `;` separates subadd splits.

Scalars go to JSON, field data to CSV: an optional `# ` line ending in LF,
then header and rows ending in CRLF, each float its shortest round-trip repr
(a profile read back may also use LF or CR, quoted or space-padded cells,
blank lines).  All-float blocks (profile.csv, the snapshots, trace.csv) are
formatted in bulk by `text.csv_rows`, whose digits are certified equal to
repr's, and a cell it cannot certify is formatted by repr itself; the
snapshot index and margins.csv, which hold text or bool columns, are
formatted cell by cell.  Every output but metadata.json is byte-identical
per config and seed.

Every command raises on failure, and `main` alone maps the failure type to
its exit code and stderr prefix (`_EXITS`): 0 ok, 1 usage or config/input
error (argparse's usage message, a `ConfigError`, an output that cannot be
written, a snapshot included, or a run too large to allocate), 2
non-convergence (`ConvergenceError`, also a collapsed flow step or a
diverging polish), 3 blow-up (`BlowUpError`: an `evolve` run, or the
stability seeds that blew up, after every output is written), 4 a failed
`validate` check (`CheckFailed`, after validate.json).  A command whose
section is missing (`_NEEDS`) fails before the output directory is made.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .evolution import BlowUpError, check_evolve_args, evolve, record_rows
from .ground_state import (ConvergenceError, GroundState, SolverConfig,
                           _initial_array, minimize, refine_fixed_point,
                           subadditivity_check)
from .model import (SINGLE_COMPONENT_BOXES, CouplingModel, MassTriple,
                    Multipliers, State, el_residual, gradient_fd_error,
                    sech_profile, single_component_minimum)
from .spectral import Field, Grid, make_grid
from .stability import check_stability_args, stability_experiment
from .text import csv_rows
from .tolerances import DEFAULT as TOLS


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the field."""


class CheckFailed(RuntimeError):
    """A `validate` oracle check did not pass."""


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    model: CouplingModel
    masses: MassTriple
    solver: SolverConfig
    evolution: Optional[dict]
    stability: Optional[dict]
    subadd: Optional[tuple]   # (split, part 1, part 2) per split
    out_dir: str


def _splits(raw: str) -> tuple:
    """`r,s,t ; r,s,t ...` as a tuple of float triples."""
    splits = tuple(tuple(float(c) for c in part.split(","))
                   for part in raw.split(";") if part.strip())
    for split in splits:
        if len(split) != 3:
            raise ValueError(f"entry {split} is not an r,s,t triple")
    if not splits:
        raise ValueError("no split given")
    return splits


def _ints(raw: str) -> tuple:
    values = tuple(int(x) for x in raw.split(","))
    if len(set(values)) < len(values):
        raise ValueError(f"{raw!r} repeats a seed")
    return values


# section -> (section required, {key -> (converter, default)}); a `...`
# default marks a required key.  The rows only convert: the code taking a
# value checks it (see load_config).  Solver defaults are SolverConfig's.
_SCHEMA = {
    "grid": (True, {"n": (int, ...), "length": (float, ...)}),
    "coupling": (True, {k: (float, ...) for k in
                        ("a11", "a12", "a13", "a22", "a23", "a33", "p")}),
    "masses": (True, {k: (float, ...) for k in ("r", "s", "t")}),
    "solver": (False, {k: (conv, getattr(SolverConfig, k, None)) for k, conv in (
        ("max_iters", int), ("residual_tol", float), ("init_profile", str))}),
    "evolution": (False, {"t": (float, ...), "dt": (float, ...),
                          "snapshot_every": (int, 0)}),
    "stability": (False, {"kind": (str, "mass_preserving_random"),
                          "delta": (float, ...), "eps": (float, None),
                          "seeds": (_ints, (0,)), "sample_every": (int, 100)}),
    "subadd": (False, {"splits": (_splits, ...)}),
    "output": (False, {"dir": (str, "out")}),
}


def _read_section(name: str, raw) -> dict:
    """The schema pass: `raw` (key -> text) as key -> value, defaults filled in."""
    rows = _SCHEMA[name][1]
    for key in raw:
        if key not in rows:
            raise ConfigError(f"unknown key {name}.{key}")
    values = {}
    for key, (conv, default) in rows.items():
        what, text = f"{name}.{key}", raw.get(key)
        if text is None:
            if default is ...:
                raise ConfigError(f"missing required key {what}")
            values[key] = default
            continue
        try:
            values[key] = conv(text)
        except ValueError as err:
            raise ConfigError(f"invalid value for {what}: {err}") from err
    return values


def _build(prefix: str, factory, **kwargs):
    """factory(**kwargs); its ValueError, led by the argument's name, becomes
    a ConfigError that starts with `prefix` (the section, or what was built)."""
    try:
        return factory(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{prefix}{err}") from err


def _split_parts(split: tuple, total: MassTriple) -> tuple:
    """(split, part 1, part 2) of a [subadd] split: part 1 is the split itself."""
    rest = (total.r - split[0], total.s - split[1], total.t - split[2])
    # a few ulps of each total's component absorb round-off, not mass (none
    # on a component the total lacks)
    slack = 4 * sys.float_info.epsilon
    if any(v < -slack * m for v, m in zip(rest, astuple(total))):
        raise ValueError("exceeds total masses")
    return split, MassTriple(*split), MassTriple(*(max(v, 0.0) for v in rest))


def load_config(path: str, seed_override: Optional[int] = None) -> RunConfig:
    """The run at `path`; `seed_override` (`stability --seed`) replaces the
    [stability] seeds list, and a config without one is an error."""
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
    try:
        grid = _build("grid.", make_grid, **sec["grid"])
    except MemoryError as err:  # a grid too large to allocate
        raise ConfigError(f"grid: {err}") from err
    model = _build("coupling.", CouplingModel, a=a, p=c["p"])
    masses = _build("masses.", MassTriple, **sec["masses"])
    splits = sec["subadd"] and tuple(
        _build(f"subadd.splits: invalid split {s}: ", _split_parts, split=s,
               total=masses)
        for s in sec["subadd"]["splits"])

    knobs = sec["solver"]
    profile = knobs.pop("init_profile")
    if profile is not None:
        try:
            start = knobs["initial_state"] = read_profile_csv(Path(profile), grid)
            # the flow's start builder rejects a zero component with positive mass
            _initial_array(model, masses, grid, start)
        except (OSError, ValueError) as err:
            raise ConfigError(
                f"cannot use solver.init_profile {profile!r}: {err}") from err
    solver = _build("solver.", SolverConfig, **knobs)
    if sec["evolution"] is not None:
        _build("evolution.", check_evolve_args, **sec["evolution"])
    st = sec["stability"]
    if st is not None:  # each of the seeds is a `seed` argument
        args = {k: v for k, v in st.items() if k != "seeds"}
        _build("stability.", check_stability_args, **args)
        prefix = "stability.seeds: "
        if seed_override is not None:
            st["seeds"], prefix = (seed_override,), "invalid value for --seed: "
        for seed in st["seeds"]:
            _build(prefix, check_stability_args, **args, seed=seed)
    elif seed_override is not None:
        raise ConfigError("[stability] section required for --seed")

    return RunConfig(grid=grid, model=model, masses=masses, solver=solver,
                     evolution=sec["evolution"], stability=sec["stability"],
                     subadd=splits, out_dir=sec["output"]["dir"])


# ---------------------------------------------------------------------------
# writers / readers
# ---------------------------------------------------------------------------

def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_metadata(out: Path, argv) -> None:
    write_json(out / "metadata.json", {
        "package": f"trinls {__version__}",
        "command": list(argv),
        "written_at": datetime.now(timezone.utc).isoformat(),
    })


PROFILE_HEADER = ["x", "re_u1", "im_u1", "re_u2", "im_u2", "re_u3", "im_u3"]
_BLOCK = 512  # rows formatted per write: bounds the text held in memory


def _write_csv(path: Path, header, columns, comment=None) -> None:
    """`header` and the rows of `columns` (equal-length 1-D sequences) as CSV
    after an optional `# comment` line; cells are `str` (a float's repr).
    All-float64 columns are formatted in bulk by `text.csv_rows`."""
    columns = [np.asarray(c) for c in columns]
    bulk = all(c.dtype == np.float64 for c in columns)
    with open(path, "wb") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n".encode())
        fh.write((",".join(header) + "\r\n").encode())
        for a in range(0, len(columns[0]), _BLOCK):
            if bulk:
                fh.write(csv_rows(np.stack([c[a:a + _BLOCK] for c in columns], 1)))
                continue
            cells = [map(str, c[a:a + _BLOCK].tolist()) for c in columns]
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]).encode())


def write_profile_csv(path: Path, state: State) -> None:
    u = state.stack()
    parts = np.stack([u.real, u.imag], axis=1).reshape(6, -1)  # re_u1, im_u1, ...
    _write_csv(path, PROFILE_HEADER, [state.grid.nodes, *parts],
               "dimensionless units; one row per grid node, ordered by x")


def read_profile_csv(path: Path, grid: Grid) -> State:
    try:
        # LF, CRLF and a lone CR end a line (CRLF leaves a blank line, dropped);
        # `#` starts a comment and a cell may be quoted, as in the rows
        rows = [s for s in map(str.strip, path.read_bytes().decode()
                               .replace("\r", "\n").split("\n"))
                if s and s[0] != "#"]
        header = [c[1:-1] if c[:1] == c[-1:] == '"' else c
                  for c in rows[0].partition("#")[0].split(",")] if rows else None
        if header != PROFILE_HEADER:
            raise ValueError(f"unexpected header {header}")
        data = (np.loadtxt(rows[1:], delimiter=",", quotechar='"', ndmin=2)
                if rows[1:] else np.empty((0, 0)))
        if data.shape != (grid.n, len(PROFILE_HEADER)):
            raise ValueError(f"data shape {data.shape}, expected {grid.n} rows "
                             f"(grid nodes) of {len(PROFILE_HEADER)} columns")
        if not np.allclose(data[:, 0], grid.nodes, rtol=0,
                           atol=1e-9 * max(1.0, grid.spacing)):
            raise ValueError("node positions do not match grid")
        # the (re, im) column pairs viewed as complex keep every bit, -0.0 too
        return State.from_array(grid, data[:, 1:].view(complex).T)
    except (OSError, ValueError) as err:
        raise ConfigError(f"profile file {path}: {err}") from err


def write_groundstate_json(path: Path, gs: GroundState, model: CouplingModel) -> None:
    w = gs.multipliers.as_array()
    write_json(path, {
        "lambda": gs.lam,
        "omega": [None if math.isnan(x) else float(x) for x in w],
        "residual": gs.residual,
        "iterations": gs.iterations,
        "masses": [gs.masses_achieved.r, gs.masses_achieved.s, gs.masses_achieved.t],
        "grid": {"n": gs.grid.n, "length": gs.grid.length},
        "coupling": {"a": [list(map(float, row)) for row in model.a], "p": model.p},
    })


def write_trace_csv(path: Path, trace) -> None:
    _write_csv(path, ["t", "energy_drift", "mass_drift_1", "mass_drift_2",
                      "mass_drift_3"],
               [trace.times, trace.energy_drift, *trace.mass_drifts.T],
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


def cmd_solve(cfg: RunConfig, out: Path, args) -> None:
    gs = _solve_ground_state(cfg, args.quiet)
    write_groundstate_json(out / "groundstate.json", gs, cfg.model)
    write_profile_csv(out / "profile.csv", gs.profile)


def _snap_name(i: int) -> str:
    return f"snap_{i:06d}.csv"


def cmd_evolve(cfg: RunConfig, out: Path, args) -> None:
    state0 = read_profile_csv(Path(args.profile), cfg.grid)
    ev = cfg.evolution
    folder, times, blown = out / "snapshots", [], None

    def sample(t, state):
        if not times:
            folder.mkdir(exist_ok=True)
        write_profile_csv(folder / _snap_name(len(times)), state)
        times.append(t)

    try:
        trace = evolve(state0, ev["t"], ev["dt"], cfg.model,
                       snapshot_every=ev["snapshot_every"], sample=sample)
    except BlowUpError as err:  # raised once the partial outputs are written
        trace, blown = err.trace, err
    write_trace_csv(out / "trace.csv", trace)
    if times:
        _write_csv(out / "snapshots.csv", ["t", "file"],
                   [times, [_snap_name(i) for i in range(len(times))]])
    if blown:
        raise blown
    if not args.quiet:
        print(f"evolved to T = {trace.times[-1]:g}; "
              f"max energy drift = {trace.energy_drift.max():.3e}")


def cmd_stability(cfg: RunConfig, out: Path, args) -> None:
    st = cfg.stability
    ev = cfg.evolution
    # records too many to allocate fail here (MemoryError), not after the solve
    record_rows(ev["t"], ev["dt"], st["sample_every"])
    gs = _solve_ground_state(cfg, args.quiet)
    summary = {"verdicts": {}, "sup_distances": {}, "delta": st["delta"]}
    for seed in st["seeds"]:
        rep = stability_experiment(
            gs, cfg.model, st["kind"], st["delta"], ev["t"], ev["dt"],
            st["sample_every"], eps=st["eps"], seed=seed)
        write_json(out / f"report_seed{seed}.json", {
            "delta": rep.delta, "eps": rep.eps, "kind": rep.kind,
            "seed": rep.seed, "sup_distance": rep.sup_distance,
            "verdict": rep.verdict, "orbit_drift_flag": rep.orbit_drift_flag,
            "times": [float(t) for t in rep.trace.times],
            "distances": [float(d) for d in rep.distances],
        })
        summary["verdicts"][str(seed)] = rep.verdict
        summary["sup_distances"][str(seed)] = rep.sup_distance
        if not args.quiet:
            print(f"seed {seed}: verdict = {rep.verdict}, "
                  f"sup distance = {rep.sup_distance:.4e}")
    summary["all_bounded"] = all(v == "bounded" for v in summary["verdicts"].values())
    write_json(out / "summary.json", summary)
    blown = [seed for seed, v in summary["verdicts"].items() if v == "blow_up"]
    if blown:
        raise BlowUpError(f"non-finite state with stability seeds {', '.join(blown)}")


def cmd_subadd(cfg: RunConfig, out: Path, args) -> None:
    lam_total = minimize(cfg.model, cfg.masses, cfg.grid, cfg.solver).lam
    rows = []
    for split, part1, part2 in cfg.subadd:
        try:
            res = subadditivity_check(cfg.model, part1, part2, cfg.grid,
                                      cfg.solver, lam_total=lam_total)
        except ConvergenceError as err:
            raise type(err)(f"split {split}: {err}", err.last) from err
        part1, part2, *rest = astuple(res)
        rows.append((*part1, *part2, *rest))
        if not args.quiet:
            print(f"split {split}: margin = {res.margin:.6f} "
                  f"(tolerance {res.tolerance:.1e}, "
                  f"{'inconclusive' if res.inconclusive else 'conclusive'})")
    _write_csv(out / "margins.csv",
               ["r1", "s1", "t1", "r2", "s2", "t2", "lambda_total",
                "lambda_part1", "lambda_part2", "margin", "tolerance",
                "inconclusive"], list(zip(*rows)),
               "dimensionless units; margin = lambda(total) - lambda(p1) - lambda(p2)")


def _validate_checks():
    """Built-in oracle suite; yields (name, passed, detail)."""
    tol = TOLS.closed_form_residual  # the wide box's truncation floor is ~1e-12
    wide = make_grid(2048, 64.0)
    for p in (2.0, 2.5):
        psi = sech_profile(1.0, 1.0, p, wide)
        zero = Field(wide, np.zeros(wide.n, dtype=complex))
        state = State(psi, zero, zero)
        model = CouplingModel(np.ones((3, 3)), p=p)
        res = el_residual(state, Multipliers(1.0, np.nan, np.nan), model)
        yield (f"sech residual p={p}", res <= tol, f"residual {res:.2e}")

    model1 = CouplingModel(np.ones((3, 3)), p=2.0)
    phi = sech_profile(1.0, 3.0, 2.0, wide)
    triple = State(phi, phi, phi)
    res = el_residual(triple, Multipliers(1.0, 1.0, 1.0), model1)
    yield ("equal-coupling triple residual", res <= tol, f"residual {res:.2e}")

    # lambda(r,0,0) and w1 in closed form; the polish must keep lambda
    for r, (n, L) in SINGLE_COMPONENT_BOXES.items():
        grid_r = make_grid(n, L)
        masses = MassTriple(r, 0.0, 0.0)
        gs = minimize(model1, masses, grid_r, SolverConfig())
        polished = refine_fixed_point(gs.profile, model1, masses)
        lam_exact, omega = single_component_minimum(r)
        ok = (abs(gs.lam - lam_exact) <= TOLS.lambda_rel * abs(lam_exact)
              and abs(gs.multipliers.w1 - omega) <= TOLS.omega_abs
              and abs(polished.lam - gs.lam) <= 1e-10 * abs(lam_exact))
        yield (f"lambda({r:g},0,0) closed form", ok,
               f"lambda {gs.lam:.8f} vs {lam_exact:.8f}, w1 {gs.multipliers.w1:.8f}, "
               f"polish moved lambda by {abs(polished.lam - gs.lam):.1e}")

    worst = gradient_fd_error(make_grid(1024, 40.0), model1,
                              np.random.default_rng(42))
    yield ("gradient vs finite differences", worst <= TOLS.gradient_fd_rel,
           f"worst relative error {worst:.2e}")


def cmd_validate(cfg: None, out: Optional[Path], args) -> None:
    results = []
    for name, ok, detail in _validate_checks():
        results.append({"check": name, "passed": bool(ok), "detail": detail})
        if not (args.quiet and ok):
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    failed = [r["check"] for r in results if not r["passed"]]
    if out is not None:
        write_json(out / "validate.json", {"checks": results, "all_passed": not failed})
    if failed:
        raise CheckFailed(f"{len(failed)} of {len(results)} checks failed: "
                          + "; ".join(failed))


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
        p.add_argument("--quiet", action="store_true")
        if name == "evolve":
            p.add_argument("--profile", required=True,
                           help="input profile.csv (must match [grid])")
        if name == "stability":  # the one command that draws random numbers
            p.add_argument("--seed", type=int, default=None,
                           help="replaces the [stability] seeds list")
    v = sub.add_parser("validate")
    v.add_argument("--out", default=None)
    v.add_argument("--quiet", action="store_true")
    return parser


# failure type -> (exit code, stderr prefix): the only exit-code map
_EXITS = {
    ConfigError: (1, "config error"),
    OSError: (1, "config error: cannot write output"),  # readers raise ConfigError
    MemoryError: (1, "config error"),  # e.g. t / dt records too many to allocate
    ConvergenceError: (2, "solve failed"),
    BlowUpError: (3, "blow-up"),
    CheckFailed: (4, "validation failed"),
}

# command -> the optional sections it needs, checked before any output
_NEEDS = {"evolve": ("evolution",), "stability": ("stability", "evolution"),
          "subadd": ("subadd",)}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as err:  # argparse printed its usage message or --help
        return 1 if err.code else 0
    # built per call, so that a cmd_* wrapped at run time (the benchmark's
    # tracer) is the one that runs
    commands = {"solve": cmd_solve, "evolve": cmd_evolve, "stability": cmd_stability,
                "subadd": cmd_subadd, "validate": cmd_validate}
    try:
        cfg = None
        if args.command != "validate":
            cfg = load_config(args.config, seed_override=getattr(args, "seed", None))
        for name in _NEEDS.get(args.command, ()):
            if getattr(cfg, name) is None:
                raise ConfigError(f"[{name}] section required for {args.command}")
        out = Path(args.out) if args.out else cfg and Path(cfg.out_dir)
        if out is not None:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as err:  # e.g. the path or a parent is an existing file
                raise ConfigError(f"cannot make output directory {out}: {err}") from err
            write_metadata(out, [args.command] + argv[1:])
        commands[args.command](cfg, out, args)
        return 0
    except tuple(_EXITS) as err:
        code, prefix = next(v for kind, v in _EXITS.items() if isinstance(err, kind))
        print(f"{prefix}: {err}", file=sys.stderr)
        return code

if __name__ == "__main__":
    sys.exit(main())
