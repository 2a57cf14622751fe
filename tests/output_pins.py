"""Pinned scientific outputs: run every command in-process on two configs,
hash each output file and extract the numbers it holds.

`test_output_pins.py` compares a fresh run with `output_pins.json`: on the
platform the pins were made on (`platform_key`), every file's sha256; on any
platform, the numbers within the allowances below, which come from
`trinls.tolerances`.  A change that moves output bits on purpose rewrites
the pin file with

    PYTHONPATH=src python tests/output_pins.py

which prints each file whose hash changed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from trinls.cli import main
from trinls.tolerances import DEFAULT as TOLS

PINS = Path(__file__).with_name("output_pins.json")

# the benchmark's cli_wide config (bench/workloads.py), stability seeds 11, 22
CLI_WIDE = """[grid]
n = 4096
length = 80.0

[coupling]
a11 = 1.0
a12 = 0.7
a13 = 0.5
a22 = 1.3
a23 = 0.9
a33 = 0.8
p = 2.5

[masses]
r = 2.0
s = 1.5
t = 1.2

[evolution]
t = 0.2
dt = 0.001
snapshot_every = 50

[stability]
kind = mass_preserving_random
delta = 0.001
seeds = 11,22
sample_every = 50

[subadd]
splits = 1.0,0.75,0.0;0.5,0.5,0.6
"""

# README's config block without init_profile, run to t = 0.5 (not 10.0)
# with a snapshot every 100 steps, so both configs take about 1 s
README = """[grid]
n = 1024
length = 40.0

[coupling]
a11 = 1.0
a12 = 1.0
a13 = 1.0
a22 = 1.0
a23 = 1.0
a33 = 1.0
p = 2.0

[masses]
r = 1.3333333333333333
s = 1.3333333333333333
t = 1.3333333333333333

[solver]
max_iters = 5000
residual_tol = 5e-12

[evolution]
t = 0.5
dt = 1e-3
snapshot_every = 100

[stability]
kind = mass_preserving_random
delta = 1e-3
eps = 0.02
seeds = 0,1,2,3,4
sample_every = 100

[subadd]
splits = 0.6666666666666666,0.6666666666666666,0.6666666666666666 ; 1.3333333333333333,0,0
"""

CONFIGS = {"cli_wide": CLI_WIDE, "readme": README}

# number name -> (relative, absolute) allowance off the pinned platform, or
# None where the value follows the round-off path (iteration counts, the
# text of validate's details); a name not listed must match exactly (grids,
# couplings, times, prescribed masses, verdicts and flags)
ALLOWANCE = {
    **dict.fromkeys(("lambda", "lambda_total", "lambda_part1", "lambda_part2",
                     "tolerance"), (TOLS.lambda_rel, 0.0)),
    "margin": (0.0, TOLS.subadd_margin_abs),
    "omega": (0.0, TOLS.omega_abs),
    "masses": (TOLS.projection_rel, 0.0),
    "residual": (0.0, TOLS.residual_converged),
    "mass": (TOLS.mass_drift, 0.0),
    "max_modulus": (0.0, TOLS.profile_max_err),
    "energy_drift_max": (0.0, TOLS.energy_drift),
    "mass_drift_max": (0.0, TOLS.mass_drift),
    **dict.fromkeys(("sup_distance", "sup_distances", "distances"),
                    (0.0, TOLS.orbit_pseudometric)),
    "iterations": None,
    "detail": None,
}


def platform_key() -> str:
    """What the output bits rest on: the machine and its C library (libm),
    numpy, SciPy's pocketfft and the long double of the lambda pass."""
    libc = " ".join(platform.libc_ver()) or "unknown libc"
    bits = np.finfo(np.longdouble).nmant + 1
    return (f"{platform.machine()} {platform.system()} {libc}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, {bits}-bit long double mantissa")


def run_commands(root: Path) -> None:
    """solve, evolve (from the solved profile), stability and subadd on each
    config, and validate, with their outputs under `root`."""
    for name, text in CONFIGS.items():
        cfg = root / f"{name}.ini"
        cfg.write_text(text)
        profile = str(root / name / "solve" / "profile.csv")
        for cmd, extra in (("solve", ()), ("evolve", ("--profile", profile)),
                           ("stability", ()), ("subadd", ())):
            code = main([cmd, "--config", str(cfg), "--out", str(root / name / cmd),
                         "--quiet", *extra])
            if code:
                raise RuntimeError(f"{name}: {cmd} exited {code}")
    if main(["validate", "--out", str(root / "validate"), "--quiet"]):
        raise RuntimeError("validate failed")


def numbers(path: Path):
    """The numbers a file holds: a JSON file as it reads; a profile's masses
    and peak moduli; trace.csv's largest drifts; any other CSV by column."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    if header[0] == "x":
        v = np.array(rows, dtype=float)
        u = np.abs(v[:, 1::2] + 1j * v[:, 2::2])
        h = (v[-1, 0] - v[0, 0]) / (len(v) - 1)
        return {"mass": (h * (u ** 2).sum(axis=0)).tolist(),
                "max_modulus": u.max(axis=0).tolist()}
    if header[1] == "energy_drift":
        v = np.array(rows, dtype=float)
        return {"rows": len(v), "energy_drift_max": float(v[:, 1].max()),
                "mass_drift_max": v[:, 2:].max(axis=0).tolist()}
    columns = {}
    for name, cells in zip(header, zip(*rows)):
        try:
            columns[name] = [float(c) for c in cells]
        except ValueError:  # text or bool cells
            columns[name] = list(cells)
    return columns


def outputs(root: Path) -> dict:
    """relative path -> {sha256, numbers} of every output but metadata.json."""
    return {p.relative_to(root).as_posix(): {
                "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                "numbers": numbers(p)}
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.suffix != ".ini" and p.name != "metadata.json"}


def mismatches(pinned, got, path=()) -> list:
    """Paths of the numbers in `got` outside their allowance of `pinned`."""
    if isinstance(pinned, dict):
        if not isinstance(got, dict) or set(got) != set(pinned):
            return [path]
        return [m for k in pinned for m in mismatches(pinned[k], got[k], path + (k,))]
    if isinstance(pinned, list):
        if not isinstance(got, list) or len(got) != len(pinned):
            return [path]
        return [m for a, b in zip(pinned, got) for m in mismatches(a, b, path)]
    rule = next((ALLOWANCE[k] for k in reversed(path) if k in ALLOWANCE), (0.0, 0.0))
    if rule is None:
        return []
    if type(pinned) in (int, float) and type(got) in (int, float):
        rel, tol = rule
        ok = math.isclose(got, pinned, rel_tol=rel, abs_tol=tol)
    else:
        ok = type(got) is type(pinned) and got == pinned
    return [] if ok else [path]


def main_rewrite() -> None:
    """Run the commands and rewrite the pin file; print the changed files."""
    old = json.loads(PINS.read_text())["files"] if PINS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        run_commands(Path(tmp))
        files = outputs(Path(tmp))
    PINS.write_text(json.dumps({"platform": platform_key(), "files": files},
                               indent=1, sort_keys=True) + "\n")
    for name in sorted(set(old) | set(files)):
        if old.get(name, {}).get("sha256") != files.get(name, {}).get("sha256"):
            print("changed" if name in old and name in files
                  else "added" if name in files else "removed", name)


if __name__ == "__main__":
    sys.exit(main_rewrite())
