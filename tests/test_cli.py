"""CLI contracts: config validation, file formats, exit codes, determinism."""

import argparse
import configparser
import csv
import dataclasses
import inspect
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import trinls as t
from trinls.cli import (_BLOCK, _SCHEMA, PROFILE_HEADER, ConfigError, RunConfig,
                        _build_parser, load_config, main, read_profile_csv,
                        write_profile_csv)
from trinls.evolution import check_evolve_args
from trinls.stability import check_stability_args

import oracles

BASE = """\
[grid]
n = 512
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
r = 4.0
s = 0.0
t = 0.0

[solver]
residual_tol = 5e-12
"""
TOL_LINE = "residual_tol = 5e-12"  # the line of BASE that edits anchor on


# every schema key but solver.init_profile, which needs a profile file
FULL_CFG = {
    "grid": {"n": "256", "length": "40.0"},
    "coupling": {k: "1.0" for k in ("a11", "a12", "a13", "a22", "a23", "a33")}
    | {"p": "2.0"},
    "masses": {"r": "1.0", "s": "1.0", "t": "1.0"},
    "solver": {"max_iters": "50", "residual_tol": "5e-12"},
    "evolution": {"t": "1.0", "dt": "1e-3", "snapshot_every": "0"},
    "stability": {"kind": "mass_preserving_random", "delta": "1e-3",
                  "eps": "0.02", "seeds": "0,1", "sample_every": "100"},
    "subadd": {"splits": "0.5,0.5,0.5"},
    "output": {"dir": "out"},
}


def write_config(tmp_path, text=BASE, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def gaussian_profile(tmp_path, n=512, length=40.0):
    """BASE's TOL_LINE followed by an init_profile line naming a profile.csv
    of `oracles.gaussian_start` for BASE's masses on the grid (n, length):
    the flow's former start, which takes 13 iterations at n = 512."""
    path = tmp_path / "gaussian.csv"
    write_profile_csv(path, oracles.gaussian_start(t.MassTriple(4.0, 0.0, 0.0),
                                                   t.make_grid(n, length)))
    return f"{TOL_LINE}\ninit_profile = {path}"


def scientific_files(out):
    """Every output file but metadata.json, as relative path -> bytes."""
    return {f.relative_to(out): f.read_bytes() for f in out.rglob("*")
            if f.is_file() and f.name != "metadata.json"}


class TestConfigValidation:
    def test_invalid_exponent_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("p = 2.0", "p = 3.5"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "config error: coupling.p must be in [2, 3), got 3.5\n"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "\n[solver]\nbogus = 1\n")
        # configparser raises on duplicate section; use a fresh unknown key
        cfg = write_config(tmp_path, BASE.replace(TOL_LINE, f"{TOL_LINE}\nbogus = 1"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "\n[mystery]\nx = 1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "mystery" in capsys.readouterr().err

    def test_missing_required_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("[masses]", "[output]")
                           .replace("r = 4.0", "dir = out")
                           .replace("s = 0.0", "").replace("t = 0.0", ""))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "masses" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("key, text", [
        ("solver.max_iters", BASE.replace(TOL_LINE, "max_iters = many")),
        ("evolution.snapshot_every", BASE + "\n[evolution]\nt = 1.0\n"
         "dt = 1e-3\nsnapshot_every = abc\n"),
        ("stability.sample_every", BASE + "\n[stability]\ndelta = 1e-3\n"
         "sample_every = 1.5\n"),
        ("stability.eps", BASE + "\n[stability]\ndelta = 1e-3\neps = small\n"),
        ("stability.seeds", BASE + "\n[stability]\ndelta = 1e-3\nseeds = 0,x\n"),
    ], ids=lambda v: v if "[" not in v else "cfg")
    def test_non_numeric_value_names_key(self, tmp_path, capsys, key, text):
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, text", [
        ("evolution.snapshot_every", BASE + "\n[evolution]\nt = 1.0\n"
         "dt = 1e-3\nsnapshot_every = -5\n"),
        ("stability.sample_every", BASE + "\n[stability]\ndelta = 1e-3\n"
         "sample_every = 0\n"),
        ("stability.delta", BASE + "\n[stability]\ndelta = -1e-3\n"),
        ("stability.seeds", BASE + "\n[stability]\ndelta = 1e-3\nseeds = -1\n"),
        pytest.param("stability.seeds", BASE + "\n[stability]\ndelta = 1e-3\n"
                     "seeds = 0,0\n", id="stability.seeds-repeated"),
        ("solver.max_iters", BASE.replace(TOL_LINE, f"{TOL_LINE}\nmax_iters = 0")),
        ("solver.init_profile", BASE.replace(TOL_LINE,
                                             f"{TOL_LINE}\ninit_profile = x.csv")),
        # blank: read as a path (the working directory), not as "no profile"
        ("solver.init_profile", BASE.replace(TOL_LINE, f"{TOL_LINE}\ninit_profile =")),
        ("evolution.t", BASE + "\n[evolution]\nt = 1e300\ndt = 1e-3\n"),
        pytest.param("evolution.dt", BASE + "\n[evolution]\nt = 1.0\n",
                     id="evolution.dt-missing"),
        # past numpy's index range, and past the float range
        pytest.param("grid.n", BASE.replace("n = 512", f"n = {2 ** 70}"), id="grid.n-2**70"),
        pytest.param("grid.n", BASE.replace("n = 512", f"n = {2 ** 1400}"),
                     id="grid.n-2**1400"),
    ], ids=lambda v: v if "[" not in v else "cfg")
    def test_out_of_range_value_names_key(self, tmp_path, capsys, key, text):
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, text", [
        ("evolution.t", BASE + "\n[evolution]\nt = nan\ndt = 1e-3\n"),
        ("evolution.dt", BASE + "\n[evolution]\nt = 1.0\ndt = inf\n"),
        ("masses.r", BASE.replace("r = 4.0", "r = inf")),
        ("stability.delta", BASE + "\n[stability]\ndelta = nan\n"),
        ("stability.eps", BASE + "\n[stability]\ndelta = 1e-3\neps = nan\n"),
        ("stability.eps", BASE + "\n[stability]\ndelta = 1e-3\neps = -1\n"),
        ("stability.eps", BASE + "\n[stability]\ndelta = 1e-3\neps = 0\n"),
        ("subadd.splits", BASE + "\n[subadd]\nsplits = nan,0,0\n"),
    ], ids=["t-nan", "dt-inf", "r-inf", "delta-nan", "eps-nan", "eps-negative",
            "eps-zero", "split-nan"])
    def test_non_finite_or_non_positive_value_names_key(self, tmp_path, capsys,
                                                        key, text):
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stability"])
    def test_negative_seed_flag_names_flag(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, STAB_CFG)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--config", "run.ini", "--bogus"],
        ["solve", "--out", "o"],
        ["evolve", "--config", "run.ini", "--profile", "p.csv", "--seed", "1"],
        ["solve", "--config", "run.ini", "--seed", "1"],
        ["subadd", "--config", "run.ini", "--seed", "1"],
    ], ids=["unknown-flag", "missing-config", "evolve-seed", "solve-seed", "subadd-seed"])
    def test_usage_error_exits_1(self, capsys, argv):
        # exit 2 means non-convergence; only stability draws random numbers,
        # so a seed on another command would be checked and then ignored
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: trinls ") and "error: " in err

    def test_seed_flag_rule_is_check_stability_args(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^invalid value for --seed: "
                                              r"seed must be >= 0, got -1$"):
            load_config(write_config(tmp_path, STAB_CFG), seed_override=-1)

    def test_seed_list_rule_is_the_librarys(self, tmp_path):
        # each listed seed goes through check_stability_args, as the seed
        # argument of stability_experiment does
        text = BASE + "\n[stability]\ndelta = 1e-3\nseeds = 0,-1\n"
        with pytest.raises(ConfigError, match=r"^stability\.seeds: seed must be "
                                              r">= 0, got -1$"):
            load_config(write_config(tmp_path, text))

    def test_seed_flag_needs_stability_section(self, tmp_path, capsys):
        # an override with no seeds list to replace is an error, not ignored
        with pytest.raises(ConfigError, match=r"^\[stability\] section required "
                                              r"for --seed$"):
            load_config(write_config(tmp_path), seed_override=5)
        argv = ["stability", "--config", write_config(tmp_path), "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "config error: [stability] section required for --seed\n")
        assert not (tmp_path / "o").exists()

    def test_seed_flag_replaces_seed_list(self, tmp_path):
        cfg = load_config(write_config(tmp_path, STAB_CFG), seed_override=5)
        assert cfg.stability["seeds"] == (5,)

    def test_unparsable_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace(
            TOL_LINE, f"{TOL_LINE}\nresidual_tol = 1e-11"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "residual_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section", [
        ("evolve", "[evolution]"), ("stability", "[stability]"),
        ("subadd", "[subadd]")])
    def test_command_without_its_section(self, tmp_path, capsys, command, section):
        cfg = write_config(tmp_path)
        extra = ["--profile", str(tmp_path / "p.csv")] if command == "evolve" else []
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]
                    + extra) == 1
        assert section in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra, section", [
        ("evolve", "", "evolution"), ("subadd", "", "subadd"),
        ("stability", "\n[evolution]\nt = 0.1\ndt = 1e-3\n", "stability"),
        ("stability", "\n[stability]\ndelta = 1e-3\n", "evolution")],
        ids=["evolve", "subadd", "stability", "stability-without-evolution"])
    def test_missing_section_makes_no_output(self, tmp_path, capsys, command,
                                             extra, section):
        # the command's sections are checked before the output directory
        # and metadata.json are made
        cfg = write_config(tmp_path, BASE + extra)
        out = tmp_path / "o"
        profile = ["--profile", str(tmp_path / "p.csv")] if command == "evolve" else []
        assert main([command, "--config", cfg, "--out", str(out)] + profile) == 1
        assert capsys.readouterr().err == (
            f"config error: [{section}] section required for {command}\n")
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [(s, k) for s, (_, rows) in
                                              _SCHEMA.items() for k in rows])
    @given(text=st.one_of(
        st.integers().map(str), st.floats().map(str),
        st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20)))
    @example(text="nan")
    @example(text="-inf")
    @example(text="-0.0")
    @example(text="1e308")
    @example(text="5e-324")
    @example(text="-1")
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_any_value_loads_or_names_section(self, tmp_path_factory, section,
                                              key, text):
        """One drawn value in an otherwise valid config that sets every key
        but init_profile: load_config returns or raises a ConfigError naming
        the section.  Nothing is solved."""
        if (section, key) == ("grid", "n"):
            try:
                assume(int(text) <= 2 ** 16)   # make_grid allocates n nodes
            except ValueError:
                pass
        sections = {name: dict(rows) for name, rows in FULL_CFG.items()}
        sections[section][key] = text
        path = tmp_path_factory.mktemp("cfg") / "any.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in rows.items())
            for name, rows in sections.items()))
        try:
            assert isinstance(load_config(str(path)), RunConfig)
        except ConfigError as err:
            assert section in str(err)

    @pytest.mark.parametrize("section, key", [
        (s, k) for s, (_, rows) in _SCHEMA.items() for k, (conv, _) in rows.items()
        if conv in (int, float)])
    @given(text=st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e309"]),
                          st.integers().map(str), st.floats().map(str)))
    @example(text="nan")
    @example(text="inf")
    @example(text="-inf")
    @example(text="1e309")
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    def test_cli_rejects_what_the_library_rejects(self, tmp_path_factory, section,
                                                  key, text):
        """A drawn value of a numeric key in an otherwise valid config (no
        [subadd], whose splits depend on [masses]): load_config raises a
        ConfigError exactly when the library code that takes the section,
        called with the converted values, raises a ValueError led by an
        argument's name, and its message is that one behind `section.`;
        otherwise the config loads.  The name is any key of the section,
        since a drawn dt can break t's rule."""
        rows = _SCHEMA[section][1]
        values = {k: rows[k][0](v) for k, v in FULL_CFG[section].items()}
        sections = {name: dict(rows) for name, rows in FULL_CFG.items()
                    if name != "subadd"}
        sections[section][key] = text
        path = tmp_path_factory.getbasetemp() / f"agree-{section}-{key}.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in rows.items())
            for name, rows in sections.items()))
        try:
            values[key] = rows[key][0](text)
        except ValueError:  # not a number: the schema's own error
            with pytest.raises(ConfigError, match=f"^invalid value for {section}.{key}: "):
                load_config(str(path))
            return
        if key == "n":
            assume(values["n"] <= 2 ** 16)   # make_grid allocates n nodes
        owner = {
            "grid": lambda: t.make_grid(**values),
            "coupling": lambda: t.CouplingModel(np.array(
                [[values[f"a{min(k, j)}{max(k, j)}"] for j in (1, 2, 3)]
                 for k in (1, 2, 3)]), values["p"]),
            "masses": lambda: t.MassTriple(**values),
            "solver": lambda: t.SolverConfig(**values),
            "evolution": lambda: check_evolve_args(**values),
            "stability": lambda: check_stability_args(
                **{k: v for k, v in values.items() if k != "seeds"}),
        }[section]
        try:
            owner()
        except ValueError as err:
            assert str(err).split(" ")[0] in rows, err   # led by a key's name
            with pytest.raises(ConfigError) as info:
                load_config(str(path))
            assert str(info.value) == f"{section}.{err}"
            return
        assert isinstance(load_config(str(path)), RunConfig)

    @pytest.mark.parametrize("section, line", [
        ("solver", "rearrange_every = 25"),
        ("solver", "refine = true"),
        ("solver", "scheme = explicit"),
        ("solver", "tau = 1.0"),
        ("solver", "seed = 0"),
        ("solver", "noise = 0.0"),
        ("output", "formats = json,csv"),
    ])
    def test_removed_keys_rejected(self, tmp_path, capsys, section, line):
        text = (BASE.replace(TOL_LINE, f"{TOL_LINE}\n{line}") if section == "solver"
                else BASE + f"\n[output]\n{line}\n")
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        key = line.split(" = ")[0]
        assert f"unknown key {section}.{key}" in capsys.readouterr().err

    def test_solver_schema_matches_config_fields(self):
        # a SolverConfig field without a [solver] key, a key without a field,
        # or a default that differs fails here; init_profile is read into
        # initial_state
        fields = {f.name: f.default for f in dataclasses.fields(t.SolverConfig)}
        fields["init_profile"] = fields.pop("initial_state")
        rows = _SCHEMA["solver"][1]
        assert set(rows) == set(fields)
        assert {key: default for key, (_, default) in rows.items()} == fields

    @pytest.mark.parametrize("section, check", [
        ("evolution", check_evolve_args), ("stability", check_stability_args)])
    def test_run_sections_have_one_owner(self, section, check):
        # every [evolution] and [stability] key but the seed list is an
        # argument of the library check that owns its range: a key added
        # without a rule fails here
        params = set(inspect.signature(check).parameters)
        assert set(_SCHEMA[section][1]) - {"seeds"} <= params

    def test_grid_too_large_to_allocate(self, tmp_path, capsys):
        # 2**40 nodes: numpy refuses the 8 TiB node array at once
        cfg = write_config(tmp_path, BASE.replace("n = 512", f"n = {2 ** 40}"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: grid: ")

    @pytest.mark.parametrize("command", ["solve", "evolve", "stability", "subadd"])
    def test_box_too_long_for_its_node_squares(self, tmp_path, capsys, command):
        # past 2**512 the node squares overflow, and above 6.7e154 the
        # random perturbations' width square (L / 5)^2, a Python float
        # power, raises OverflowError: every command rejects the box at load
        text = STAB_CFG.replace("length = 40.0", "length = 1e300")
        cfg = write_config(tmp_path, text + "\n[subadd]\nsplits = 1,1,1\n")
        args = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        if command == "evolve":
            args += ["--profile", str(tmp_path / "p.csv")]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "config error: grid.length must be <= 2**512, got 1e+300\n")

    @pytest.mark.parametrize("command", ["solve", "stability", "subadd"])
    @pytest.mark.parametrize("length, masses, p, coupling, kind", [
        (2.0 ** 512, (1.0, 1.0, 1.0), 2.999, 1.0, "random_h1"),
        (2.0 ** 512, (1e300, 0.0, 0.0), 2.0, 5e-324, "component_tilt"),
        (2.0 ** 512, (1e-300,) * 3, 2.999, 5e-324, "mass_preserving_random"),
        (1e-150, (1e-300, 0.0, 0.0), 2.0, 1.0, "random_h1"),
        (1e-150, (1e300, 1e-300, 1.0), 2.999, 5e-324, "component_tilt"),
    ])
    def test_extreme_accepted_values_end_without_traceback(
            self, tmp_path, command, length, masses, p, coupling, kind):
        # every accepted value ends in a documented exit code: a solve or a
        # run that fails is exit 2 or 3, not an exception out of main (and
        # not exit 1: the config is accepted)
        coupling_rows = "".join(f"a{jk} = {coupling!r}\n"
                                for jk in ("11", "12", "13", "22", "23", "33"))
        r, s, m3 = masses
        text = f"""\
[grid]
n = 16
length = {length!r}
[coupling]
{coupling_rows}p = {p!r}
[masses]
r = {r!r}
s = {s!r}
t = {m3!r}
[evolution]
t = 0.01
dt = 1e-3
snapshot_every = 0
[stability]
kind = {kind}
delta = 1e-3
seeds = 0
sample_every = 5
[subadd]
splits = {r / 2!r},{s / 2!r},{m3 / 2!r}
"""
        cfg = write_config(tmp_path, text)
        with np.errstate(all="ignore"):
            code = main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                         "--quiet"])
        assert code in (0, 2, 3)

    @pytest.mark.parametrize("command", ["evolve", "stability"])
    def test_run_too_long_to_record(self, tmp_path, capsys, monkeypatch, command):
        # t / dt = 1e15 steps, each one recorded: numpy refuses the 8 PB
        # record arrays at once, and the run ends in one stderr line before
        # any solve
        import trinls.cli as cli
        solves = []
        monkeypatch.setattr(cli, "minimize", lambda *a, **k: solves.append(a))
        if command == "evolve":
            (tmp_path / "p.csv").write_text(profile_text())
            text = BASE + EVOLVE_EXTRA.replace("t = 0.1", "t = 1e12")
            extra = ["--profile", str(tmp_path / "p.csv")]
        else:
            text = STAB_CFG.replace("t = 1.0", "t = 1e12").replace(
                "sample_every = 250", "sample_every = 1")
            extra = []
        argv = [command, "--config", write_config(tmp_path, text), *extra,
                "--out", str(tmp_path / "o"), "--quiet"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert "allocate" in err
        assert solves == []

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("route", ["--out", "output.dir", "validate"])
    def test_output_path_through_file(self, tmp_path, capsys, route, below):
        # an output directory that is an existing file, or lies below one
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "x" if below else blocker
        if route == "validate":
            argv = ["validate", "--out", str(out)]
        elif route == "--out":
            argv = ["solve", "--config", write_config(tmp_path), "--out", str(out)]
        else:
            argv = ["solve", "--config",
                    write_config(tmp_path, BASE + f"\n[output]\ndir = {out}\n")]
        assert main(argv + ["--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make output directory {out}")

    @pytest.mark.parametrize("command, blocked", [
        ("evolve", "snapshots"), ("solve", "groundstate.json")])
    def test_output_file_cannot_be_written(self, tmp_path, capsys, command,
                                           blocked):
        # a file where the snapshot folder goes, a folder where a file goes
        out = tmp_path / "o"
        out.mkdir()
        if command == "evolve":
            (out / blocked).write_text("")
            (tmp_path / "p.csv").write_text(profile_text())
            argv = ["evolve", "--config", write_config(tmp_path, BASE + EVOLVE_EXTRA),
                    "--profile", str(tmp_path / "p.csv")]
        else:
            (out / blocked).mkdir()
            argv = ["solve", "--config", write_config(tmp_path)]
        assert main(argv + ["--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ")
        assert str(out / blocked) in err


def subparsers():
    """Command name -> its argparse parser."""
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def flags(parser):
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


# A second valid value for every key but output.dir (which --out overrides),
# and the command that reads it; "{profile}" is the base run's solve output.
SECOND_VALUES = {
    ("grid", "n"): ("512", "solve"),
    ("grid", "length"): ("30.0", "solve"),
    **{("coupling", k): ("1.1", "solve")
       for k in ("a11", "a12", "a13", "a22", "a23", "a33")},
    ("coupling", "p"): ("2.5", "solve"),
    **{("masses", k): ("1.2", "solve") for k in ("r", "s", "t")},
    ("solver", "max_iters"): ("2", "solve"),
    ("solver", "residual_tol"): ("1e-6", "solve"),
    ("solver", "init_profile"): ("{profile}", "solve"),
    ("evolution", "t"): ("0.2", "evolve"),
    ("evolution", "dt"): ("5e-4", "evolve"),
    ("evolution", "snapshot_every"): ("50", "evolve"),
    ("stability", "kind"): ("random_h1", "stability"),
    ("stability", "delta"): ("2e-3", "stability"),
    ("stability", "eps"): ("0.03", "stability"),
    ("stability", "seeds"): ("1", "stability"),
    ("stability", "sample_every"): ("25", "stability"),
    ("subadd", "splits"): ("0.25,0.5,0.5", "subadd"),
}
SEED_COMMANDS = sorted(name for name, parser in subparsers().items()
                       if "--seed" in flags(parser))


class TestEveryKeyIsRead:
    """A key or flag that is accepted and then ignored fails here: a second
    valid value must change the exit code or the scientific files of the
    command that reads it."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """(run, outcome): `run(sections, command, extra)` runs the command
        on the probe config edited by `sections`; outcome[command] is the
        base config's (exit code, scientific files)."""
        root = tmp_path_factory.mktemp("probe")
        profile = root / "0" / "solve" / "profile.csv"  # the first run's
        probe = {name: dict(rows) for name, rows in FULL_CFG.items()}
        probe["coupling"]["a13"] = "0.8"  # unequal: 10 iterations, not 1
        probe["evolution"]["t"] = "0.1"
        probe["stability"].update(seeds="0", sample_every="50")
        runs = itertools.count()

        def run(edits, command, extra=()):
            d = root / str(next(runs))
            d.mkdir()
            sections = {name: rows | edits.get(name, {}) for name, rows in probe.items()}
            (d / "run.ini").write_text("".join(
                f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in rows.items())
                for name, rows in sections.items()))
            if command == "evolve":
                extra = ["--profile", str(profile), *extra]
            code = main([command, "--config", str(d / "run.ini"),
                         "--out", str(d / command), "--quiet", *extra])
            return code, scientific_files(d / command)

        outcome = {command: run({}, command)
                   for command in ("solve", "evolve", "stability", "subadd")}
        assert all(code == 0 for code, _ in outcome.values())
        return run, outcome, profile

    def test_every_key_is_probed(self):
        assert set(SECOND_VALUES) | {("output", "dir")} == {
            (section, key) for section, (_, rows) in _SCHEMA.items() for key in rows}
        assert SEED_COMMANDS == ["stability"]

    @pytest.mark.parametrize("section, key", sorted(SECOND_VALUES),
                             ids=lambda v: v)
    def test_key_changes_the_run(self, base, section, key):
        run, outcome, profile = base
        value, command = SECOND_VALUES[section, key]
        edited = run({section: {key: value.format(profile=profile)}}, command)
        assert edited != outcome[command]

    @pytest.mark.parametrize("command", SEED_COMMANDS)
    def test_seed_flag_changes_the_run(self, base, command):
        run, outcome, _ = base
        assert run({}, command, ["--seed", "3"]) != outcome[command]


class TestReadme:
    """README's config block and command synopsis list what the code takes."""

    TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def test_config_block_has_the_schema_keys(self):
        block = re.search(r"```ini\n(.*?)```", self.TEXT, re.S).group(1)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                           interpolation=None)
        parser.read_string(block)
        assert {name: set(parser[name]) for name in parser.sections()} == {
            name: set(rows) for name, (_, rows) in _SCHEMA.items()}

    def test_synopsis_lists_each_commands_flags(self):
        block = re.search(r"## Command line\n\n```\n(.*?)```", self.TEXT, re.S).group(1)
        listed = {line.split()[1]: set(re.findall(r"--[a-z]+", line))
                  for line in block.splitlines()}
        assert listed == {name: flags(p) for name, p in subparsers().items()}


class TestSolve:
    def test_single_component_preset(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        gs = json.loads((out / "groundstate.json").read_text())
        assert gs["lambda"] == pytest.approx(-4 / 3, rel=1e-4)
        assert gs["omega"][0] == pytest.approx(1.0, abs=1e-5)
        assert gs["omega"][1] is None and gs["omega"][2] is None
        assert gs["masses"][0] == pytest.approx(4.0, rel=1e-12)
        assert gs["grid"] == {"n": 512, "length": 40.0}
        assert gs["coupling"]["p"] == 2.0
        assert set(gs) == {"lambda", "omega", "residual", "iterations",
                           "masses", "grid", "coupling"}
        # profile file round-trips onto the same grid
        grid = t.make_grid(512, 40.0)
        state = read_profile_csv(out / "profile.csv", grid)
        assert state.masses()[0] == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("command", ["solve", "evolve", "stability", "subadd"])
    def test_deterministic_outputs(self, tmp_path, capsys, command):
        # a rerun writes the same bytes; only --quiet silences the summary
        text, summary = {
            "solve": (BASE, "lambda = "),
            "evolve": (BASE + EVOLVE_EXTRA, "evolved to T = 0.1; "),
            "stability": (STAB_CFG, "seed 1: verdict = bounded"),
            "subadd": (BASE + "\n[subadd]\nsplits = 2,0,0\n",
                       "split (2.0, 0.0, 0.0): margin = ")}[command]
        args = [command, "--config", write_config(tmp_path, text)]
        if command == "evolve":
            assert main(["solve", *args[1:], "--out", str(tmp_path / "gs"),
                         "--quiet"]) == 0
            args += ["--profile", str(tmp_path / "gs" / "profile.csv")]
        quiet, loud = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(quiet), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert main(args + ["--out", str(loud)]) == 0
        assert summary in capsys.readouterr().out
        # timestamps are segregated into metadata.json
        assert (quiet / "metadata.json").exists()
        assert scientific_files(quiet) == scientific_files(loud)

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace(
            TOL_LINE, f"{gaussian_profile(tmp_path)}\nmax_iters = 2"))
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2

    def test_step_collapse_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("r = 4.0", "r = 1e300"))
        with np.errstate(all="ignore"):
            assert main(["solve", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--quiet"]) == 2
        assert "iteration 0" in capsys.readouterr().err

    def test_underflowing_mass_exit_code(self, tmp_path, capsys):
        # at the smallest normal target the solved mass is subnormal: a
        # solver error, not a traceback from the achieved masses' rule
        text = (BASE.replace("r = 4.0", "r = 2.2250738585072014e-308")
                .replace("n = 512", "n = 256").replace("length = 40.0", "length = 10.0"))
        cfg = write_config(tmp_path, text.replace(
            TOL_LINE, gaussian_profile(tmp_path, 256, 10.0)))
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "solve failed: mass r = 2.2250738585072014e-308 underflows")
        # from the default start the same target is a solver error too
        cfg = write_config(tmp_path, text, name="default.ini")
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "d"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("solve failed: ")

    def test_subnormal_mass_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("r = 4.0", "r = 1e-323"))
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: masses.r must be 0 or >= 2.2250738585072014e-308, got 1e-323\n")

    @pytest.mark.parametrize("command, extra", [
        ("stability", "\n[evolution]\nt = 0.1\ndt = 1e-3\n"
         "\n[stability]\ndelta = 1e-3\n"),
        ("subadd", "\n[subadd]\nsplits = 2,0,0\n")], ids=["stability", "subadd"])
    def test_nonconvergence_exit_code_every_command(self, tmp_path, capsys,
                                                    command, extra):
        cfg = write_config(tmp_path, BASE.replace(
            TOL_LINE, f"{gaussian_profile(tmp_path)}\nmax_iters = 2") + extra)
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert "solve failed" in capsys.readouterr().err

    def test_supplied_init_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path)
        first = tmp_path / "first"
        assert main(["solve", "--config", cfg, "--out", str(first), "--quiet"]) == 0
        resume = BASE.replace(
            TOL_LINE,
            f"{TOL_LINE}\ninit_profile = {first / 'profile.csv'}")
        cfg2 = write_config(tmp_path, resume, name="resume.ini")
        out = tmp_path / "second"
        assert main(["solve", "--config", cfg2, "--out", str(out), "--quiet"]) == 0
        gs = json.loads((out / "groundstate.json").read_text())
        assert gs["lambda"] == pytest.approx(-4 / 3, rel=1e-4)

    def test_supplied_init_missing_file(self, tmp_path, capsys):
        broken = BASE.replace(
            TOL_LINE,
            f"{TOL_LINE}\ninit_profile = {tmp_path / 'gone.csv'}")
        cfg = write_config(tmp_path, broken, name="broken.ini")
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1
        assert "init_profile" in capsys.readouterr().err

    def test_supplied_init_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3\n1,2,abc,4,5,6,7\n")
        text = BASE.replace(
            TOL_LINE, f"{TOL_LINE}\ninit_profile = {bad}")
        cfg = write_config(tmp_path, text, name="malformed.ini")
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1
        assert "init_profile" in capsys.readouterr().err

    def test_supplied_init_zero_component(self, tmp_path, capsys):
        # component 2 is identically zero but its mass s is positive
        grid = t.make_grid(512, 40.0)
        u = np.zeros((3, 512), dtype=complex)
        u[0] = np.exp(-grid.nodes ** 2)
        write_profile_csv(tmp_path / "p.csv", t.State.from_array(grid, u))
        text = BASE.replace("s = 0.0", "s = 1.0").replace(
            TOL_LINE, f"{TOL_LINE}\ninit_profile = {tmp_path / 'p.csv'}")
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "solver.init_profile" in err and "identically zero" in err


EVOLVE_EXTRA = """
[evolution]
t = 0.1
dt = 1e-3
snapshot_every = 50
"""


def profile_text(n=512, shift=0.0, cols=7, header=PROFILE_HEADER, length=40.0):
    """A zero profile in the profile.csv layout, with the nodes of an (n,
    length) grid shifted by `shift` and `cols` columns per row."""
    rows = np.zeros((n, cols))
    rows[:, 0] = t.make_grid(n, length).nodes + shift
    return (",".join(header) + "\n"
            + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))


class TestEvolve:
    def make_profile(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "solve_out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        return out / "profile.csv"

    def test_roundtrip_and_trace(self, tmp_path):
        profile = self.make_profile(tmp_path)
        cfg = write_config(tmp_path, BASE + EVOLVE_EXTRA, name="evolve.ini")
        out = tmp_path / "ev"
        assert main(["evolve", "--config", cfg, "--profile", str(profile),
                     "--out", str(out), "--quiet"]) == 0
        lines = [l for l in (out / "trace.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["t", "energy_drift", "mass_drift_1", "mass_drift_2",
                          "mass_drift_3"]
        assert len(lines) == 1 + 101
        last = lines[-1].split(",")
        assert float(last[1]) <= 1e-8
        # snapshots written with an index
        assert (out / "snapshots.csv").exists()
        assert (out / "snapshots" / "snap_000000.csv").exists()

    def test_zero_duration_single_row(self, tmp_path):
        profile = self.make_profile(tmp_path)
        cfg = write_config(tmp_path, BASE + EVOLVE_EXTRA.replace("t = 0.1", "t = 0.0"),
                           name="zero.ini")
        out = tmp_path / "ev0"
        assert main(["evolve", "--config", cfg, "--profile", str(profile),
                     "--out", str(out), "--quiet"]) == 0
        lines = [l for l in (out / "trace.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == 0.0

    def test_grid_mismatch_exit_code(self, tmp_path, capsys):
        profile = self.make_profile(tmp_path)
        bad = BASE.replace("n = 512", "n = 256") + EVOLVE_EXTRA
        cfg = write_config(tmp_path, bad, name="bad.ini")
        assert main(["evolve", "--config", cfg, "--profile", str(profile),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert "rows" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["evolve", "init_profile"])
    @pytest.mark.parametrize("content, words", [
        ("", "header"),
        ("# comments only\n# no header\n", "header"),
        (profile_text(header=PROFILE_HEADER[:-1] + ["im_u4"]), "header"),
        (profile_text(n=256), "rows"),
        (profile_text(shift=0.5), "node positions"),
        # node gaps up to 1.5e-4 (0.2% of h), inside numpy's default rtol
        (profile_text(length=40.0003), "node positions"),
        (profile_text(cols=9), "columns"),
        (profile_text().replace(",0.0\n", ",abc\n", 1), "convert string 'abc'"),
        (profile_text().replace(",0.0\n", "\n", 1), "number of columns changed"),
        (profile_text().replace(",0.0\n", ",nan\n", 1), "non-finite"),
        (profile_text().replace(",0.0\n", ",-inf\n", 1), "non-finite"),
        (",".join(PROFILE_HEADER) + "\n", "rows"),
        # only LF, CRLF and a lone CR end a line: one long line has no header
        (profile_text().replace("\n", "\f"), "header"),
        (profile_text().replace("\n", "\u2028"), "header"),
        # a header name is bare or in double quotes, with nothing around it
        (profile_text().replace("x,re_u1,", "x, re_u1,"), "header"),
        (profile_text().replace("x,re_u1,", 'x,"re_u1,'), "unexpected header"),
        (profile_text().replace("im_u3\n", "im_u3\0\n"), "unexpected header"),
    ], ids=["empty", "comments-only", "header", "rows", "nodes", "length",
            "columns", "non-numeric", "ragged", "nan", "inf", "no-rows",
            "form-feeds", "line-separators", "padded-header", "stray-quote",
            "nul-header"])
    def test_bad_profile_exit_code(self, tmp_path, capsys, route, content, words):
        path = tmp_path / "bad.csv"
        path.write_bytes(content.encode())  # the reader decodes UTF-8
        if route == "evolve":
            cfg = write_config(tmp_path, BASE + EVOLVE_EXTRA, name="e.ini")
            argv = ["evolve", "--config", cfg, "--profile", str(path)]
        else:
            cfg = write_config(tmp_path, BASE.replace(
                TOL_LINE, f"{TOL_LINE}\ninit_profile = {path}"))
            argv = ["solve", "--config", cfg]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. numpy's "input contained no data"
            assert main(argv + ["--out", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert words in err and f"profile file {path}" in err

    @pytest.mark.parametrize("edit", [
        lambda text: text,
        lambda text: text.replace("\r\n", "\n"),
        lambda text: text.replace(",", ", ").replace(", ".join(PROFILE_HEADER),
                                                     ",".join(PROFILE_HEADER)),
        lambda text: "\r\n".join(
            line if line.startswith(("#", "x,")) or not line
            else ",".join(f'"{cell}"' for cell in line.split(","))
            for line in text.split("\r\n")),
        lambda text: "\n" + text.replace("\r\n", "\r\n\r\n") + "\n\n",
        lambda text: text.replace("\r\n", "\n").replace("\n", "\r"),
        lambda text: text.replace(",".join(PROFILE_HEADER),
                                  ",".join(f'"{h}"' for h in PROFILE_HEADER)),
        lambda text: text.replace("im_u3\r\n", "im_u3# names\r\n"),
    ], ids=["crlf", "lf", "spaces", "quoted", "blank-lines", "cr",
            "quoted-header", "header-comment"])
    def test_accepted_profile_forms(self, tmp_path, edit):
        grid = t.make_grid(16, 4.0)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        u[0, 0] = complex(-0.0, 1.0)
        write_profile_csv(tmp_path / "p.csv", t.State.from_array(grid, u))
        path = tmp_path / "edited.csv"
        path.write_text(edit((tmp_path / "p.csv").read_bytes().decode()), newline="")
        back = read_profile_csv(path, grid).stack()
        assert np.array_equal(back.view(np.uint64), u.view(np.uint64))

    def test_mixed_format_profile_keeps_every_bit(self, tmp_path):
        # one file with every accepted form: plain, quoted and space-padded
        # cells, LF and CRLF, blank, space-only and `#` lines
        grid = t.make_grid(16, 4.0)
        pool = [-0.0, 5e-324, 1 / 3, -1e300, 0.1, 2.2250738585072014e-308, -7.0]
        want = np.array([[x, *(pool[(i + j) % 7] * (i + 1) for j in range(6))]
                         for i, x in enumerate(grid.nodes)])
        lines = ["# written by hand", ",".join(PROFILE_HEADER)]
        for i, row in enumerate(want.tolist()):
            cells = [repr(v) for v in row]
            if i % 4 == 1:
                cells = [f'"{c}"' for c in cells]
            lines.append((", " if i % 4 == 2 else ",").join(cells))
            lines += [["   ", "", "# a comment", "  # indented"][i % 4]] if i else []
        text = "".join(line + ("\r\n" if k % 2 else "\n") for k, line in enumerate(lines))
        path = tmp_path / "mixed.csv"
        path.write_bytes(text.encode())
        back = read_profile_csv(path, grid).stack()
        parts = np.stack([back.real, back.imag], axis=1).reshape(6, -1).T
        assert np.array_equal(parts.view(np.uint64), want[:, 1:].view(np.uint64))

    def test_missing_profile_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, BASE + EVOLVE_EXTRA, name="e.ini")
        assert main(["evolve", "--config", cfg, "--profile",
                     str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1

    def test_blow_up_exit_code_with_partial_trace(self, tmp_path):
        # overflow via p = 2.5 and an astronomically scaled profile
        grid = t.make_grid(512, 40.0)
        huge = np.full((3, 512), 1e200, dtype=complex)
        huge *= np.exp(-grid.nodes ** 2)[None, :]
        write_profile_csv(tmp_path / "huge.csv", t.State.from_array(grid, huge))
        cfg = write_config(tmp_path, BASE.replace("p = 2.0", "p = 2.5")
                           + EVOLVE_EXTRA, name="blow.ini")
        out = tmp_path / "bl"
        with np.errstate(all="ignore"):
            code = main(["evolve", "--config", cfg, "--profile",
                         str(tmp_path / "huge.csv"), "--out", str(out), "--quiet"])
        assert code == 3
        assert (out / "trace.csv").exists()


WRITER_CFG = BASE.replace("p = 2.0", "p = 2.5").replace("a12 = 1.0", "a12 = 0.7") + """
[evolution]
t = 0.1
dt = 1e-3
snapshot_every = 5
"""


def in_process_evolve(cfg_path, profile, out):
    """The files `trinls evolve` writes, with each snapshot written by a
    `sample` hook of the test's own: the reference for the command."""
    from trinls.cli import _write_csv, write_trace_csv
    cfg = load_config(cfg_path)
    ev = cfg.evolution
    (out / "snapshots").mkdir(parents=True)
    names, times = [], []

    def sample(when, state):
        names.append(f"snap_{len(names):06d}.csv")
        times.append(when)
        write_profile_csv(out / "snapshots" / names[-1], state)

    try:
        trace = t.evolve(read_profile_csv(profile, cfg.grid), ev["t"], ev["dt"],
                         cfg.model, snapshot_every=ev["snapshot_every"],
                         sample=sample)
    except t.BlowUpError as err:
        trace = err.trace
    write_trace_csv(out / "trace.csv", trace)
    _write_csv(out / "snapshots.csv", ["t", "file"], [times, names])


class TestSnapshotWriter:
    """`trinls evolve` writes each snapshot, in the command's process, as
    the time loop samples it."""

    @pytest.fixture()
    def run(self, tmp_path):
        grid = t.make_grid(512, 40.0)
        x = grid.nodes
        u = np.stack([np.exp(-(x - 0.3 * j) ** 2 / 2 + 0.4j * j * x) for j in range(3)])
        u[1, 0] = complex(-0.0, 0.0)
        profile = tmp_path / "p.csv"
        write_profile_csv(profile, t.State.from_array(grid, u))
        cfg = write_config(tmp_path, WRITER_CFG)

        def run(out):
            return main(["evolve", "--config", cfg, "--profile", str(profile),
                         "--out", str(out), "--quiet"])
        return run, cfg, profile

    def test_outputs_match_in_process_writer(self, tmp_path, run):
        run, cfg, profile = run
        assert run(tmp_path / "fork") == 0
        in_process_evolve(cfg, profile, tmp_path / "ref")
        files = scientific_files(tmp_path / "fork")
        assert len(files) == 2 + 21  # trace, index, snapshots at 0, 5, ..., 100
        assert files == scientific_files(tmp_path / "ref")

    def test_blow_up_keeps_samples_before_it(self, tmp_path, run, monkeypatch,
                                             capsys):
        # an infinite rate on step 13: snapshots at steps 0, 5 and 10 remain
        from trinls import evolution
        run, cfg, profile = run
        calls = []

        def rates(u, a, p):
            calls.append(None)
            theta = evolution._coefficients(u, a, p) * np.abs(u) ** (p - 2)
            if len(calls) == 13:
                theta[1, 100] = np.inf
            return theta

        monkeypatch.setattr(evolution, "_phase_coefficient", rates)
        with np.errstate(invalid="ignore"):
            assert run(tmp_path / "fork") == 3
            calls.clear()
            in_process_evolve(cfg, profile, tmp_path / "ref")
        assert "blow-up: non-finite state at t = 0.013" in capsys.readouterr().err
        files = scientific_files(tmp_path / "fork")
        assert sorted(map(str, files)) == [
            "snapshots.csv", "snapshots/snap_000000.csv",
            "snapshots/snap_000001.csv", "snapshots/snap_000002.csv", "trace.csv"]
        assert files == scientific_files(tmp_path / "ref")

    @pytest.mark.parametrize("bad", [2, 20], ids=["mid-run", "last"])
    def test_writer_failure_is_reported(self, tmp_path, run, capsys, bad):
        # snapshot `bad` cannot be written: a directory holds its name, and
        # the run ends at that sample
        run, _, _ = run
        out = tmp_path / "fork"
        (out / "snapshots" / f"snap_{bad:06d}.csv").mkdir(parents=True)
        assert run(out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ")
        assert f"snap_{bad:06d}.csv" in err
        assert not (out / "trace.csv").exists()

    def test_interrupt_is_not_a_writer_failure(self, tmp_path, run):
        # Ctrl-C reaches the whole process group, and the command reports
        # its KeyboardInterrupt; no process of its group is left behind
        _, _, profile = run
        cfg = write_config(tmp_path, WRITER_CFG.replace("t = 0.1", "t = 1000.0")
                           .replace("snapshot_every = 5", "snapshot_every = 200"),
                           name="long.ini")
        out = tmp_path / "long"
        proc = subprocess.Popen(
            [sys.executable, "-m", "trinls.cli", "evolve", "--config", cfg,
             "--profile", str(profile), "--out", str(out), "--quiet"],
            env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not (out / "snapshots" / "snap_000001.csv").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert "KeyboardInterrupt" in err and "snapshot writer failed" not in err
        with pytest.raises(ProcessLookupError):  # the whole group is gone
            os.killpg(proc.pid, 0)

    def test_writes_without_forking(self, tmp_path, run, monkeypatch):
        def no_fork():
            raise AssertionError("evolve forked")

        monkeypatch.setattr(os, "fork", no_fork)
        run, _, _ = run
        assert run(tmp_path / "o") == 0
        assert len(scientific_files(tmp_path / "o")) == 2 + 21

    def test_no_writer_without_snapshots(self, tmp_path, run):
        run, cfg, profile = run
        path = tmp_path / "quiet.ini"
        path.write_text(WRITER_CFG.replace("snapshot_every = 5", "snapshot_every = 0"))
        assert main(["evolve", "--config", str(path), "--profile", str(profile),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert sorted(map(str, scientific_files(tmp_path / "o"))) == ["trace.csv"]


class TestSubadd:
    def test_single_component_split(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "\n[subadd]\nsplits = 2,0,0\n",
                           name="sub.ini")
        out = tmp_path / "sub"
        assert main(["subadd", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = [l for l in (out / "margins.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["margin"]) == pytest.approx(-1.0, abs=2e-4)
        assert row["inconclusive"] == "False"

    @pytest.mark.parametrize("splits", ["2,0,0 ; 1,0,0", "2,0,0;1,0,0"])
    def test_every_split_is_kept(self, tmp_path, splits):
        cfg = write_config(tmp_path, BASE + f"\n[subadd]\nsplits = {splits}\n",
                           name="sub.ini")
        out = tmp_path / "sub"
        assert main(["subadd", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = [l for l in (out / "margins.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [r.split(",")[0] for r in rows] == ["2.0", "1.0"]

    def test_total_solved_once(self, tmp_path, monkeypatch):
        import trinls.cli as cli
        import trinls.ground_state as gs_mod
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return minimize(*args, **kwargs)

        minimize = gs_mod.minimize
        monkeypatch.setattr(gs_mod, "minimize", counting)
        monkeypatch.setattr(cli, "minimize", counting)
        cfg = write_config(tmp_path, BASE + "\n[subadd]\nsplits = 2,0,0 ; 1,0,0 ; 3,0,0\n",
                           name="sub.ini")
        assert main(["subadd", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        assert len(calls) == 1 + 2 * 3
        assert calls.count(t.MassTriple(4.0, 0.0, 0.0)) == 1

    def test_failed_part_solve_names_split(self, tmp_path, capsys, monkeypatch):
        import trinls.cli as cli

        def failing(*args, **kwargs):
            raise t.ConvergenceError("no convergence in 2 iterations")

        monkeypatch.setattr(cli, "subadditivity_check", failing)
        cfg = write_config(tmp_path, BASE + "\n[subadd]\nsplits = 2,0,0\n",
                           name="sub.ini")
        assert main(["subadd", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "split (2.0, 0.0, 0.0): no convergence in 2 iterations" in err

    def test_split_exceeding_total_rejected(self, tmp_path, capsys):
        # the total has no s; on a total s = 1e-13, 3e-13 is mass, not round-off
        small = BASE.replace("r = 4.0\ns = 0.0", "r = 1.0\ns = 1e-13")
        for base, splits in ((BASE, "5,0,0"), (BASE, "2,1e-13,0"),
                             (small, "0.5,3e-13,0")):
            cfg = write_config(tmp_path, base + f"\n[subadd]\nsplits = {splits}\n",
                               name="sub2.ini")
            assert main(["subadd", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--quiet"]) == 1
            assert "exceeds total masses" in capsys.readouterr().err
        # a one-ulp overshoot is round-off: its second part takes no s
        over = float(np.nextafter(1e-13, 1.0))
        cfg = write_config(tmp_path, small + f"\n[subadd]\nsplits = 0.5,{over!r},0\n",
                           name="sub2.ini")
        (split, part1, part2), = load_config(cfg).subadd
        assert part1 == t.MassTriple(0.5, over, 0.0)
        assert part2 == t.MassTriple(0.5, 0.0, 0.0)

    @pytest.mark.parametrize("command", ["solve", "subadd"])
    def test_splits_judged_at_load(self, tmp_path, capsys, command):
        # a bad split fails every command at load time, before any solve
        cfg = write_config(tmp_path, BASE + "\n[subadd]\nsplits = 9,0,0\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: subadd.splits: invalid split (9.0, 0.0, 0.0): "
                       "exceeds total masses\n")
        assert "exceeds total masses" in err
        assert not (tmp_path / "o").exists()

    def test_split_taking_all_mass_rejected(self, tmp_path, capsys):
        # the remainder 0,0,0 carries no mass: not a valid second part
        cfg = write_config(tmp_path, BASE + "\n[subadd]\nsplits = 4,0,0\n",
                           name="sub3.ini")
        assert main(["subadd", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1
        assert "invalid split" in capsys.readouterr().err


STAB_CFG = """\
[grid]
n = 512
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

[evolution]
t = 1.0
dt = 1e-3
snapshot_every = 0

[stability]
kind = mass_preserving_random
delta = 1e-3
seeds = 0,1
sample_every = 250
"""


class TestStability:
    def test_reports_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, STAB_CFG, name="stab.ini")
        out = tmp_path / "st"
        assert main(["stability", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        for seed in (0, 1):
            rep = json.loads((out / f"report_seed{seed}.json").read_text())
            assert rep["verdict"] == "bounded"
            assert rep["eps"] == pytest.approx(0.02)
            assert len(rep["times"]) == len(rep["distances"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_bounded"] is True
        assert set(summary["verdicts"]) == {"0", "1"}

    def test_blow_up_verdict_exit_code(self, tmp_path, monkeypatch, capsys):
        import trinls.cli as cli

        def blown(gs, model, kind, delta, T, dt, sample_every, eps, seed):
            trace = t.EvolutionTrace(times=np.zeros(1), energy_drift=np.zeros(1),
                                     mass_drifts=np.zeros((1, 3)))
            return t.StabilityReport(delta=delta, eps=1.0, kind=kind, seed=seed,
                                     sup_distance=0.0, verdict="blow_up",
                                     trace=trace, distances=np.zeros(1))

        monkeypatch.setattr(cli, "stability_experiment", blown)
        cfg = write_config(tmp_path, STAB_CFG, name="stab.ini")
        out = tmp_path / "st"
        assert main(["stability", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdicts"] == {"0": "blow_up", "1": "blow_up"}
        assert summary["all_bounded"] is False
        for seed in (0, 1):
            rep = json.loads((out / f"report_seed{seed}.json").read_text())
            assert rep["verdict"] == "blow_up"
        assert capsys.readouterr().err == (
            "blow-up: non-finite state with stability seeds 0, 1\n")


class TestValidate:
    def test_validate_passes(self, tmp_path, capsys):
        out = tmp_path / "val"
        assert main(["validate", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text
        report = json.loads((out / "validate.json").read_text())
        assert report["all_passed"] is True
        assert len(report["checks"]) == 7

    def test_validate_quiet_prints_only_failures(self, monkeypatch, capsys):
        import trinls.cli as cli
        monkeypatch.setattr(
            cli, "_validate_checks",
            lambda: iter([("fine", True, "ok"), ("forced", False, "bad")]))
        assert main(["validate", "--quiet"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["FAIL  forced: bad"]

    def test_validate_diverging_polish_exit_code(self, monkeypatch, capsys):
        import trinls.cli as cli

        def diverging():
            raise t.DivergenceError("no fixed-point convergence in 600 sweeps")
            yield

        monkeypatch.setattr(cli, "_validate_checks", diverging)
        assert main(["validate"]) == 2
        assert "solve failed" in capsys.readouterr().err

    def test_validate_failure_exit_code(self, monkeypatch, capsys):
        import trinls.cli as cli
        monkeypatch.setattr(
            cli, "_validate_checks",
            lambda: iter([("forced", False, "synthetic failure")]))
        assert main(["validate"]) == 4
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert captured.err == ("validation failed: 1 of 1 checks failed: "
                                "forced\n")


class TestWriters:
    """The array writers keep the bytes of per-element repr formatting."""

    @staticmethod
    def reference_rows(cols):
        import csv
        import io
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        for m in range(len(cols[0])):
            writer.writerow([repr(float(c[m])) for c in cols])
        return buf.getvalue()

    def test_profile_bytes(self, tmp_path):
        grid = t.make_grid(16, 4.0)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        u[0, :3] = [0.0, complex(-0.0, -0.0), complex(1e-300, -1e-300)]
        u[1, 3] = complex(1 / 3, -2 / 3) * 1e17
        write_profile_csv(tmp_path / "p.csv", t.State.from_array(grid, u))
        cols = [grid.nodes]
        for j in range(3):
            cols += [u[j].real, u[j].imag]
        head = ("# dimensionless units; one row per grid node, ordered by x\n"
                "x,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3\r\n")
        expected = head + self.reference_rows(cols)
        assert (tmp_path / "p.csv").read_bytes() == expected.encode()

    def test_trace_bytes(self, tmp_path):
        from trinls.cli import write_trace_csv
        times = np.arange(4) * 1e-3
        e = np.array([0.0, 1e-300, 3.5e-11, 1 / 7])
        m = np.array([[0.0, -0.0, 0.0], [1e-16, 0.0, 2e-15],
                      [3e-14, 0.0, 1 / 3], [5e-13, 0.0, 7e-12]])
        trace = t.EvolutionTrace(times=times, energy_drift=e, mass_drifts=m)
        write_trace_csv(tmp_path / "trace.csv", trace)
        head = ("# dimensionless units; drifts are relative to t = 0\n"
                "t,energy_drift,mass_drift_1,mass_drift_2,mass_drift_3\r\n")
        expected = head + self.reference_rows([times, e, m[:, 0], m[:, 1], m[:, 2]])
        assert (tmp_path / "trace.csv").read_bytes() == expected.encode()

    @staticmethod
    def check_csv(path, comment, header, rows):
        """`path` holds the bytes the csv module writes for these cell strings,
        and csv.reader reads the same strings back."""
        buf = io.StringIO(newline="")
        if comment is not None:
            buf.write(f"# {comment}\n")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        assert path.read_bytes() == buf.getvalue().encode()
        with open(path, newline="") as fh:
            assert list(csv.reader(l for l in fh if not l.startswith("#"))) == [
                header, *rows]

    @staticmethod
    def wild(rng, shape):
        """Normal samples scaled by 10^k, k in [-300, 300), every 97th one -0.0."""
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        x.flat[::97] = -0.0
        return x

    def test_trace_across_block_boundary(self, tmp_path):
        from trinls.cli import write_trace_csv
        rng = np.random.default_rng(7)
        cols = self.wild(rng, (5, _BLOCK + 1))
        write_trace_csv(tmp_path / "trace.csv", t.EvolutionTrace(
            times=cols[0], energy_drift=cols[1], mass_drifts=cols[2:].T))
        cells = [list(map(repr, row)) for row in cols.T.tolist()]
        self.check_csv(tmp_path / "trace.csv",
                       "dimensionless units; drifts are relative to t = 0",
                       ["t", "energy_drift", "mass_drift_1", "mass_drift_2",
                        "mass_drift_3"], cells)

    @pytest.mark.parametrize("n", [16, 4096])
    def test_profile_across_block_boundaries(self, tmp_path, n):
        grid = t.make_grid(n, 80.0)
        rng = np.random.default_rng(n)
        parts = self.wild(rng, (6, n))
        u = np.empty((3, n), dtype=complex)
        u.real, u.imag = parts[0::2], parts[1::2]  # keeps -0.0 where + 1j* would not
        write_profile_csv(tmp_path / "p.csv", t.State.from_array(grid, u))
        rows = np.vstack([grid.nodes, parts]).T.tolist()
        cells = [list(map(repr, row)) for row in rows]
        self.check_csv(tmp_path / "p.csv",
                       "dimensionless units; one row per grid node, ordered by x",
                       PROFILE_HEADER, cells)

    def test_snapshot_index_and_margins_bytes(self, tmp_path):
        grid = t.make_grid(512, 40.0)
        u = np.zeros((3, 512), dtype=complex)
        u[0] = np.exp(-grid.nodes ** 2)
        write_profile_csv(tmp_path / "p.csv", t.State.from_array(grid, u))
        cfg = write_config(tmp_path, BASE + EVOLVE_EXTRA + "[subadd]\nsplits = 2,0,0\n")
        assert main(["evolve", "--config", cfg, "--profile", str(tmp_path / "p.csv"),
                     "--out", str(tmp_path / "ev"), "--quiet"]) == 0
        self.check_csv(tmp_path / "ev" / "snapshots.csv", None, ["t", "file"],
                       [[repr(s * 1e-3), f"snap_{i:06d}.csv"]
                        for i, s in enumerate((0, 50, 100))])
        assert main(["subadd", "--config", cfg, "--out", str(tmp_path / "sub"),
                     "--quiet"]) == 0
        path = tmp_path / "sub" / "margins.csv"
        with open(path, newline="") as fh:
            row = list(csv.reader(fh))[2]
        assert row[-1] in ("True", "False")
        self.check_csv(path, "dimensionless units; margin = lambda(total) - "
                       "lambda(p1) - lambda(p2)",
                       ["r1", "s1", "t1", "r2", "s2", "t2", "lambda_total",
                        "lambda_part1", "lambda_part2", "margin", "tolerance",
                        "inconclusive"],
                       [[repr(float(v)) for v in row[:-1]] + row[-1:]])

    def test_trace_of_blocks_near_round_off(self, tmp_path):
        # drifts of a few ulps: exact multiples of 2^-53 and values near 1e-17
        from trinls.cli import write_trace_csv
        rng = np.random.default_rng(29)
        rows = 3 * _BLOCK + 17
        drifts = rng.random((rows, 4)) * 10.0 ** rng.integers(-18, -15, (rows, 4))
        drifts[::5] = rng.integers(0, 40, (len(drifts[::5]), 4)) * 2.0 ** -53
        drifts[0] = 0.0
        times = np.arange(rows) * 1e-3
        write_trace_csv(tmp_path / "trace.csv", t.EvolutionTrace(
            times=times, energy_drift=drifts[:, 0], mass_drifts=drifts[:, 1:]))
        cells = [list(map(repr, row)) for row in np.column_stack([times, drifts]).tolist()]
        self.check_csv(tmp_path / "trace.csv",
                       "dimensionless units; drifts are relative to t = 0",
                       ["t", "energy_drift", "mass_drift_1", "mass_drift_2",
                        "mass_drift_3"], cells)

    def test_snapshot_index_bytes(self, tmp_path):
        # the index's float column beside a text column, across blocks
        from trinls.cli import _snap_name, _write_csv
        times = [s * -1e-3 for s in range(0, 50 * (_BLOCK + 3), 50)]
        names = [_snap_name(i) for i in range(len(times))]
        _write_csv(tmp_path / "snapshots.csv", ["t", "file"], [times, names])
        self.check_csv(tmp_path / "snapshots.csv", None, ["t", "file"],
                       [[repr(s), name] for s, name in zip(times, names)])

    def test_margins_bytes(self, tmp_path):
        # float columns beside the bool `inconclusive`, as cmd_subadd writes them
        from trinls.cli import _write_csv
        rng = np.random.default_rng(31)
        floats = self.wild(rng, (40, 11)).tolist()
        rows = [(*row, bool(i % 3)) for i, row in enumerate(floats)]
        header = ["r1", "s1", "t1", "r2", "s2", "t2", "lambda_total", "lambda_part1",
                  "lambda_part2", "margin", "tolerance", "inconclusive"]
        _write_csv(tmp_path / "margins.csv", header, list(zip(*rows)), "margins")
        self.check_csv(tmp_path / "margins.csv", "margins", header,
                       [[*map(repr, row[:-1]), str(row[-1])] for row in rows])

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(arrays(np.float64, (2, 3, 16), elements=st.floats(
        -1e300, 1e300, allow_nan=False, allow_infinity=False)))
    @example(np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                       1e300, -1e300, 1 / 3] * 12).reshape(2, 3, 16))
    def test_profile_round_trip_is_exact(self, tmp_path_factory, parts):
        grid = t.make_grid(16, 4.0)
        u = np.empty((3, 16), dtype=complex)
        u.real, u.imag = parts
        path = tmp_path_factory.mktemp("rt") / "p.csv"
        write_profile_csv(path, t.State.from_array(grid, u))
        back = read_profile_csv(path, grid).stack()
        assert np.array_equal(back.view(np.uint64), u.view(np.uint64))
