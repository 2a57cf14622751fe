"""CLI contracts: config validation, file formats, exit codes, determinism."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import trinls as t
from trinls.cli import (_SCHEMA, ConfigError, RunConfig, load_config, main,
                        read_profile_csv)

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
seed = 0
"""


# every schema key but solver.init_profile, which needs init = supplied
FULL_CFG = {
    "grid": {"n": "256", "length": "40.0"},
    "coupling": {k: "1.0" for k in ("a11", "a12", "a13", "a22", "a23", "a33")}
    | {"p": "2.0"},
    "masses": {"r": "1.0", "s": "1.0", "t": "1.0"},
    "solver": {"tau": "1.0", "max_iters": "50", "residual_tol": "5e-12",
               "energy_tol": "1e-12", "seed": "0", "init": "gaussian_bumps",
               "scheme": "preconditioned", "noise": "0.0"},
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


class TestConfigValidation:
    def test_invalid_exponent_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("p = 2.0", "p = 3.5"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "coupling" in err and "exponent" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "\n[solver]\nbogus = 1\n")
        # configparser raises on duplicate section; use a fresh unknown key
        cfg = write_config(tmp_path, BASE.replace("seed = 0", "seed = 0\nbogus = 1"))
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
        ("solver.max_iters", BASE.replace("seed = 0", "max_iters = many")),
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
        ("solver.seed", BASE.replace("seed = 0", "seed = -1")),
        ("stability.seeds", BASE + "\n[stability]\ndelta = 1e-3\nseeds = -1\n"),
        ("solver.noise", BASE.replace("seed = 0", "seed = 0\nnoise = -1")),
        ("solver.max_iters", BASE.replace("seed = 0", "seed = 0\nmax_iters = 0")),
        ("solver.init_profile", BASE.replace("seed = 0",
                                             "seed = 0\ninit_profile = x.csv")),
        ("solver.init_profile", BASE.replace("seed = 0", "seed = 0\ninit = supplied")),
        ("evolution.t", BASE + "\n[evolution]\nt = 1e300\ndt = 1e-3\n"),
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

    @pytest.mark.parametrize("command", ["solve", "stability"])
    def test_negative_seed_flag_names_flag(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, STAB_CFG)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_unparsable_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("seed = 0", "seed = 0\nseed = 1"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section", [
        ("evolve", "[evolution]"), ("stability", "[stability]"),
        ("subadd", "[subadd]")])
    def test_command_without_its_section(self, tmp_path, capsys, command, section):
        cfg = write_config(tmp_path)
        extra = ["--profile", str(tmp_path / "p.csv")] if command == "evolve" else []
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]
                    + extra) == 1
        assert section in capsys.readouterr().err

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

    @pytest.mark.parametrize("section, line", [
        ("solver", "rearrange_every = 25"),
        ("solver", "refine = true"),
        ("output", "formats = json,csv"),
    ])
    def test_removed_keys_rejected(self, tmp_path, capsys, section, line):
        text = (BASE.replace("seed = 0", f"seed = 0\n{line}") if section == "solver"
                else BASE + f"\n[output]\n{line}\n")
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert line.split(" = ")[0] in capsys.readouterr().err


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

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        for name in ("groundstate.json", "profile.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # timestamps are segregated into metadata.json
        assert (out1 / "metadata.json").exists()

    def test_seed_override_changes_metadata_not_result(self, tmp_path):
        # different seeds still converge to the same minimizer
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["solve", "--config", cfg, "--out", str(out1), "--quiet",
                     "--seed", "1"]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2), "--quiet",
                     "--seed", "2"]) == 0
        a = json.loads((out1 / "groundstate.json").read_text())
        b = json.loads((out2 / "groundstate.json").read_text())
        assert a["lambda"] == pytest.approx(b["lambda"], rel=1e-9)

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace(
            "seed = 0", "seed = 0\nmax_iters = 2"))
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2

    @pytest.mark.parametrize("command, extra", [
        ("stability", "\n[evolution]\nt = 0.1\ndt = 1e-3\n"
         "\n[stability]\ndelta = 1e-3\n"),
        ("subadd", "\n[subadd]\nsplits = 2,0,0\n")])
    def test_nonconvergence_exit_code_every_command(self, tmp_path, capsys,
                                                    command, extra):
        cfg = write_config(tmp_path, BASE.replace(
            "seed = 0", "seed = 0\nmax_iters = 2") + extra)
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert "solve failed" in capsys.readouterr().err

    def test_supplied_init_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path)
        first = tmp_path / "first"
        assert main(["solve", "--config", cfg, "--out", str(first), "--quiet"]) == 0
        resume = BASE.replace(
            "seed = 0",
            f"seed = 0\ninit = supplied\ninit_profile = {first / 'profile.csv'}")
        cfg2 = write_config(tmp_path, resume, name="resume.ini")
        out = tmp_path / "second"
        assert main(["solve", "--config", cfg2, "--out", str(out), "--quiet"]) == 0
        gs = json.loads((out / "groundstate.json").read_text())
        assert gs["lambda"] == pytest.approx(-4 / 3, rel=1e-4)

    def test_supplied_init_missing_file(self, tmp_path, capsys):
        broken = BASE.replace(
            "seed = 0",
            f"seed = 0\ninit = supplied\ninit_profile = {tmp_path / 'gone.csv'}")
        cfg = write_config(tmp_path, broken, name="broken.ini")
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1
        assert "init_profile" in capsys.readouterr().err

    def test_supplied_init_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3\n1,2,abc,4,5,6,7\n")
        text = BASE.replace(
            "seed = 0", f"seed = 0\ninit = supplied\ninit_profile = {bad}")
        cfg = write_config(tmp_path, text, name="malformed.ini")
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1
        assert "init_profile" in capsys.readouterr().err


EVOLVE_EXTRA = """
[evolution]
t = 0.1
dt = 1e-3
snapshot_every = 50
"""


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
        from trinls.cli import write_profile_csv
        write_profile_csv(tmp_path / "huge.csv", t.State.from_array(grid, huge))
        cfg = write_config(tmp_path, BASE.replace("p = 2.0", "p = 2.5")
                           + EVOLVE_EXTRA, name="blow.ini")
        out = tmp_path / "bl"
        with np.errstate(all="ignore"):
            code = main(["evolve", "--config", cfg, "--profile",
                         str(tmp_path / "huge.csv"), "--out", str(out), "--quiet"])
        assert code == 3
        assert (out / "trace.csv").exists()


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

    def test_split_exceeding_total_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "\n[subadd]\nsplits = 5,0,0\n",
                           name="sub2.ini")
        assert main(["subadd", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1
        assert "exceeds" in capsys.readouterr().err


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

    def test_validate_failure_exit_code(self, monkeypatch, capsys):
        import trinls.cli as cli
        monkeypatch.setattr(
            cli, "_validate_checks",
            lambda: iter([("forced", False, "synthetic failure")]))
        assert main(["validate"]) == 4
        assert "FAIL" in capsys.readouterr().out


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
        from trinls.cli import write_profile_csv
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
