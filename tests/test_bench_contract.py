"""The benchmark's traced run wraps trinls names by (module, attribute).

A simplification that drops or renames one of them breaks the traced
benchmark; the first test makes it fail in the suite instead.  The list is
read from bench/tracing.py, which is loaded as a plain file and not modified.
The benchmark also counts work by calls through those names: a flow
iteration or a polish sweep is one `ground_state._nonlinearity` call and a
time step one `evolution._coefficients` call.  The other tests pin those
counts, so that, e.g., a record that called `_coefficients` through
`evolution` would fail here rather than double the benchmark's step count,
and the two transform calls per step that `evolution`'s docstring states.
The last test runs a short traced benchmark of each workload end to end: a
traced run wraps every boundary and drives all four CLI commands
in-process, which a timed run does not.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import trinls as t
import trinls.evolution as evolution
import trinls.ground_state as ground_state
import trinls.model as model

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr in tracing.BOUNDARIES
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert tracing.BOUNDARIES and missing == []


def count_calls(monkeypatch, module, name):
    """Wrap module.name with a counter; returns the list it appends to."""
    calls, inner = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("record_every, snapshot_every", [(1, 0), (7, 3)])
def test_one_coefficients_call_per_step(monkeypatch, gs_equal, model_ones,
                                        record_every, snapshot_every):
    calls = count_calls(monkeypatch, evolution, "_coefficients")
    t.evolve(gs_equal.profile, 0.05, 1e-3, model_ones,
             snapshot_every=snapshot_every, record_every=record_every,
             sample=lambda time, state: None)
    assert len(calls) == 50


@pytest.mark.parametrize("record_every, snapshot_every", [(1, 0), (7, 3)])
def test_two_transform_calls_per_step(monkeypatch, gs_equal, model_ones,
                                      record_every, snapshot_every):
    # the start's pair, then one forward and one inverse call per step; the
    # record passes its spectrum to the model, which transforms nothing
    calls = [count_calls(monkeypatch, module, name)
             for module in (evolution, model) for name in ("fft", "ifft")]
    t.evolve(gs_equal.profile, 0.05, 1e-3, model_ones,
             snapshot_every=snapshot_every, record_every=record_every,
             sample=lambda time, state: None)
    assert [len(c) for c in calls] == [51, 51, 0, 0]


def test_one_nonlinearity_call_per_sweep_and_iteration(monkeypatch, grid40,
                                                       model_ones):
    calls = count_calls(monkeypatch, ground_state, "_nonlinearity")
    for masses in (t.MassTriple(4 / 3, 4 / 3, 4 / 3), t.MassTriple(4.0, 0.0, 0.0)):
        calls.clear()
        gs = t.minimize(model_ones, masses, grid40)
        assert len(calls) == gs.iterations + 1
        rough = t.minimize(model_ones, masses, grid40,
                           t.SolverConfig(residual_tol=1e-6))
        calls.clear()
        polished = t.refine_fixed_point(rough.profile, model_ones, masses)
        assert len(calls) == polished.iterations > 1


@pytest.mark.parametrize("workload", ["ensemble", "solve_sweep", "cli_wide"])
def test_traced_benchmark_run_is_correct(workload):
    # 5-8 s each on a 2-vCPU machine; the run removes its own work folder
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stderr
