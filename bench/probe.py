"""Per-layer probe of the traced run.

Two parts, both independent of the workload seed:

* `kernel_timings` times single public calls (FFT pair, energy, multipliers,
  residual, Strang step, warm orbital distance) at n in {256, 1024, 4096}
  with tracing off, as the median of five batches.
* `traced_battery` runs, with tracing on, a small solve/subadd/CLI round so
  that every layer has spans on every workload, including layers the
  workload's own passes never call.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.fft import fft, ifft

import trinls.cli as cli
import trinls.evolution as evolution
import trinls.ground_state as ground_state
import trinls.model as model_mod
import trinls.spectral as spectral
import trinls.stability as stability

import workloads

SIZES = (256, 1024, 4096)
STEP_DT = 1e-3


def per_call_s(fn, batch_s=0.02, batches=5):
    """Median per-call time over `batches` batches of at least `batch_s`."""
    fn()
    k = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= batch_s:
            break
        k *= 2
    samples = [elapsed / k]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        samples.append((time.perf_counter() - t0) / k)
    return statistics.median(samples)


def fft_pair_counts(n):
    """Computed FFT-pair cost on a (3, n) complex array: 5 n log2 n flops per
    transform; each transform reads and writes 3n complex128 values."""
    flops = 2 * 3 * 5 * n * math.log2(n)
    nbytes = 2 * 2 * 3 * n * 16
    return flops, nbytes


def step_counts(n):
    """Computed cost of one `evolution.step` at p = 2 on a (3, n) array.

    Two FFT pairs; two multiplies by the half-step propagator (6 flops per
    complex value); the phase substep: modulus squared (3), coupling sum
    (6), rate times dt (1), cos and sin (2), complex multiply (6).  Bytes
    count each array pass once per read and write (16 B complex, 8 B real):
    the FFTs, 2 propagator multiplies (3 complex passes each) and the phase
    substep (modulus 1.5, power 1, coupling 1, rate 1.5, exp 2, multiply 3
    complex-array equivalents).  The State wrapping copies are excluded.
    """
    fft_flops, fft_bytes = fft_pair_counts(n)
    flops = 2 * fft_flops + 3 * n * (2 * 6 + 3 + 6 + 1 + 2 + 6)
    nbytes = 2 * fft_bytes + 3 * n * 16 * (2 * 3 + 1.5 + 1 + 1 + 1.5 + 2 + 3)
    return flops, nbytes


def _triple(grid):
    """Equal-coupling closed-form triple (sech profile) on `grid`."""
    phi = model_mod.sech_profile(1.0, 3.0, 2.0, grid)
    return model_mod.State(phi, phi, phi)


def kernel_timings(ctx):
    out = {}
    ones = ctx.ones
    ones25 = model_mod.CouplingModel(np.ones((3, 3)), p=2.5)
    for n in SIZES:
        grid = spectral.make_grid(n, 40.0)
        state = _triple(grid)
        u = state.stack()
        mult = model_mod.lagrange_multipliers(state, ones)
        out[f"spectral.fft_pair_us.n{n}"] = 1e6 * per_call_s(
            lambda: ifft(fft(u, axis=-1), axis=-1))
        out[f"model.energy_us.n{n}"] = 1e6 * per_call_s(
            lambda: model_mod.energy(state, ones))
        out[f"model.lagrange_multipliers_us.n{n}"] = 1e6 * per_call_s(
            lambda: model_mod.lagrange_multipliers(state, ones))
        out[f"model.el_residual_us.n{n}"] = 1e6 * per_call_s(
            lambda: model_mod.el_residual(state, mult, ones))
        for label, model in (("2", ones), ("2_5", ones25)):
            out[f"evolution.step_us.n{n}.p{label}"] = 1e6 * per_call_s(
                lambda: evolution.step(state, STEP_DT, model))
    perturbed = stability.perturb(ctx.ground.profile, workloads.KIND, 1e-3, 0)
    out["stability.orbital_distance_ms"] = 1e3 * per_call_s(
        lambda: stability.orbital_distance(perturbed, ctx.ground))
    out["spectral.fft_pair_flops"], out["spectral.fft_pair_bytes"] = \
        fft_pair_counts(1024)
    out["evolution.step_flops"], out["evolution.step_bytes"] = step_counts(1024)
    return out


PROBE_CONFIG = """[grid]
n = 256
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
t = 0.05
dt = 1e-3
snapshot_every = 25

[stability]
kind = mass_preserving_random
delta = 1e-3
seeds = 0,1
sample_every = 25

[subadd]
splits = 0.6666666666666666,0.6666666666666666,0.6666666666666666;0.5,0.5,0.0
"""


def traced_battery(ctx, tally):
    """Solve the equal triple at every size, one subadditivity split, a few
    perturbations, and one CLI round at n = 256; returns bytes the CLI
    wrote."""
    masses = model_mod.MassTriple(4 / 3, 4 / 3, 4 / 3)
    for n in SIZES:
        grid = spectral.make_grid(n, 40.0)
        workloads.timed_solve(tally, ctx.ones, masses, grid,
                              exact=workloads.PRESETS[1][1:])
    half = model_mod.MassTriple(2 / 3, 2 / 3, 2 / 3)
    res = ground_state.subadditivity_check(ctx.ones, half, half,
                                           spectral.make_grid(256, 40.0))
    tally.op("probe subadd", [] if res.margin < 0 else [f"margin {res.margin}"])
    for seed in range(5):
        stability.perturb(ctx.ground.profile, workloads.KIND, 1e-3, seed)

    d = ctx.workdir / "probe"
    d.mkdir(parents=True, exist_ok=True)
    cfg = d / "run.ini"
    cfg.write_text(PROBE_CONFIG)
    for cmd in workloads.CLI_COMMANDS:
        extra = ["--profile", str(d / "solve" / "profile.csv")] if cmd == "evolve" else []
        code = cli.main([cmd, "--config", str(cfg), "--out", str(d / cmd),
                         "--quiet", *extra])
        tally.op(f"probe cli {cmd}", [] if code == 0 else [f"exit {code}"])
    return sum(f.stat().st_size for f in d.rglob("*") if f.is_file())
