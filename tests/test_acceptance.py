"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Oracles, all from `trinls.model`: `single_component_minimum` (lambda and
omega of one component at p=2, a=1; by its reduction rule also the equal
triple's (-4/3, 1) and the 2+2 split margin -1), `SINGLE_COMPONENT_BOXES`,
`sech_profile` and `gradient_fd_error`.

Criterion 8 is the long run (~3-4 minutes); everything else is seconds.
Where a criterion leaves a knob open, the choice is stated in the test:
the splitting-order fit uses a non-stationary gaussian state (a ground
state is a relative equilibrium whose leading drift term degenerates), and
the delta = 0 stability control runs at dt = 5e-4 (criterion pins no dt;
the scheme's orbit offset scales as dt^2 and crosses 1e-6 at dt = 1e-3).
"""

import json
import time

import numpy as np
import pytest

import trinls as t
from trinls.cli import main, read_profile_csv
from trinls.model import (SINGLE_COMPONENT_BOXES, _energy_terms,
                          gradient_fd_error, single_component_minimum)
from trinls.tolerances import DEFAULT as TOLS

import oracles


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


CONFIG = """\
[grid]
n = {n}
length = {length}

[coupling]
a11 = 1.0
a12 = 1.0
a13 = 1.0
a22 = 1.0
a23 = 1.0
a33 = 1.0
p = 2.0

[masses]
r = {r}
s = 0.0
t = 0.0
"""


def test_criterion_1_single_component_oracle(tmp_path):
    """cmd_solve reproduces the sech family for r in {1, 2, 4}."""
    worst = {"lam": 0.0, "omega": 0.0, "prof": 0.0}
    for r, (n, length) in SINGLE_COMPONENT_BOXES.items():
        cfg = tmp_path / f"r{r:g}.ini"
        cfg.write_text(CONFIG.format(n=n, length=length, r=r))
        out = tmp_path / f"out{r:g}"
        code = main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        gs = json.loads((out / "groundstate.json").read_text())
        lam_exact, sigma = single_component_minimum(r)
        worst["lam"] = max(worst["lam"], abs(gs["lambda"] - lam_exact) / abs(lam_exact))
        worst["omega"] = max(worst["omega"], abs(gs["omega"][0] - sigma))
        grid = t.make_grid(n, length)
        state = read_profile_csv(out / "profile.csv", grid)
        u = state.u1.values
        centered = np.roll(u, grid.n // 2 - int(np.argmax(np.abs(u))))
        aligned = centered * np.exp(-1j * oracles.phase_diagnostics(
            t.Field(grid, centered)).theta)
        exact = t.sech_profile(sigma, 1.0, 2.0, grid).values
        worst["prof"] = max(worst["prof"], float(np.max(np.abs(aligned - exact))))
    ok = (worst["lam"] <= TOLS.lambda_rel and worst["omega"] <= TOLS.omega_abs
          and worst["prof"] <= TOLS.profile_max_err)
    report(1, ok, f"worst rel lambda err {worst['lam']:.2e}, "
                  f"omega err {worst['omega']:.2e}, profile err {worst['prof']:.2e}")


def test_criterion_2_equal_coupling_triple(gs_equal):
    lam_err = abs(gs_equal.lam + 4 / 3)
    w_err = float(np.max(np.abs(gs_equal.multipliers.as_array() - 1.0)))
    u = gs_equal.profile.stack()
    pair_err = max(float(np.max(np.abs(u[i] - u[j])))
                   for i, j in ((0, 1), (0, 2), (1, 2)))
    ok = lam_err <= 1e-5 and w_err <= 1e-6 and pair_err <= 1e-6
    report(2, ok, f"lambda err {lam_err:.2e}, omega err {w_err:.2e}, "
                  f"component mismatch {pair_err:.2e}")


def test_criterion_3_structural_signs_random_sweep(grid40):
    rng = np.random.default_rng(1234)
    failures = []
    worst_res = 0.0
    for case in range(10):
        upper = rng.uniform(0.5, 2.0, 6)
        a = np.array([[upper[0], upper[1], upper[2]],
                      [upper[1], upper[3], upper[4]],
                      [upper[2], upper[4], upper[5]]])
        p = 2.0 if case % 2 == 0 else 2.5
        model = t.CouplingModel(a, p)
        masses = t.MassTriple(*rng.uniform(0.5, 3.0, 3))
        gs = t.minimize(model, masses, grid40, t.SolverConfig(residual_tol=1e-9))
        worst_res = max(worst_res, gs.residual)
        kin, inter = _energy_terms(gs.profile.stack(), grid40, a, p)
        checks = {
            "lambda<0": gs.lam < 0,
            "omega>0": bool(np.all(gs.multipliers.as_array() > 0)),
            "component negativity": bool(np.all(kin - inter / p < 0)),
            "residual": gs.residual <= TOLS.residual_converged,
        }
        for f in (gs.profile.u1, gs.profile.u2, gs.profile.u3):
            diag = oracles.phase_diagnostics(f)
            checks["phase"] = (checks.get("phase", True)
                               and diag.max_deviation <= TOLS.phase_constancy)
            checks["positive"] = (checks.get("positive", True)
                                  and diag.min_aligned_real > 0)
        bad = [k for k, v in checks.items() if not v]
        if bad:
            failures.append((case, bad))
    report(3, not failures,
           f"10 converged runs, worst residual {worst_res:.2e}, "
           f"violations: {failures if failures else 'none'}")


def test_criterion_4_gradient_correctness(grid40):
    rng = np.random.default_rng(7)
    worst = max(gradient_fd_error(grid40, t.CouplingModel(np.ones((3, 3)), p), rng)
                for p in (2.0, 2.5))
    report(4, worst <= TOLS.gradient_fd_rel,
           f"20 random pairs at each p, worst relative error {worst:.2e}")


def test_criterion_5_conservation_and_order(gs_equal, grid40, model_ones):
    trace = t.evolve(gs_equal.profile, 10.0, 1e-3, model_ones)
    mass_d = float(trace.mass_drifts.max())
    energy_d = float(trace.energy_drift.max())

    # order fit on a non-stationary smooth state (see module docstring)
    x = grid40.nodes
    u = np.stack([np.exp(-x ** 2 / 2).astype(complex)] * 3)
    for j in range(3):
        u[j] *= np.sqrt(1.0 / (grid40.spacing * np.sum(np.abs(u[j]) ** 2)))
    gaussian = t.State.from_array(grid40, u)
    drifts = [t.evolve(gaussian, 1.0, dt, model_ones).energy_drift.max()
              for dt in (4e-3, 2e-3, 1e-3)]
    orders = np.log2(np.array(drifts[:-1]) / np.array(drifts[1:]))
    ok = (mass_d <= TOLS.mass_drift and energy_d <= TOLS.energy_drift
          and np.all(orders >= TOLS.splitting_order_lo)
          and np.all(orders <= TOLS.splitting_order_hi))
    report(5, ok, f"T=10 mass drift {mass_d:.2e}, energy drift {energy_d:.2e}, "
                  f"fitted orders {np.round(orders, 3).tolist()}")


def multi_bump(grid, rng, count_range=(2, 6)):
    x = grid.nodes
    f = np.zeros(grid.n)
    for _ in range(rng.integers(*count_range)):
        f += rng.uniform(0.3, 1.5) * np.exp(
            -(x - rng.uniform(-12, 12)) ** 2 / (2 * rng.uniform(0.8, 2.5) ** 2))
    return f


def test_criterion_6_rearrangement_suite(grid40, model_ones):
    rng = np.random.default_rng(5)
    # (a) equimeasurability is exact at the bit level
    equi_ok = True
    for _ in range(5):
        f = multi_bump(grid40, rng)
        out = oracles.rearrange(oracles.RealField(grid40, f)).values
        for q in (1.0, 2.0, 2.5, 5.0):
            equi_ok = equi_ok and np.array_equal(np.sort(f ** q), np.sort(out ** q))

    # (b) energy never increases under rearrangement (10 smooth states)
    worst_increase = -np.inf
    for _ in range(10):
        u = np.stack([multi_bump(grid40, rng).astype(complex) for _ in range(3)])
        S = t.State.from_array(grid40, u)
        ur = np.stack([oracles.rearrange(oracles.RealField(grid40, np.abs(u[j]))).values
                       .astype(complex) for j in range(3)])
        Sr = t.State.from_array(grid40, ur)
        worst_increase = max(worst_increase,
                             t.energy(Sr, model_ones) - t.energy(S, model_ones))
    h_ok = worst_increase <= TOLS.rearrange_energy_slack

    # (c) two-bump kinetic decrease with the 3/4-min margin (5 cases)
    def cinf_bump(c, w, amp):
        xi = (grid40.nodes - c) / w
        out = np.zeros(grid40.n)
        m = np.abs(xi) < 1
        out[m] = amp * np.exp(-1.0 / (1.0 - xi[m] ** 2))
        return out

    ke = lambda v: oracles.mass(oracles.spectral_derivative(t.Field(grid40, v.astype(complex))))
    rng2 = np.random.default_rng(77)
    worst_margin = np.inf
    for _ in range(5):
        f = cinf_bump(-9.0, rng2.uniform(1.5, 4), rng2.uniform(0.5, 2))
        g = cinf_bump(8.0, rng2.uniform(1.5, 4), rng2.uniform(0.5, 2))
        ws = oracles.rearrange(oracles.RealField(grid40, f + g)).values
        margin = (ke(f + g) - 0.75 * min(ke(f), ke(g))) - ke(ws)
        worst_margin = min(worst_margin, margin)
    g_ok = worst_margin >= -TOLS.three_quarter_min_tol

    report(6, equi_ok and h_ok and g_ok,
           f"equimeasurable(bit-level)={equi_ok}, worst H increase "
           f"{worst_increase:.2e}, worst 3/4-min margin {worst_margin:.3e}")


def test_criterion_7_subadditivity(grid40, model_ones):
    res = t.subadditivity_check(model_ones, t.MassTriple(2, 0, 0),
                                t.MassTriple(2, 0, 0), grid40)
    closed_ok = abs(res.margin + 1.0) <= TOLS.subadd_margin_abs

    rng = np.random.default_rng(99)
    total = np.array([2.0, 1.6, 1.2])
    details = []
    rand_ok = True
    for _ in range(5):
        frac = rng.uniform(0.2, 0.8, 3)
        part1 = t.MassTriple(*(frac * total))
        part2 = t.MassTriple(*((1 - frac) * total))
        r = t.subadditivity_check(model_ones, part1, part2, grid40)
        conclusively_negative = r.margin < -2 * r.tolerance
        never_positive = r.margin <= 2 * r.tolerance
        rand_ok = rand_ok and never_positive and (conclusively_negative
                                                  or r.inconclusive)
        details.append(round(r.margin, 4))
    report(7, closed_ok and rand_ok,
           f"closed-form margin {res.margin:.6f} (target -1), "
           f"random-split margins {details}")


@pytest.mark.slow
def test_criterion_8_orbital_stability(gs_equal, model_ones):
    started = time.monotonic()
    worst = {}
    all_ok = True
    for delta in (1e-3, 1e-2):
        sups = []
        for seed in range(5):
            rep = t.stability_experiment(
                gs_equal, model_ones, "mass_preserving_random", delta,
                T=50.0, dt=1e-3, sample_every=100, seed=seed)
            sups.append(rep.sup_distance)
            all_ok = all_ok and rep.verdict == "bounded"
            all_ok = all_ok and rep.sup_distance <= TOLS.stability_distance_factor * delta
        worst[delta] = max(sups)
    control = t.stability_experiment(
        gs_equal, model_ones, "mass_preserving_random", 0.0,
        T=50.0, dt=5e-4, sample_every=200)
    elapsed = time.monotonic() - started
    ctrl_ok = control.sup_distance <= TOLS.stability_control
    grows = worst[1e-2] > worst[1e-3]
    ok = all_ok and ctrl_ok and grows and elapsed <= 600.0
    report(8, ok, f"sup distance {worst[1e-3]:.2e} (delta 1e-3), "
                  f"{worst[1e-2]:.2e} (delta 1e-2), control {control.sup_distance:.2e}, "
                  f"runtime {elapsed:.0f}s")


def test_criterion_9_concentration(gs_equal, gs_single4, grid40):
    etas = [1.0, 2.0, 5.0, 10.0]
    g1 = oracles.concentration(gs_equal.profile, etas).gamma_proxy
    g2 = oracles.concentration(gs_single4.profile, etas).gamma_proxy
    compact_ok = min(g1, g2) >= TOLS.gamma_proxy_min

    # two-bump state at the same masses: plateau near half the total
    x = grid40.nodes
    bump = (1 / np.cosh(2 * (x + 12)) + 1 / np.cosh(2 * (x - 12))).astype(complex)
    u = np.stack([bump.copy() for _ in range(3)])
    for j in range(3):
        u[j] *= np.sqrt((4 / 3) / (grid40.spacing * np.sum(np.abs(u[j]) ** 2)))
    two_bump = t.State.from_array(grid40, u)
    total = float(two_bump.masses().sum())
    prof = oracles.concentration(two_bump, [2.0, 3.0, 4.0, 5.0])
    vals = np.array(prof.values)
    plateau_ok = (np.all(np.abs(vals - total / 2) <= 0.01 * total)
                  and vals[-1] - vals[0] <= 0.005 * total)
    report(9, compact_ok and plateau_ok,
           f"gamma proxies {g1:.6f}, {g2:.6f}; two-bump window masses "
           f"{np.round(vals / total, 5).tolist()} of total")
