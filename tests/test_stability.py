"""Orbital distance modulo symmetries, perturbation kinds, and the
perturb-evolve-measure experiment.

The distance scan absorbs the optimal per-component phase analytically for
every candidate shift; brute-force lattice scans below confirm both
reductions.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trinls as t
from trinls.tolerances import DEFAULT as TOLS

import oracles


def brute_force_distance(state, ground, shifts, n_theta=64):
    """Direct scan over a (shift, phase-lattice) grid; upper bound oracle."""
    grid = state.grid
    thetas = 2 * np.pi * np.arange(n_theta) / n_theta
    best = np.inf
    for s in shifts:
        moved = oracles.apply_symmetry(ground.profile, shift=s * grid.spacing)
        total = 0.0
        for f_s, f_g in zip((state.u1, state.u2, state.u3),
                            (moved.u1, moved.u2, moved.u3)):
            ip = oracles.h1_inner(f_s, f_g)
            ns = oracles.h1_inner(f_s, f_s).real
            ng = oracles.h1_inner(f_g, f_g).real
            comp_best = min(ns + ng - 2 * (np.exp(1j * th) * ip).real
                            for th in thetas)
            total += comp_best
        best = min(best, total)
    return np.sqrt(max(best, 0.0))


# a shift as a fraction of the box length, and three phases
SHIFTS = st.floats(-0.5, 0.5, exclude_max=True)
PHASES = st.tuples(*[st.floats(-np.pi, np.pi)] * 3)


class TestOrbitalDistance:
    def test_zero_on_itself(self, gs_equal):
        assert t.orbital_distance(gs_equal.profile, gs_equal) <= TOLS.orbit_zero

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(SHIFTS, PHASES)
    def test_zero_on_symmetry_orbit(self, gs_equal, frac, phases):
        # any real shift in [-L/2, L/2): off the nodes the continuous
        # refinement has to find it
        moved = oracles.apply_symmetry(gs_equal.profile,
                                       shift=frac * gs_equal.grid.length, phases=phases)
        assert t.orbital_distance(moved, gs_equal) <= TOLS.orbit_symmetry

    @pytest.mark.parametrize("phases", [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0),
                                        (0.3, -2.0, 1.1)])
    @pytest.mark.parametrize("nodes", [0, 7, 41, 300])
    def test_zero_on_exact_symmetry_copy(self, gs_equal, nodes, phases):
        moved = oracles.apply_symmetry(gs_equal.profile,
                                       shift=nodes * gs_equal.grid.spacing,
                                       phases=phases)
        assert t.orbital_distance(moved, gs_equal) <= TOLS.orbit_symmetry

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5])
    def test_zero_on_subgrid_symmetry_copy(self, gs_equal, fraction):
        # a shift between nodes is found by the continuous refinement
        moved = oracles.apply_symmetry(gs_equal.profile,
                                       shift=(41 + fraction) * gs_equal.grid.spacing,
                                       phases=(0.3, -2.0, 1.1))
        assert t.orbital_distance(moved, gs_equal) <= TOLS.orbit_symmetry

    def test_small_perturbation_scale(self, gs_equal, rng):
        eta = t.random_smooth_state(gs_equal.grid, rng)
        from scipy.fft import fft
        w = 1.0 + gs_equal.grid.wavenumbers ** 2
        ynorm = np.sqrt(gs_equal.grid.spacing / gs_equal.grid.n
                        * np.sum(w * np.abs(fft(eta, axis=-1)) ** 2))
        eta = eta / ynorm
        S = t.State.from_array(gs_equal.grid,
                               gs_equal.profile.stack() + 1e-3 * eta)
        d = t.orbital_distance(S, gs_equal)
        assert 5e-4 <= d <= 2e-3

    def test_matches_brute_force(self, gs_equal, rng):
        n_theta = 64
        S = t.State.from_array(
            gs_equal.grid,
            gs_equal.profile.stack() + 2e-3 * t.random_smooth_state(gs_equal.grid, rng))
        # generic per-component phases so the lattice quantization is exercised
        S = oracles.apply_symmetry(S, phases=(0.23, -1.07, 2.71))
        fast = t.orbital_distance(S, gs_equal)
        slow = brute_force_distance(S, gs_equal, shifts=range(-8, 9),
                                    n_theta=n_theta)
        # the lattice can only over-estimate, and by at most the phase
        # quantization penalty 2 |<S_j, Phi_j>| (1 - cos(pi / n_theta))
        assert slow >= fast - 1e-12
        allowance = 0.0
        for f_s, f_g in zip((S.u1, S.u2, S.u3),
                            (gs_equal.profile.u1, gs_equal.profile.u2,
                             gs_equal.profile.u3)):
            ns = oracles.h1_inner(f_s, f_s).real
            ng = oracles.h1_inner(f_g, f_g).real
            allowance += 2 * np.sqrt(ns * ng) * (1 - np.cos(np.pi / n_theta))
        assert slow ** 2 <= fast ** 2 + allowance

    def test_analytic_phase_beats_lattice(self, gs_equal, rng):
        # optimal-phase reduction: for fixed shift, the analytic phase is at
        # least as good as every lattice phase
        S = t.State.from_array(
            gs_equal.grid,
            gs_equal.profile.stack() + 1e-2 * t.random_smooth_state(gs_equal.grid, rng))
        for shift in (0, 3, -11):
            moved = oracles.apply_symmetry(gs_equal.profile, shift=shift * gs_equal.grid.spacing)
            for f_s, f_g in zip((S.u1, S.u2, S.u3),
                                (moved.u1, moved.u2, moved.u3)):
                ip = oracles.h1_inner(f_s, f_g)
                ns = oracles.h1_inner(f_s, f_s).real
                ng = oracles.h1_inner(f_g, f_g).real
                analytic = ns + ng - 2 * abs(ip)
                for th in 2 * np.pi * np.arange(64) / 64:
                    lattice = ns + ng - 2 * (np.exp(1j * th) * ip).real
                    assert analytic <= lattice + 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(SHIFTS, PHASES)
    def test_invariant_under_joint_transformation(self, gs_equal, frac, phases):
        rng = np.random.default_rng(20240811)
        S = t.State.from_array(
            gs_equal.grid,
            gs_equal.profile.stack() + 1e-2 * t.random_smooth_state(gs_equal.grid, rng))
        d0 = t.orbital_distance(S, gs_equal)
        shift = frac * gs_equal.grid.length
        S2 = oracles.apply_symmetry(S, shift=shift, phases=phases)
        G2 = dataclasses.replace(
            gs_equal, profile=oracles.apply_symmetry(gs_equal.profile, shift=shift,
                                                     phases=phases))
        d1 = t.orbital_distance(S2, G2)
        assert abs(d1 - d0) <= TOLS.orbit_pseudometric

    def test_symmetric_under_role_swap(self, gs_equal, rng):
        # d(S, orbit(Phi)) = d(Phi, orbit(S)): the minimized quantity is the
        # same up to negating the optimal shift and phases
        S = t.State.from_array(
            gs_equal.grid,
            gs_equal.profile.stack() + 5e-3 * t.random_smooth_state(gs_equal.grid, rng))
        wrapped = dataclasses.replace(
            gs_equal, profile=S,
            masses_achieved=t.MassTriple(*S.masses()))
        d_fwd = t.orbital_distance(S, gs_equal)
        d_rev = t.orbital_distance(gs_equal.profile, wrapped)
        assert abs(d_fwd - d_rev) <= TOLS.orbit_pseudometric

    def test_grid_mismatch(self, gs_equal):
        other = t.make_grid(512, 40.0)
        S = t.State.from_array(other, np.zeros((3, 512), dtype=complex))
        with pytest.raises(ValueError, match="grid mismatch"):
            t.orbital_distance(S, gs_equal)


class TestPerturb:
    def test_zero_amplitude_identity(self, gs_equal):
        out = t.perturb(gs_equal.profile, "random_h1", 0.0, seed=5)
        assert np.array_equal(out.stack(), gs_equal.profile.stack())

    def test_unit_norm_direction(self, gs_equal):
        from scipy.fft import fft
        amp = 1e-2
        out = t.perturb(gs_equal.profile, "random_h1", amp, seed=5)
        diff = out.stack() - gs_equal.profile.stack()
        w = 1.0 + gs_equal.grid.wavenumbers ** 2
        ynorm = np.sqrt(gs_equal.grid.spacing / gs_equal.grid.n
                        * np.sum(w * np.abs(fft(diff, axis=-1)) ** 2))
        assert ynorm == pytest.approx(amp, rel=1e-12)

    def test_mass_preserving(self, gs_equal):
        out = t.perturb(gs_equal.profile, "mass_preserving_random", 1e-2, seed=1)
        m0 = gs_equal.profile.masses()
        m1 = out.masses()
        assert np.max(np.abs(m1 - m0) / m0) <= 1e-12
        d = t.orbital_distance(out, gs_equal)
        assert 5e-3 * 0.5 <= d <= 2e-2

    def test_deterministic_per_seed(self, gs_equal):
        a = t.perturb(gs_equal.profile, "random_h1", 1e-3, seed=9)
        b = t.perturb(gs_equal.profile, "random_h1", 1e-3, seed=9)
        assert np.array_equal(a.stack(), b.stack())
        c = t.perturb(gs_equal.profile, "random_h1", 1e-3, seed=10)
        assert not np.array_equal(a.stack(), c.stack())

    def test_component_tilt_moves_mass(self, gs_equal):
        out = t.perturb(gs_equal.profile, "component_tilt", 1e-2, seed=0)
        m0 = gs_equal.profile.masses()
        m1 = out.masses()
        assert m1[0] > m0[0] and m1[1] < m0[1]

    def test_unknown_kind(self, gs_equal):
        with pytest.raises(ValueError, match="^kind must be one of"):
            t.perturb(gs_equal.profile, "nope", 1e-3)

    def test_seed_not_an_integer(self, gs_equal):
        # a ValueError, not a TypeError from the seed's range rule
        with pytest.raises(ValueError, match="^seed must be an integer, got '3'"):
            t.perturb(gs_equal.profile, "random_h1", 1e-3, seed="3")

    @pytest.mark.parametrize("amplitude", [-1e-3, float("nan"), float("inf")])
    def test_amplitude_out_of_range(self, gs_equal, amplitude):
        # inf fails here, not later as "field contains non-finite samples"
        with pytest.raises(ValueError, match="^delta must be finite and >= 0"):
            t.perturb(gs_equal.profile, "random_h1", amplitude)


class TestExperiment:
    def test_zero_delta_control_short(self, gs_equal, model_ones):
        # dt = 5e-4: the scheme's orbit offset is ~3.7e-7, under the control
        # bound with margin (it scales as dt^2; 1e-3 gives ~1.5e-6)
        rep = t.stability_experiment(gs_equal, model_ones,
                                     "mass_preserving_random", 0.0,
                                     T=2.0, dt=5e-4, sample_every=400)
        assert rep.verdict == "bounded"
        assert rep.sup_distance <= TOLS.stability_control

    def test_small_delta_bounded_short(self, gs_equal, model_ones):
        delta = 1e-3
        rep = t.stability_experiment(gs_equal, model_ones,
                                     "mass_preserving_random", delta,
                                     T=5.0, dt=1e-3, sample_every=500, seed=3)
        assert rep.verdict == "bounded"
        assert rep.sup_distance <= TOLS.stability_distance_factor * delta
        assert rep.eps == pytest.approx(20 * delta)

    def test_monotone_in_delta(self, gs_equal, model_ones):
        sups = []
        for delta in (0.0, 1e-3):
            rep = t.stability_experiment(gs_equal, model_ones,
                                         "mass_preserving_random", delta,
                                         T=1.0, dt=1e-3, sample_every=250, seed=7)
            sups.append(rep.sup_distance)
        assert sups[0] <= sups[1]

    def test_conservation_transfers(self, gs_equal, model_ones):
        rep = t.stability_experiment(gs_equal, model_ones,
                                     "mass_preserving_random", 1e-3,
                                     T=2.0, dt=1e-3, sample_every=500, seed=1)
        assert rep.trace.mass_drifts.max() <= TOLS.mass_drift
        assert rep.trace.energy_drift.max() <= TOLS.energy_drift

    def test_blow_up_verdict(self, grid40):
        model = t.CouplingModel(np.ones((3, 3)), 2.5)
        with np.errstate(all="ignore"):
            u = np.full((3, 1024), 1e200, dtype=complex)
            u *= np.exp(-grid40.nodes ** 2)[None, :]
            huge = t.State.from_array(grid40, u)
            fake = t.GroundState(
                profile=huge, multipliers=t.Multipliers(1.0, 1.0, 1.0),
                lam=-1.0, residual=1.0, iterations=0,
                masses_achieved=t.MassTriple(1.0, 1.0, 1.0))
            rep = t.stability_experiment(fake, model, "random_h1", 0.0,
                                         T=0.5, dt=1e-3, sample_every=100)
        assert rep.verdict == "blow_up"

    @pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), float("inf")])
    def test_eps_out_of_range(self, gs_equal, model_ones, eps):
        # a negative or NaN threshold would read "escaped" and an infinite
        # one "bounded", whatever the distance
        with pytest.raises(ValueError, match="^eps must be finite and > 0"):
            t.stability_experiment(gs_equal, model_ones, "mass_preserving_random",
                                   1e-3, T=0.01, dt=1e-3, sample_every=5, eps=eps)

    @pytest.mark.parametrize("sample_every", [2.5, 5.0, "2"])
    def test_sample_every_not_an_integer(self, gs_equal, model_ones, sample_every):
        with pytest.raises(ValueError, match="^sample_every must be an integer"):
            t.stability_experiment(gs_equal, model_ones, "mass_preserving_random",
                                   1e-3, T=0.01, dt=1e-3, sample_every=sample_every)

    @pytest.mark.parametrize("d, flag", [
        ([1, 2, 10, 8, 3, 2, 2, 2, 2, 2], True),
        (list(range(1, 11)), False),
        ([1, 1, 1, 1, 1, 1, 1, 1, 10, 1], False),
        ([1, 10, 1, 1], False),
        ([0] * 10, False),
    ], ids=["rise-then-fall", "monotone", "late-peak", "short", "zero"])
    def test_drift_reversal(self, d, flag):
        # the orbit_drift_flag of every report: a distance that rose 5x over
        # its start and then fell below half its peak, peak not in the last 20%
        from trinls.stability import _drift_reversal
        assert _drift_reversal(1e-3 * np.array(d, dtype=float)) is flag


def test_stability_run_does_not_import_scipy_optimize():
    # the shift refinement is closed-form Newton; scipy.optimize costs a
    # quarter second and ~20 MB per process
    script = """
import sys
import numpy as np
import trinls as t
grid = t.make_grid(256, 40.0)
model = t.CouplingModel(np.ones((3, 3)), 2.0)
masses = t.MassTriple(4 / 3, 4 / 3, 4 / 3)
gs = t.minimize(model, masses, grid, t.SolverConfig())
t.stability_experiment(gs, model, "mass_preserving_random", 1e-3,
                       T=0.01, dt=1e-3, sample_every=5)
print("scipy.optimize" in sys.modules)
"""
    src = str(Path(t.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
