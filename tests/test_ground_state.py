"""Solver contracts: closed-form targets, structure of converged minimizers,
fixed-point refinement, the reduced two-component problem, concentration,
and subadditivity margins.

Closed forms used as oracles (p = 2):
    lambda(r, 0, 0) = -r^3/48   with multiplier (r/4)^2
    equal coupling (all a = 1), masses (4/3)^3: lambda = -4/3, omega = 1
    m(2, 2) with alpha1 = alpha2 = beta = 1 equals -4/3 (equal pair of sech).
"""

import numpy as np
import pytest

import trinls as t
from trinls.ground_state import _project
from trinls.model import _el_residual_array, _gradient_array, _multiplier_array
from trinls.tolerances import DEFAULT as TOLS

import oracles


# coupling of the wide command-line preset (p = 2.5, n = 4096, L = 80)
ASYMMETRIC_A = np.array([[1.0, 0.7, 0.5], [0.7, 1.3, 0.9], [0.5, 0.9, 0.8]])
ULP = np.spacing(4 / 3)


def align_to_center(values):
    """Roll the peak of |values| to the center node."""
    n = values.shape[0]
    return np.roll(values, n // 2 - int(np.argmax(np.abs(values))))


def explicit_flow(model, masses, grid, tol, max_iters=60000):
    """Reference loop for `minimize`: the literal projected gradient flow
    (Bao & Du 2004) u <- P(u - tau G(u)) from gaussian bumps, with tau 0.9 of
    the forward-Euler limit 2 / max k^2, until the Euler-Lagrange residual is
    below `tol`.  It runs on the live components (the zero-mass ones stay
    exact zeros); returns the final state."""
    live = masses.as_array() > 0
    a, p, m, h = model.a[np.ix_(live, live)], model.p, masses.as_array()[live], grid.spacing
    tau = 0.9 * 2.0 / np.max(grid.wavenumbers ** 2)
    u = _project(np.exp(-grid.nodes ** 2 / 8.0) * np.ones((m.size, 1), complex), m, h)
    for _ in range(max_iters):
        if _el_residual_array(u, _multiplier_array(u, grid, a, p), grid, a, p)[0] < tol:
            full = np.zeros((3, grid.n), complex)
            full[live] = u
            return t.State.from_array(grid, full)
        u = _project(u - tau * _gradient_array(u, grid, a, p), m, h)
    raise AssertionError(f"no convergence in {max_iters} iterations")


class TestMinimizeClosedForms:
    def test_single_component(self, gs_single4, grid40):
        assert abs(gs_single4.lam + 4 / 3) <= TOLS.lambda_rel * (4 / 3)
        assert abs(gs_single4.multipliers.w1 - 1.0) <= TOLS.omega_abs
        assert np.isnan(gs_single4.multipliers.w2)
        # aligned modulus matches sqrt(2) sech
        prof = align_to_center(gs_single4.profile.u1.values)
        exact = np.sqrt(2) / np.cosh(grid40.nodes)
        assert np.max(np.abs(np.abs(prof) - exact)) <= TOLS.profile_max_err

    def test_equal_coupling_triple(self, gs_equal):
        assert abs(gs_equal.lam + 4 / 3) <= TOLS.lambda_rel * (4 / 3)
        w = gs_equal.multipliers.as_array()
        assert np.max(np.abs(w - 1.0)) <= TOLS.omega_abs
        u = gs_equal.profile.stack()
        assert np.max(np.abs(np.abs(u[0]) - np.abs(u[1]))) <= 1e-6
        assert np.max(np.abs(np.abs(u[0]) - np.abs(u[2]))) <= 1e-6

    def test_negative_energy_positive_multipliers(self, gs_equal, gs_single4):
        assert gs_equal.lam < 0 and gs_single4.lam < 0
        assert np.all(gs_equal.multipliers.as_array() > 0)
        assert gs_single4.multipliers.w1 > 0


class TestSolverContracts:
    def test_projection_exactness(self, gs_equal):
        target = 4 / 3
        for m in (gs_equal.masses_achieved.r, gs_equal.masses_achieved.s,
                  gs_equal.masses_achieved.t):
            assert abs(m - target) <= TOLS.projection_rel * target

    def test_projection_holds_midrun(self, grid40, model_ones):
        # error path: too few iterations; the carried iterate still has
        # exactly projected masses
        cfg = t.SolverConfig(max_iters=3, residual_tol=1e-14)
        with pytest.raises(t.ConvergenceError) as err:
            t.minimize(model_ones, t.MassTriple(1.0, 2.0, 0.5), grid40, cfg)
        last = err.value.last
        for m, target in zip([last.masses_achieved.r, last.masses_achieved.s,
                              last.masses_achieved.t], [1.0, 2.0, 0.5]):
            assert abs(m - target) <= TOLS.projection_rel * target

    def test_energy_monotone(self, grid40, model_ones):
        cfg = t.SolverConfig(noise=0.1, seed=3)
        gs = t.minimize(model_ones, t.MassTriple(1.0, 1.5, 0.8), grid40, cfg)
        e = np.array(gs.energy_history)
        assert np.all(np.diff(e) <= TOLS.energy_monotone_slack)

    def test_component_negativity_and_gradient_bound(self, gs_equal, model_ones):
        # each positive-mass component: kin_j - inter_j / p < 0 and kin_j > 0
        from trinls.model import _energy_terms
        u = gs_equal.profile.stack()
        kin, inter = _energy_terms(u, gs_equal.grid, model_ones.a, model_ones.p)
        assert np.all(kin - inter / model_ones.p < 0)
        assert np.all(kin > 0)

    def test_phase_constancy_from_noisy_start(self, grid40, model_ones):
        cfg = t.SolverConfig(noise=0.2, seed=11)
        gs = t.minimize(model_ones, t.MassTriple(1.0, 1.0, 1.0), grid40, cfg)
        for f in (gs.profile.u1, gs.profile.u2, gs.profile.u3):
            diag = oracles.phase_diagnostics(f)
            assert diag.max_deviation <= TOLS.phase_constancy
            assert diag.min_aligned_real > 0

    def test_translation_class(self, grid40, model_ones, gs_equal):
        # start from data shifted off-center: the flow converges to a
        # translate of the same profile
        shifted = oracles.apply_symmetry(gs_equal.profile, shift=64 * grid40.spacing,
                                         phases=(0.4, 1.0, -0.3))
        cfg = t.SolverConfig(initial_state=shifted)
        gs = t.minimize(model_ones, t.MassTriple(4 / 3, 4 / 3, 4 / 3), grid40, cfg)
        assert t.orbital_distance(gs.profile, gs_equal) <= TOLS.translation_class_ynorm
        # and the bump is still off-center (no recentering happened)
        peak = np.argmax(np.abs(gs.profile.u1.values))
        assert abs(int(peak) - grid40.n // 2) > 32

    def test_nonconvergence_carries_iterate(self, grid40, model_ones):
        cfg = t.SolverConfig(max_iters=2)
        with pytest.raises(t.ConvergenceError) as err:
            t.minimize(model_ones, t.MassTriple(4.0, 0.0, 0.0), grid40, cfg)
        assert err.value.last is not None
        assert err.value.last.iterations == 2

    def test_budget_exhaustion_carries_evaluated_iterate(self, grid40, model_ones):
        # the carried profile is the iterate its residual, multipliers and
        # last energy were computed from, not the step taken after it
        cfg = t.SolverConfig(max_iters=8)
        with pytest.raises(t.ConvergenceError) as err:
            t.minimize(model_ones, t.MassTriple(4.0, 0.0, 0.0), grid40, cfg)
        last = err.value.last
        res = t.el_residual(last.profile, last.multipliers, model_ones)
        assert res == pytest.approx(last.residual, rel=1e-12)
        E = t.energy(last.profile, model_ones)
        assert E == pytest.approx(last.energy_history[-1], rel=1e-14)

    def test_step_collapse_detected(self, grid40, model_ones):
        # a mass of 1e300 overflows the energy of the very first iterate
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(t.StepCollapseError, match="iteration 0"):
                t.minimize(model_ones, t.MassTriple(1e300, 0.0, 0.0), grid40)

    @pytest.mark.parametrize("r, error", [(1e300, t.ConvergenceError),
                                          (1.7e308, t.StepCollapseError)])
    def test_extreme_mass_keeps_its_solver_error(self, grid40, r, error):
        # at the weakest coupling a mass of 1e300 survives the first
        # iterate and runs out of iterations: the carried iterate's achieved
        # masses stay finite, so packaging it passes MassTriple's rules
        # instead of turning the ConvergenceError into a ValueError
        model = t.CouplingModel(np.full((3, 3), 5e-324), 2.0)
        with np.errstate(all="ignore"), pytest.raises(error) as info:
            t.minimize(model, t.MassTriple(r, r / 2, 0.0), grid40,
                       t.SolverConfig(max_iters=3))
        assert type(info.value) is error

    @pytest.mark.parametrize("masses, name", [((5e-324, 0.0, 0.0), "r"),
                                              ((0.0, 0.0, 5e-324), "t")])
    def test_underflowing_mass_is_a_convergence_error(self, model_ones, masses,
                                                      name):
        # the solved component's mass rounds to 0.0 on the grid: the error
        # names that target, not the achieved masses' MassTriple rule
        with pytest.raises(t.ConvergenceError,
                           match=f"^mass {name} = 5e-324 underflows"):
            t.minimize(model_ones, t.MassTriple(*masses), t.make_grid(256, 30.0))

    def test_non_negative_minimum_is_not_a_minimizer(self, model_ones):
        # at r = 1e-320 the converged lambda rounds to a positive subnormal
        with pytest.raises(t.ConvergenceError,
                           match="^converged to non-negative energy") as err:
            t.minimize(model_ones, t.MassTriple(1e-320, 0.0, 0.0),
                       t.make_grid(256, 30.0))
        last = err.value.last
        assert last is not None and not last.lam < 0
        assert last.masses_achieved.r > 0

    def test_supplied_start_on_another_grid(self, gs_equal, model_ones):
        with pytest.raises(ValueError, match=r"^initial_state must be on "
                                             r"Grid\(n=512, length=40.0\), got "
                                             r"Grid\(n=1024, length=40.0\)$"):
            t.minimize(model_ones, t.MassTriple(4 / 3, 4 / 3, 4 / 3),
                       t.make_grid(512, 40.0),
                       t.SolverConfig(initial_state=gs_equal.profile))

    def test_explicit_scheme_agrees(self, model_ones):
        # the literal normalized-gradient-flow scheme reaches the same
        # minimum on a feasible budget (coarse grid, loose tolerance)
        grid = t.make_grid(256, 30.0)
        state = explicit_flow(model_ones, t.MassTriple(4.0, 0.0, 0.0), grid, 5e-4)
        assert abs(t.energy(state, model_ones) + 4 / 3) <= 1e-3

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 0), ("max_iters", -5), ("max_iters", 2.5), ("max_iters", "5"),
        ("seed", -1), ("seed", 1.5), ("seed", None), ("noise", -1.0),
        ("noise", float("nan"))])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            t.SolverConfig(**{field: value})

    def test_noise_needs_gaussian_start(self, gs_equal):
        # noise seeds only the gaussian start: with a supplied one it would
        # be accepted and ignored
        with pytest.raises(ValueError, match="^noise must be 0 with a supplied start"):
            t.SolverConfig(noise=0.1, initial_state=gs_equal.profile)

    def test_zero_component_cannot_be_projected(self, grid40, model_ones):
        u = np.zeros((3, grid40.n), dtype=complex)
        u[0] = np.exp(-grid40.nodes ** 2)
        cfg = t.SolverConfig(initial_state=t.State.from_array(grid40, u))
        with pytest.raises(ValueError, match="identically zero"):
            t.minimize(model_ones, t.MassTriple(1.0, 1.0, 0.0), grid40, cfg)

    def test_polish_rejects_zero_component(self, grid40, model_ones):
        # the polish starts from the flow's start builder, which names the
        # component, instead of sweeping a NaN row into a DivergenceError
        u = np.zeros((3, grid40.n), dtype=complex)
        u[0] = np.exp(-grid40.nodes ** 2)
        with pytest.raises(ValueError, match="^component 3 is identically zero; "
                                             "cannot rescale it to mass 2.5$"):
            t.refine_fixed_point(t.State.from_array(grid40, u), model_ones,
                                 t.MassTriple(1.0, 0.0, 2.5))


class TestProjection:
    @staticmethod
    def project_loop(u, targets, h):
        """Per-component reference for the vectorized projection."""
        for j in range(3):
            if targets[j] == 0.0:
                u[j] = 0.0
                continue
            u[j] *= np.sqrt(targets[j] / (h * np.sum(np.abs(u[j]) ** 2)))
        return u

    @pytest.mark.parametrize("targets", [(1.0, 2.0, 0.5), (4.0, 0.0, 0.0),
                                         (0.0, 1.3, 0.7)])
    @pytest.mark.parametrize("n", [256, 4096])
    def test_matches_per_component_loop(self, rng, n, targets):
        # `_project` takes the live rows; `perturb` zeroes the others, so its
        # mass-preserving kind equals the loop bit for bit, dead rows +0.0
        u = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        targets = np.array(targets)
        live = targets > 0
        want = self.project_loop(u.copy(), targets, 0.04)
        assert _project(u[live], targets[live], 0.04).tobytes() == want[live].tobytes()

        # both kinds add the same noise; the mass-preserving one then projects
        # onto the state's masses, and the bytes tell +0.0 from -0.0
        state = t.State.from_array(t.make_grid(n, 0.04 * n), want)
        moved = t.perturb(state, "random_h1", 1e-2, seed=4).stack()
        out = t.perturb(state, "mass_preserving_random", 1e-2, seed=4).stack()
        ref = self.project_loop(moved, state.masses(), state.grid.spacing)
        assert out.tobytes() == ref.tobytes()


class TestMinimumValue:
    """lambda is the minimum value at the prescribed masses, formed once in
    extended precision, so it reads the closed form -4/3 to one ulp whatever
    path the iterates took."""

    @pytest.mark.parametrize("masses", [(4.0, 0.0, 0.0), (4 / 3, 4 / 3, 4 / 3)])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_closed_form_to_one_ulp(self, model_ones, n, masses):
        grid = t.make_grid(n, 40.0)
        m = t.MassTriple(*masses)
        gs = t.minimize(model_ones, m, grid)
        assert abs(gs.lam + 4 / 3) <= ULP

        # a shifted, phase-rotated start takes another path to the minimum
        bumps = np.exp(-grid.nodes ** 2 / 8.0) * (m.as_array() > 0)[:, None]
        start = oracles.apply_symmetry(t.State.from_array(grid, bumps.astype(complex)),
                                       shift=64 * grid.spacing, phases=(0.4, 1.0, -0.3))
        cfg = t.SolverConfig(initial_state=start)
        assert abs(t.minimize(model_ones, m, grid, cfg).lam - gs.lam) <= ULP

        polished = t.refine_fixed_point(gs.profile, model_ones, m)
        assert abs(polished.lam - gs.lam) <= ULP


class TestAndersonMixing:
    def test_equal_triple_iterations(self, grid40, model_ones):
        gs = t.minimize(model_ones, t.MassTriple(4 / 3, 4 / 3, 4 / 3), grid40)
        assert gs.iterations <= 25

    def test_wide_preset_iterations(self):
        model = t.CouplingModel(ASYMMETRIC_A, 2.5)
        gs = t.minimize(model, t.MassTriple(2.0, 1.5, 1.2), t.make_grid(4096, 80.0))
        assert gs.iterations <= 30

    @pytest.mark.parametrize("max_iters", [100, 200, 1000])
    def test_residual_guard_at_round_off_floor(self, max_iters, monkeypatch):
        # a noisy start at p != 2 on the coarse grid stalls near 2e-10, above
        # the residual target; mixing noise at that floor pushed the carried
        # iterate's residual up to ~1e-6 until mixed iterates whose residual
        # exceeds ten times the lowest one reached gave way to the plain step.
        # The stall exit is switched off so the guard runs the whole budget.
        monkeypatch.setattr("trinls.ground_state._STALL", max_iters + 1)
        model = t.CouplingModel(np.full((3, 3), 1.054), 2.36)
        cfg = t.SolverConfig(noise=0.2, seed=54, max_iters=max_iters)
        with pytest.raises(t.ConvergenceError) as err:
            t.minimize(model, t.MassTriple(0.0, 3.76, 0.0),
                       t.make_grid(256, 40.0), cfg)
        gs = err.value.last
        assert gs.iterations == max_iters
        assert t.el_residual(gs.profile, gs.multipliers, model) <= 1e-8

    def test_stalled_flow_fails_fast(self):
        # the same stalled start: no new lowest residual for 50 iterations
        # ends the solve long before max_iters = 5000
        model = t.CouplingModel(np.full((3, 3), 1.054), 2.36)
        cfg = t.SolverConfig(noise=0.2, seed=54)
        with pytest.raises(t.ConvergenceError, match="the last 50 without") as info:
            t.minimize(model, t.MassTriple(0.0, 3.76, 0.0),
                       t.make_grid(256, 40.0), cfg)
        last = info.value.last
        assert last.iterations <= 150
        assert f"residual {last.residual:.3e}" in str(info.value)


class TestRefineFixedPoint:
    def test_closed_form_is_fixed_point(self, grid64, model_ones):
        psi = t.sech_profile(1.0, 1.0, 2.0, grid64)
        zero = t.Field(grid64, np.zeros(grid64.n, dtype=complex))
        state = t.State(psi, zero, zero)
        masses = t.MassTriple(oracles.mass(psi), 0.0, 0.0)
        gs = t.refine_fixed_point(state, model_ones, masses)
        diff = np.max(np.abs(gs.profile.u1.values - psi.values))
        assert diff <= 1e-10

    def test_polish_improves_residual(self, grid40, model_ones, monkeypatch):
        cfg = t.SolverConfig(residual_tol=1e-6)
        masses = t.MassTriple(4.0, 0.0, 0.0)
        rough = t.minimize(model_ones, masses, grid40, cfg)
        assert rough.residual <= 1e-6
        polished = t.refine_fixed_point(rough.profile, model_ones, masses)
        assert polished.residual <= 1e-9
        assert abs(polished.multipliers.w1 - 1.0) <= 1e-8
        monkeypatch.setattr("trinls.ground_state._MAX_SWEEPS", 1)
        with pytest.raises(t.DivergenceError, match="1 sweeps"):
            t.refine_fixed_point(rough.profile, model_ones, masses)

    def test_non_finite_iterate_fails_multiplier_guard(self, gs_single4, model_ones):
        # at mass 1e300, |u|^4 overflows: the first sweep leaves NaN, whose
        # residual never meets the target and whose multipliers are not positive
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(t.DivergenceError, match="not positive"):
                t.refine_fixed_point(gs_single4.profile, model_ones,
                                     t.MassTriple(1e300, 0.0, 0.0))

    def test_far_input_diverges(self, grid40, model_ones, rng, monkeypatch):
        u = t.random_smooth_state(grid40, rng, amplitude=0.05)
        state = t.State.from_array(grid40, u)
        monkeypatch.setattr("trinls.ground_state._MAX_SWEEPS", 40)
        with pytest.raises(t.DivergenceError):
            t.refine_fixed_point(state, model_ones, t.MassTriple(0.01, 0.01, 0.01))


class TestLiveRows:
    """The flow and the polish work on the components with positive target
    mass only; the others come back as exact zeros with NaN multipliers."""

    @staticmethod
    def record_transforms(monkeypatch):
        """Wrap the fft and ifft names the solver and the model kernels call;
        returns the list of the row counts they were given."""
        import trinls.ground_state as ground_state
        import trinls.model as model
        rows = []
        for module in (ground_state, model):
            for name in ("fft", "ifft"):
                def traced(x, *args, inner=getattr(module, name), **kwargs):
                    rows.append(x.shape[0])
                    return inner(x, *args, **kwargs)
                monkeypatch.setattr(module, name, traced)
        return rows

    def test_transforms_get_live_rows_only(self, grid40, model_ones, monkeypatch):
        masses = t.MassTriple(4.0, 0.0, 0.0)
        rough = t.minimize(model_ones, masses, grid40, t.SolverConfig(residual_tol=1e-6))
        rows = self.record_transforms(monkeypatch)
        t.minimize(model_ones, masses, grid40)
        t.refine_fixed_point(rough.profile, model_ones, masses)
        assert len(rows) > 20 and set(rows) == {1}

    @pytest.mark.parametrize("masses", [(0.0, 4.0, 0.0), (2.0, 0.0, 2.0)])
    def test_dead_rows_are_exact_zeros(self, grid40, model_ones, masses):
        dead = np.array(masses) == 0
        rough = t.minimize(model_ones, t.MassTriple(*masses), grid40,
                           t.SolverConfig(residual_tol=1e-6))
        polished = t.refine_fixed_point(rough.profile, model_ones, t.MassTriple(*masses))
        for gs in (rough, polished):
            u = gs.profile.stack()[dead]
            assert np.all(u == 0) and not np.any(np.signbit(u.view(float)))
            assert np.all(np.isnan(gs.multipliers.as_array()[dead]))
            assert np.all(gs.masses_achieved.as_array()[dead] == 0.0)


class TestOneResidualDefinition:
    """The flow, the polish and `el_residual` share one residual, relative to
    the prescribed masses in the solvers and to the achieved ones in
    `el_residual`; the two agree to round-off."""

    @pytest.mark.parametrize("p", [2.0, 2.5])
    @pytest.mark.parametrize("n", [256, 4096])
    def test_el_residual_reads_gs_residual(self, p, n):
        if p == 2.0:
            model, masses = t.CouplingModel(np.ones((3, 3)), p), (4 / 3,) * 3
        else:
            model, masses = t.CouplingModel(ASYMMETRIC_A, p), (2.0, 1.5, 1.2)
        m = t.MassTriple(*masses)
        gs = t.minimize(model, m, t.make_grid(n, 40.0))
        for solved in (gs, t.refine_fixed_point(gs.profile, model, m)):
            res = t.el_residual(solved.profile, solved.multipliers, model)
            assert abs(res - solved.residual) <= 1e-13 * solved.residual


class TestFineGridPresets:
    """At n = 4096, L = 40 a fixed residual tolerance of 1e-11 lies below
    round-off; both solvers stop at the floor eps * max k^2 instead."""

    @pytest.mark.parametrize("masses", [(4.0, 0.0, 0.0), (4 / 3, 4 / 3, 4 / 3)])
    def test_flow_then_polish_stop_at_round_off_floor(self, model_ones, masses):
        grid = t.make_grid(4096, 40.0)
        floor = np.finfo(float).eps * np.max(grid.wavenumbers ** 2)
        m = t.MassTriple(*masses)
        gs = t.minimize(model_ones, m, grid)
        assert gs.iterations < 100
        assert gs.residual <= floor
        assert abs(gs.lam + 4 / 3) <= TOLS.lambda_rel * (4 / 3)
        polished = t.refine_fixed_point(gs.profile, model_ones, m)
        assert polished.iterations <= 20
        assert polished.residual <= floor


class TestTwoComponentMin:
    def test_equal_coupling_closed_form(self, grid40):
        gs = oracles.two_component_min(1.0, 1.0, 1.0, 2.0, 2.0, grid40)
        # oracle: both components sech(x), F = 2*(2/3) - (1/2)*(4*(4/3)) = -4/3
        assert abs(gs.lam + 4 / 3) <= TOLS.lambda_rel * (4 / 3)
        u = gs.profile.stack()
        assert np.max(np.abs(np.abs(u[0]) - np.abs(u[1]))) <= 1e-6
        assert np.max(np.abs(u[2])) == 0.0
        exact = 1 / np.cosh(grid40.nodes)
        prof = align_to_center(u[0])
        assert np.max(np.abs(np.abs(prof) - exact)) <= TOLS.profile_max_err
        # both components positive up to a constant phase
        for f in (gs.profile.u1, gs.profile.u2):
            diag = oracles.phase_diagnostics(f)
            assert diag.max_deviation <= TOLS.phase_constancy
            assert diag.min_aligned_real > 0

    def test_weak_coupling_below_single_sum(self, grid40):
        # single-component closed form with coupling alpha: -alpha^2 m^3 / 48
        alpha1, alpha2 = 1.3, 0.8
        m1, m2 = 1.5, 2.0
        gs = oracles.two_component_min(alpha1, alpha2, 0.01, m1, m2, grid40)
        singles = -(alpha1 ** 2 * m1 ** 3 + alpha2 ** 2 * m2 ** 3) / 48
        assert gs.lam <= singles + 1e-6

    def test_rejects_nonpositive_parameters(self, grid40):
        with pytest.raises(ValueError):
            oracles.two_component_min(1.0, 1.0, 0.0, 2.0, 2.0, grid40)


class TestConcentration:
    def test_centered_ground_state_captures_all(self, gs_equal):
        prof = oracles.concentration(gs_equal.profile, [gs_equal.grid.length / 2])
        assert prof.gamma_proxy == pytest.approx(1.0, abs=1e-12)

    def test_two_bump_dichotomy_signature(self, grid40):
        x = grid40.nodes
        bump = lambda c: (1 / np.cosh(2 * (x - c))).astype(complex)
        u = np.stack([bump(-12.0) + bump(12.0), np.zeros_like(x, dtype=complex),
                      np.zeros_like(x, dtype=complex)])
        S = t.State.from_array(grid40, u)
        total = S.masses().sum()
        prof = oracles.concentration(S, [3.0])
        assert prof.values[0] == pytest.approx(total / 2, rel=2e-3)

    def test_rejects_empty_etas(self, gs_equal):
        with pytest.raises(ValueError, match="at least one window half-width"):
            oracles.concentration(gs_equal.profile, [])

    def test_monotone_in_eta(self, gs_equal, rng):
        etas = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
        prof = oracles.concentration(gs_equal.profile, etas)
        vals = np.array(prof.values)
        assert np.all(np.diff(vals) >= 0)
        total = gs_equal.masses_achieved.total
        assert np.all(vals <= total + 1e-12)


class TestSubadditivity:
    def test_single_component_split_closed_form(self, grid40, model_ones):
        res = t.subadditivity_check(model_ones, t.MassTriple(2.0, 0.0, 0.0),
                                    t.MassTriple(2.0, 0.0, 0.0), grid40)
        # -4^3/48 + 2*(2^3/48) = -1
        assert abs(res.margin + 1.0) <= TOLS.subadd_margin_abs
        assert not res.inconclusive

    def test_symmetric_triple_split(self, grid40, model_ones):
        half = t.MassTriple(2 / 3, 2 / 3, 2 / 3)
        res = t.subadditivity_check(model_ones, half, half, grid40)
        assert res.margin < 0
        assert res.margin < -2 * res.tolerance

    def test_degenerate_split_rejected(self, grid40, model_ones):
        with pytest.raises(ValueError):
            t.subadditivity_check(model_ones, t.MassTriple(0.0, 0.0, 0.0),
                                  t.MassTriple(4.0, 0.0, 0.0), grid40)
