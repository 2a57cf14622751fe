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
from trinls.ground_state import _SHIFT_FALLBACK, _SHIFT_FLOOR, _project, _shift
from trinls.model import _el_residual_array, _multiplier_array
from trinls.tolerances import DEFAULT as TOLS

import oracles


# coupling of the wide command-line preset (p = 2.5, n = 4096, L = 80)
ASYMMETRIC_A = np.array([[1.0, 0.7, 0.5], [0.7, 1.3, 0.9], [0.5, 0.9, 0.8]])
ULP = np.spacing(4 / 3)
TINY = float(np.finfo(float).tiny)  # the smallest normal float


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
        u = _project(u - tau * oracles.gradient_array(u, grid, a, p), m, h)
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
        masses = t.MassTriple(1.0, 1.5, 0.8)
        cfg = t.SolverConfig(initial_state=oracles.noisy_start(masses, grid40, 0.1, 3))
        gs = t.minimize(model_ones, masses, grid40, cfg)
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
        masses = t.MassTriple(1.0, 1.0, 1.0)
        cfg = t.SolverConfig(initial_state=oracles.noisy_start(masses, grid40, 0.2, 11))
        gs = t.minimize(model_ones, masses, grid40, cfg)
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

    @pytest.mark.parametrize("masses, name", [((TINY, 0.0, 0.0), "r"),
                                              ((0.0, 0.0, TINY), "t")])
    def test_underflowing_mass_is_a_convergence_error(self, model_ones, masses,
                                                      name):
        # at the smallest normal target the solved mass comes out one ulp
        # below it, a subnormal: the error names that target, not the
        # achieved masses' MassTriple rule (on L = 30 the real flow's mass
        # comes out at its target, and lambda = +2e-323 is not negative)
        with pytest.raises(t.ConvergenceError,
                           match=f"^mass {name} = {TINY!r} underflows: the solved "
                                 f"component has mass {float(np.nextafter(TINY, 0))!r}$"):
            t.minimize(model_ones, t.MassTriple(*masses), t.make_grid(256, 10.0))

    def test_non_negative_minimum_is_not_a_minimizer(self, model_ones):
        # at r = 1e-300 the converged lambda rounds to a positive subnormal
        with pytest.raises(t.ConvergenceError,
                           match="^converged to non-negative energy") as err:
            t.minimize(model_ones, t.MassTriple(1e-300, 0.0, 0.0),
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
        ("max_iters", 0), ("max_iters", -5), ("max_iters", 2.5), ("max_iters", "5")])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            t.SolverConfig(**{field: value})

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

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_double_moduli_within_one_ulp(self, n):
        # at p != 2 the solvers form |u|^p in double: lambda stays within an
        # ulp of the all-long-double value on the same profile
        rng, iu = np.random.default_rng(2027), np.triu_indices(3)
        for _ in range(6):
            a = np.empty((3, 3))
            a[iu] = rng.uniform(0.8, 1.2, 6)
            a.T[iu] = a[iu]
            model = t.CouplingModel(a, float(rng.uniform(2.05, 2.5)))
            m = t.MassTriple(*rng.uniform(0.5, 2.0, 3))
            gs = t.minimize(model, m, t.make_grid(n, 40.0))
            lam = oracles.lambda_long_double(gs, model, m)
            assert abs(gs.lam - lam) <= np.spacing(abs(lam))

    @pytest.mark.parametrize("masses", [(4.0, 0.0, 0.0), (4 / 3, 4 / 3, 4 / 3),
                                        (1.0, 0.75, 0.0), (2.0, 1.5, 1.2)])
    @pytest.mark.parametrize("a", [np.ones((3, 3)), ASYMMETRIC_A], ids=["ones", "asym"])
    def test_p2_lambda_is_long_double(self, a, masses):
        # at p = 2 every step stays in extended precision, bit for bit
        model, m = t.CouplingModel(a, 2.0), t.MassTriple(*masses)
        gs = t.minimize(model, m, t.make_grid(1024, 40.0))
        polished = t.refine_fixed_point(gs.profile, model, m)
        for g in (gs, polished):
            assert g.lam == oracles.lambda_long_double(g, model, m)


class TestScaleCovariance:
    """The discrete problem keeps the mass-scaling law: with n fixed and
    L ~ mu^(-(p-1)/(3-p)), lambda(mu m) = mu^((p+1)/(3-p)) lambda(m) and the
    multipliers scale like (2 pi / L)^2, as the flow's shifts do."""

    def test_shift_at_length_40_is_the_named_constants(self):
        assert (_SHIFT_FLOOR, _SHIFT_FALLBACK) == (1e-3, 0.5)
        above = np.nextafter(1e-3, 1.0)
        w = np.array([-1.0, 0.0, 1e-3, above, 0.7])
        assert np.array_equal(_shift(w, t.make_grid(256, 40.0)),
                              [0.5, 0.5, 0.5, above, 0.7])
        # twice the box: a quarter of both
        assert np.array_equal(_shift(np.array([2.5e-4, 2.6e-4]), t.make_grid(256, 80.0)),
                              [0.125, 2.6e-4])

    @pytest.mark.parametrize("p, length", [(2.0, 40.0), (2.5, 640.0)])
    def test_scaled_family(self, p, length):
        # mu <= 1/2 at p = 2.5 puts multipliers below 1e-3, the shift floor
        # at L = 40: a floor that did not scale made those flows crawl
        model, m = t.CouplingModel(ASYMMETRIC_A, p), np.array([1.0, 1.0, 1.2])
        lams, iters = [], []
        for mu in (0.25, 0.5, 1.0, 2.0, 4.0):
            grid = t.make_grid(1024, length * mu ** (-(p - 1) / (3 - p)))
            gs = t.minimize(model, t.MassTriple(*(mu * m)), grid)
            lams.append(gs.lam * mu ** (-(p + 1) / (3 - p)))
            iters.append(gs.iterations)
        assert np.max(np.abs(np.array(lams) - lams[2])) <= TOLS.lambda_rel * abs(lams[2])
        assert max(iters) <= 3 * min(iters)

    def test_energy_slack_scales_with_the_energy(self):
        # mu = 8 of the p = 2.5 family, |H| ~ 5e4: near convergence an
        # absolute slack of 1e-11, below H's round-off there, rejected mixed
        # iterates whose energy rose by 1e-15 |H| (62 iterations)
        model = t.CouplingModel(ASYMMETRIC_A, 2.5)
        gs = t.minimize(model, t.MassTriple(8.0, 8.0, 9.6), t.make_grid(1024, 1.25))
        assert gs.iterations <= 60

    @pytest.mark.parametrize("masses, n, length", [
        ((0.5, 0.5, 0.6), 1024, 5120.0), ((0.4, 0.5, 0.6), 1024, 5120.0),
        ((0.5, 0.5, 0.6), 8192, 1280.0)])
    def test_small_frequency_triples(self, masses, n, length):
        # resolved boxes for multipliers below 1e-3, the shift floor at L = 40
        gs = t.minimize(t.CouplingModel(ASYMMETRIC_A, 2.5), t.MassTriple(*masses),
                        t.make_grid(n, length))
        assert gs.iterations <= 40


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
        masses, grid = t.MassTriple(0.0, 3.76, 0.0), t.make_grid(256, 40.0)
        cfg = t.SolverConfig(max_iters=max_iters,
                             initial_state=oracles.noisy_start(masses, grid, 0.2, 54))
        with pytest.raises(t.ConvergenceError) as err:
            t.minimize(model, masses, grid, cfg)
        gs = err.value.last
        assert gs.iterations == max_iters
        assert t.el_residual(gs.profile, gs.multipliers, model) <= 1e-8

    def test_stalled_flow_fails_fast(self):
        # the same stalled start: no new lowest residual for 50 iterations
        # ends the solve long before max_iters = 5000
        model = t.CouplingModel(np.full((3, 3), 1.054), 2.36)
        masses, grid = t.MassTriple(0.0, 3.76, 0.0), t.make_grid(256, 40.0)
        cfg = t.SolverConfig(initial_state=oracles.noisy_start(masses, grid, 0.2, 54))
        with pytest.raises(t.ConvergenceError, match="the last 50 without") as info:
            t.minimize(model, masses, grid, cfg)
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

    def test_phased_start_polishes_to_real_profile(self, gs_equal, model_ones):
        # e^{i theta_j} u_j is polished from |u_j|: the phases are dropped
        masses = t.MassTriple(4 / 3, 4 / 3, 4 / 3)
        phases = np.exp(1j * np.array([0.3, -1.1, 2.0]))[:, None]
        phased = t.State.from_array(gs_equal.grid, phases * gs_equal.profile.stack())
        polished = t.refine_fixed_point(phased, model_ones, masses)
        im = polished.profile.stack().imag
        assert np.all(im == 0) and not np.any(np.signbit(im))  # +0.0 each
        assert polished.lam == t.refine_fixed_point(gs_equal.profile, model_ones,
                                                    masses).lam


class TestLiveRows:
    """The flow and the polish work on the components with positive target
    mass only; the others come back as exact zeros with NaN multipliers."""

    @staticmethod
    def record_transforms(monkeypatch):
        """Wrap the transform names (fft, ifft, rfft, irfft) the solver and
        the model kernels call; returns the list of the row counts they were
        given."""
        import trinls.ground_state as ground_state
        import trinls.model as model
        rows = []
        for module in (ground_state, model):
            for name in ("fft", "ifft", "rfft", "irfft"):
                if not hasattr(module, name):
                    continue
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


class TestRealFlow:
    """The flow, its mixing history, the polish and lambda run on real
    arrays: replacing u by |u| keeps the masses and does not raise H, and the
    minimizers are real up to a constant phase per component."""

    @pytest.mark.parametrize("masses", [(2.0, 1.5, 1.2), (0.0, 1.5, 1.2),
                                        (2.0, 0.0, 0.0)])
    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_no_complex_transform(self, monkeypatch, p, masses):
        import trinls.ground_state as ground_state
        import trinls.model as model

        def refuse(*args, **kwargs):
            raise AssertionError("a complex transform in a ground-state solver")

        assert not hasattr(ground_state, "fft") and not hasattr(ground_state, "ifft")
        for name in ("fft", "ifft"):
            monkeypatch.setattr(model, name, refuse)
        coupling, m = t.CouplingModel(ASYMMETRIC_A, p), t.MassTriple(*masses)
        gs = t.minimize(coupling, m, t.make_grid(256, 40.0))
        for solved in (gs, t.refine_fixed_point(gs.profile, coupling, m)):
            im = solved.profile.stack().imag
            assert np.all(im == 0) and not np.any(np.signbit(im))  # +0.0 each

    @pytest.mark.parametrize("phases", [(1j, -1.0, -1j),
                                        tuple(np.exp(1j * np.array([0.4, 1.0, -2.3])))])
    def test_start_phases_are_dropped(self, grid40, phases):
        # e^{i theta_j} u_j starts the flow from |e^{i theta_j} u_j|: the
        # bits of u_j itself for the unit phases 1j, -1, -1j
        model, masses = t.CouplingModel(ASYMMETRIC_A, 2.5), t.MassTriple(2.0, 1.5, 1.2)
        u = np.exp(-(grid40.nodes - np.array([[0.0], [1.0], [-1.5]])) ** 2 / 8)
        rotated = np.array(phases)[:, None] * u
        moduli = np.abs(rotated)
        if phases[0] == 1j:
            assert moduli.tobytes() == u.tobytes()
        a, b = (t.minimize(model, masses, grid40, t.SolverConfig(
            initial_state=t.State.from_array(grid40, v))) for v in (rotated, moduli))
        assert a.profile.stack().tobytes() == b.profile.stack().tobytes()
        assert (a.lam, a.residual, a.iterations) == (b.lam, b.residual, b.iterations)
        assert a.multipliers == b.multipliers


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
