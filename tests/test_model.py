"""Energy, gradient, multipliers, closed-form oracles, and symmetries.

Reference numbers (analytic, p=2):
    psi = sqrt(2) sech x solves -psi'' + psi = psi^3
    int |psi'|^2 = 4/3,  int psi^4 = 16/3,  mass psi = 4
    H(psi, 0, 0) = 4/3 - (1/2)(16/3) = -4/3
    equal-coupling triple c (sech, sech, sech), c = sqrt(2/3):
    H = 3*(2/3)*(2/3) - (1/2)*9*(16/27) = -4/3, multipliers (1, 1, 1).
"""

import numpy as np
import pytest

import trinls as t
from trinls.model import (_el_residual_array, _multiplier_array,
                          gradient_fd_error)
from trinls.tolerances import DEFAULT as TOLS

import oracles


def single_state(grid):
    zero = np.zeros(grid.n, dtype=complex)
    psi = np.sqrt(2) / np.cosh(grid.nodes)
    return t.State.from_array(grid, np.stack([psi.astype(complex), zero, zero]))


def triple_state(grid):
    phi = np.sqrt(2 / 3) / np.cosh(grid.nodes)
    return t.State.from_array(grid, np.stack([phi.astype(complex)] * 3))


class TestValidation:
    def test_asymmetric_coupling_rejected(self):
        a = np.ones((3, 3))
        a[0, 1] = 2.0
        with pytest.raises(ValueError, match="symmetric"):
            t.CouplingModel(a, 2.0)

    def test_nonpositive_coupling_rejected(self):
        a = np.ones((3, 3))
        a[1, 2] = a[2, 1] = 0.0
        with pytest.raises(ValueError, match=r"^a23 must be finite and > 0, got 0\.0$"):
            t.CouplingModel(a, 2.0)

    @pytest.mark.parametrize("p", [1.9, 3.0, 3.5])
    def test_exponent_range(self, p):
        with pytest.raises(ValueError, match=rf"^p must be in \[2, 3\), got {p}$"):
            t.CouplingModel(np.ones((3, 3)), p)

    def test_mass_triple_rejects_negative(self):
        with pytest.raises(ValueError):
            t.MassTriple(-1.0, 1.0, 1.0)

    def test_mass_triple_rejects_all_zero(self):
        with pytest.raises(ValueError):
            t.MassTriple(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: t.minimize(t.CouplingModel(np.ones((3, 3)), 2.0),
                            t.MassTriple(np.nan, 1, 1), t.make_grid(256, 30.0)),
         "r must be finite and >= 0, got nan"),
        (lambda: t.MassTriple(np.inf, 0, 0), "r must be finite and >= 0, got inf"),
        (lambda: t.CouplingModel(np.array([[1, 1, np.inf], [1, 1, 1], [np.inf, 1, 1]]),
                                 2.0),
         "a13 must be finite and > 0, got inf"),
        (lambda: t.make_grid(16, np.inf),
         "length must be finite, with length / 16 > 0, got inf"),
        (lambda: t.SolverConfig(residual_tol=np.inf),
         "residual_tol must be finite and > 0, got inf"),
        (lambda: t.SolverConfig(noise=np.inf), "noise must be finite and >= 0, got inf"),
        (lambda: t.make_grid(16.0, 10.0), "n must be an integer, got 16.0"),
        (lambda: t.make_grid("16", 10.0), "n must be an integer, got '16'"),
        (lambda: t.MassTriple("1", 0, 0), "r must be finite and >= 0, got '1'"),
        (lambda: t.make_grid(16, 10 ** 400),
         f"length must be finite, with length / 16 > 0, got {10 ** 400}"),
        (lambda: t.make_grid(2 ** 1400, 10.0),
         f"n must be <= 2**62, got {2 ** 1400}"),
        (lambda: t.make_grid(2 ** 70, 10.0),
         f"n must be <= 2**62, got {2 ** 70}"),
        (lambda: t.MassTriple(10 ** 400, 0, 0), f"r must be finite and >= 0, got {10 ** 400}"),
        (lambda: t.SolverConfig(residual_tol=10 ** 400),
         f"residual_tol must be finite and > 0, got {10 ** 400}"),
        (lambda: t.CouplingModel([["1"] * 3] * 3, 2.0), "a11 must be finite and > 0, got '1'"),
        (lambda: t.CouplingModel([["x"] * 3] * 3, 2.0), "a11 must be finite and > 0, got 'x'"),
    ], ids=["nan-mass", "inf-mass", "inf-coupling", "inf-length", "inf-residual_tol",
            "inf-noise", "float-n", "str-n", "str-mass", "huge-int-length", "huge-int-n",
            "unindexable-n", "huge-int-mass", "huge-int-residual_tol", "str-coupling",
            "non-numeric-coupling"])
    def test_non_finite_or_mistyped_argument_named(self, call, message):
        # each was accepted (a NaN mass solved to lambda = -0.1667, an
        # infinite residual_tol "converged" in 0 iterations, a coupling of
        # numeric strings was converted), returned NaN grid nodes, or raised
        # a bare TypeError, an OverflowError or numpy's own ValueError
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_float32_arguments_accepted(self):
        # the finiteness rule converts with math.isfinite: no numpy warning
        assert t.make_grid(16, np.float32(10.0)).length == 10.0
        assert t.MassTriple(np.float32(1.0), 0, 0).total == 1.0
        assert t.CouplingModel(np.ones((3, 3), np.float32), np.float32(2.0)).a.dtype == float

    def test_state_requires_common_grid(self, grid40):
        other = t.make_grid(512, 40.0)
        f = t.Field(grid40, np.zeros(1024, dtype=complex))
        g = t.Field(other, np.zeros(512, dtype=complex))
        with pytest.raises(ValueError, match="grid mismatch"):
            t.State(f, f, g)


class TestEnergy:
    def test_zero_state(self, grid40, model_ones):
        zero = t.State.from_array(grid40, np.zeros((3, 1024), dtype=complex))
        assert t.energy(zero, model_ones) == 0.0

    def test_single_sech(self, grid40, model_ones):
        assert abs(t.energy(single_state(grid40), model_ones) + 4 / 3) <= 1e-9

    def test_equal_coupling_triple(self, grid40, model_ones):
        assert abs(t.energy(triple_state(grid40), model_ones) + 4 / 3) <= 1e-9


class TestGradient:
    def test_zero_state(self, grid40, model_ones):
        zero = t.State.from_array(grid40, np.zeros((3, 1024), dtype=complex))
        G = oracles.energy_gradient(zero, model_ones)
        assert np.max(np.abs(G.u1.values)) == 0.0

    def test_explicit_solution_residual(self, grid40, model_ones):
        # G_1 = -psi'' - psi^3 = -psi, so G_1 + psi = 0; the max-norm floor
        # is boundary ringing ~ max(k) * sech(L/2) ~ 3e-7 at L=40
        S = single_state(grid40)
        G = oracles.energy_gradient(S, model_ones)
        res = G.u1.values + S.u1.values
        assert np.max(np.abs(res)) <= 1e-6

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_directional_derivative(self, grid40, p, rng):
        model = t.CouplingModel(np.ones((3, 3)), p)
        assert gradient_fd_error(grid40, model, rng) <= TOLS.gradient_fd_rel

    def test_nonlinearity_vanishes_at_zeros(self, grid40):
        # p > 2: |u|^{p-2} u must evaluate to 0 where u = 0, without warnings
        model = t.CouplingModel(np.ones((3, 3)), 2.5)
        u = np.zeros((3, grid40.n), dtype=complex)
        u[0, :10] = 1.0 + 0.5j
        with np.errstate(all="raise"):
            G = oracles.energy_gradient(t.State.from_array(grid40, u), model)
        assert np.all(np.isfinite(G.u1.values))


class TestPrecomputedModuli:
    """Kernels handed the moduli their caller already holds return the same
    bits as when they take |u| themselves."""

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_kernels_bitwise(self, grid40, p, rng):
        from scipy.fft import fft

        from trinls.model import _coefficients, _energy_terms, _nonlinearity
        a = np.array([[1.0, 0.7, 0.5], [0.7, 1.3, 0.9], [0.5, 0.9, 0.8]])
        model = t.CouplingModel(a, p)
        u = t.random_smooth_state(grid40, rng)
        u[2, ::7] = 0.0  # exact zeros take the |u|^{p-2} u := 0 branch
        mod = np.abs(u)
        mod_p = mod ** p
        assert (_coefficients(u, a, p, mod_p).tobytes()
                == _coefficients(u, a, p).tobytes())
        assert (_nonlinearity(u, a, p, mod, mod_p).tobytes()
                == _nonlinearity(u, a, p).tobytes())
        terms = _energy_terms(u, grid40, a, p, None, mod_p)
        for given, own in zip(terms, _energy_terms(u, grid40, a, p)):
            assert given.tobytes() == own.tobytes()
        m = grid40.spacing * np.sum(mod ** 2, axis=1)
        w = _multiplier_array(u, grid40, a, p, m, terms)
        assert w.tobytes() == _multiplier_array(u, grid40, a, p).tobytes()
        given = _el_residual_array(u, w, grid40, a, p, m, fft(u, axis=-1),
                                   _nonlinearity(u, a, p, mod, mod_p))
        own = _el_residual_array(u, w, grid40, a, p)
        assert given[0] == own[0] and given[1].tobytes() == own[1].tobytes()


class TestMultipliersAndResidual:
    def test_single_component_multiplier(self, grid40, model_ones, gs_single4):
        # (4/3 - 16/3) / (-4) = 1 on the live row; the kernel takes live rows
        # only, and the frozen components' NaN is the ground state's
        w = _multiplier_array(single_state(grid40).stack()[:1], grid40,
                              model_ones.a[:1, :1], model_ones.p)
        assert w.shape == (1,) and abs(w[0] - 1.0) <= 1e-9
        assert np.isnan(gs_single4.multipliers.w2) and np.isnan(gs_single4.multipliers.w3)

    def test_zero_mass_component_raises(self, grid40, model_ones):
        with pytest.raises(ValueError, match="undefined multiplier"):
            t.lagrange_multipliers(single_state(grid40), model_ones)

    def test_equal_coupling_multipliers(self, grid40, model_ones):
        mult = t.lagrange_multipliers(triple_state(grid40), model_ones)
        assert np.allclose(mult.as_array(), 1.0, atol=1e-9)

    def test_phase_rotation_leaves_multipliers(self, grid40, model_ones):
        S = triple_state(grid40)
        rotated = oracles.apply_symmetry(S, phases=(0.3, -1.1, 2.0))
        a = t.lagrange_multipliers(S, model_ones).as_array()
        b = t.lagrange_multipliers(rotated, model_ones).as_array()
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_el_residual_closed_forms(self, grid64, model_ones):
        # adequate box: residual floor from tail truncation is ~1e-12 here
        res1 = t.el_residual(single_state(grid64),
                             t.Multipliers(1.0, np.nan, np.nan), model_ones)
        assert res1 <= TOLS.closed_form_residual
        res3 = t.el_residual(triple_state(grid64),
                             t.Multipliers(1.0, 1.0, 1.0), model_ones)
        assert res3 <= TOLS.closed_form_residual

    def test_el_residual_wrong_frequency(self, grid40, model_ones, rng):
        S = t.State.from_array(grid40, t.random_smooth_state(grid40, rng))
        res = t.el_residual(S, t.Multipliers(0.37, 0.37, 0.37), model_ones)
        assert res > 1e-2

    def test_el_residual_all_zero_raises(self, grid40, model_ones):
        zero = t.State.from_array(grid40, np.zeros((3, 1024), dtype=complex))
        with pytest.raises(ValueError, match="zero mass"):
            t.el_residual(zero, t.Multipliers(1.0, 1.0, 1.0), model_ones)


class TestClosedFormProfiles:
    def test_sech_profile_p2(self, grid40):
        psi = t.sech_profile(1.0, 1.0, 2.0, grid40)
        exact = np.sqrt(2) / np.cosh(grid40.nodes)
        assert np.max(np.abs(psi.values - exact)) <= 1e-14

    def test_sech_profile_scaled(self, grid40):
        psi = t.sech_profile(4.0, 1.0, 2.0, grid40)
        exact = 2 * np.sqrt(2) / np.cosh(2 * grid40.nodes)
        assert np.max(np.abs(psi.values - exact)) <= 1e-14

    def test_sech_profile_mass(self, grid40):
        assert abs(oracles.mass(t.sech_profile(1.0, 1.0, 2.0, grid40)) - 4.0) <= 1e-10

    def test_sech_profile_rejects_bad_params(self, grid40):
        with pytest.raises(ValueError):
            t.sech_profile(0.0, 1.0, 2.0, grid40)
        with pytest.raises(ValueError):
            t.sech_profile(1.0, -1.0, 2.0, grid40)

    def test_two_component_beta0(self, grid40):
        f, g = oracles.two_component_profile(1.0, 0.0, grid40)
        exact = np.sqrt(2) / np.cosh(grid40.nodes)
        assert np.max(np.abs(f.values - exact)) <= 1e-14
        assert np.array_equal(f.values, g.values)

    def test_two_component_beta1(self, grid40):
        f, _ = oracles.two_component_profile(1.0, 1.0, grid40)
        exact = 1 / np.cosh(grid40.nodes)
        assert np.max(np.abs(f.values - exact)) <= 1e-14
        assert abs(oracles.mass(f) - 2.0) <= 1e-10

    def test_two_component_rejects(self, grid40):
        with pytest.raises(ValueError):
            oracles.two_component_profile(1.0, -1.0, grid40)
        with pytest.raises(ValueError):
            oracles.two_component_profile(-1.0, 0.0, grid40)


class TestSymmetry:
    def test_identity(self, grid40):
        S = triple_state(grid40)
        out = oracles.apply_symmetry(S)
        assert np.array_equal(out.stack(), S.stack())

    def test_phases_preserve_mass_and_energy(self, grid40, model_ones):
        S = triple_state(grid40)
        out = oracles.apply_symmetry(S, phases=(0.5, 1.5, -0.7))
        assert np.array_equal(out.masses(), S.masses())
        e0, e1 = t.energy(S, model_ones), t.energy(out, model_ones)
        assert abs(e1 - e0) <= TOLS.symmetry_energy_rel * abs(e0)

    def test_grid_step_shift_preserves_invariants(self, grid40, model_ones):
        S = triple_state(grid40)
        out = oracles.apply_symmetry(S, shift=7 * grid40.spacing)
        assert np.max(np.abs(out.masses() - S.masses())) <= 1e-12 * 4
        e0, e1 = t.energy(S, model_ones), t.energy(out, model_ones)
        assert abs(e1 - e0) <= TOLS.symmetry_energy_rel * abs(e0)

    def test_boost_adds_kinetic_energy(self, grid40, model_ones):
        S = triple_state(grid40)
        out = oracles.apply_symmetry(S, boost=0.5)
        # |e^{i sigma x} u|^2 unchanged, kinetic rises by sigma^2 * mass
        assert np.allclose(out.masses(), S.masses(), rtol=1e-14)
        gain = t.energy(out, model_ones) - t.energy(S, model_ones)
        assert gain == pytest.approx(0.25 * S.masses().sum(), rel=1e-9)


class TestInterpolationInequality:
    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_random_fields_below_sharp_constant(self, grid40, p, rng):
        c_sharp = oracles.gn_sharp_constant(p, grid40)
        for _ in range(30):
            f = t.Field(grid40, t.random_smooth_state(grid40, rng)[0])
            assert oracles.gn_ratio(f, p) <= c_sharp * (1 + TOLS.gn_margin_rel)

    def test_sharp_constant_p2_analytic(self, grid40):
        # extremal sqrt(2) sech: (16/3) / ((4/3)^{1/2} * 2^3) = 1/sqrt(3)
        assert oracles.gn_sharp_constant(2.0, grid40) == pytest.approx(1 / np.sqrt(3), rel=1e-10)


class TestPhaseDiagnostics:
    def test_constant_phase_field(self, grid40):
        f = t.Field(grid40, np.exp(1j * 0.8) * (1 / np.cosh(grid40.nodes)))
        diag = oracles.phase_diagnostics(f)
        assert diag.theta == pytest.approx(0.8, abs=1e-12)
        assert diag.max_deviation <= 1e-12
        assert diag.min_aligned_real > 0

    def test_zero_field_raises(self, grid40):
        with pytest.raises(ValueError, match="phase"):
            oracles.phase_diagnostics(t.Field(grid40, np.zeros(1024, dtype=complex)))
