"""Grid, transforms, quadrature, norms, and the discrete rearrangement.

Expected values are analytic integrals of the sech family:
    int sech^2 = 2,  int sech^4 = 4/3,  int sech^2 tanh^2 = 2/3.
"""

import numpy as np
import pytest
import scipy.fft

import trinls as t
from trinls import spectral
from trinls.tolerances import DEFAULT as TOLS

import oracles


def cplx(grid, values):
    return t.Field(grid, np.asarray(values, dtype=complex))


class TestGrid:
    def test_small_grid_layout(self):
        g = t.make_grid(16, 16.0)
        assert g.spacing == 1.0
        assert g.nodes[0] == -8.0
        assert g.nodes[8] == 0.0

    def test_production_spacing(self, grid40):
        assert grid40.spacing == 40.0 / 1024 == 0.0390625
        assert grid40.n * grid40.spacing == grid40.length

    @pytest.mark.parametrize("n", [24, 8, 15, 0])
    def test_rejects_bad_point_count(self, n):
        with pytest.raises(ValueError):
            t.make_grid(n, 10.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            t.make_grid(64, 0.0)

    @pytest.mark.parametrize("length", [5e-324, float("nan"), -1.0])
    def test_rejects_length_without_positive_spacing(self, length):
        with pytest.raises(ValueError) as info:
            t.make_grid(64, length)
        assert str(info.value) == (
            f"length must be finite, with length / 64 > 0, got {length!r}")

    def test_wavenumber_layout(self, grid40):
        k = grid40.wavenumbers
        assert k[0] == 0.0
        assert k[1] == pytest.approx(2 * np.pi / 40.0)
        assert k[grid40.n // 2 + 1] == -k[grid40.n // 2 - 1]


class TestTransformPair:
    """`spectral.fft`/`ifft` and `rfft`/`irfft` call pocketfft's kernels
    without scipy.fft's dispatch; they must give scipy.fft's dtype and bits,
    so a SciPy that moves or changes a kernel fails here."""

    SHAPES = ("1-D", "(1, n)", "(3, n)", "(6, n)", "x[::2]")

    @staticmethod
    def sample(shape, dtype, n):
        """Random samples of `dtype`, real or complex: rows of a (6, n)
        array, every second one for x[::2] (a strided view)."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal((6, n))
        if np.issubdtype(dtype, np.complexfloating):
            x = x + 1j * rng.standard_normal((6, n))
        x = x.astype(dtype)
        return {"1-D": x[0], "(1, n)": x[:1], "(3, n)": x[:3], "(6, n)": x,
                "x[::2]": x[::2]}[shape]

    @staticmethod
    def assert_same_bits(got, want):
        real = np.finfo(want.dtype).dtype
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(real), want.view(real))
        assert np.array_equal(np.signbit(got.view(real)), np.signbit(want.view(real)))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n", [16, 256, 1024, 4096])
    @pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
    def test_bits_of_scipy_fft(self, dtype, n, shape):
        x = self.sample(shape, dtype, n)
        self.assert_same_bits(spectral.fft(x), scipy.fft.fft(x, axis=-1))
        self.assert_same_bits(spectral.ifft(x), scipy.fft.ifft(x, axis=-1))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n", [16, 256, 1024, 4096])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_real_pair_bits_of_scipy_fft(self, dtype, n, shape):
        x = self.sample(shape, dtype, n)
        xh = spectral.rfft(x)
        self.assert_same_bits(xh, scipy.fft.rfft(x, axis=-1))
        kept = xh.copy()
        self.assert_same_bits(spectral.irfft(xh, n), scipy.fft.irfft(xh, n, axis=-1))
        self.assert_same_bits(xh, kept)  # the inverse leaves its input alone

    def test_real_input(self):
        x = np.random.default_rng(0).standard_normal((3, 256))
        assert spectral.fft(x).dtype == spectral.ifft(x).dtype == np.complex128
        self.assert_same_bits(spectral.fft(x), scipy.fft.fft(x, axis=-1))
        self.assert_same_bits(spectral.ifft(x), scipy.fft.ifft(x, axis=-1))


class TestDerivative:
    def test_constant(self, grid40):
        df = oracles.spectral_derivative(cplx(grid40, np.ones(grid40.n)))
        assert np.max(np.abs(df.values)) < 1e-13

    def test_single_mode(self, grid40):
        x = grid40.nodes
        kap = 2 * np.pi / grid40.length
        df = oracles.spectral_derivative(cplx(grid40, np.sin(kap * x)))
        assert np.max(np.abs(df.values - kap * np.cos(kap * x))) < 1e-12

    def test_sech_oracle(self, grid40):
        # on L=40 the error floor is the periodization mismatch sech(L/2) ~ 4e-9
        x = grid40.nodes
        df = oracles.spectral_derivative(cplx(grid40, 1 / np.cosh(x)))
        exact = -np.tanh(x) / np.cosh(x)
        assert np.max(np.abs(df.values - exact)) <= 5e-9

    def test_sech_oracle_wide_box(self):
        # once truncation permits, the scheme itself delivers 1e-10 max norm
        g = t.make_grid(2048, 56.0)
        df = oracles.spectral_derivative(cplx(g, 1 / np.cosh(g.nodes)))
        exact = -np.tanh(g.nodes) / np.cosh(g.nodes)
        assert np.max(np.abs(df.values - exact)) <= 1e-10

    def test_commutes_with_grid_translation(self, grid40, rng):
        f = np.fft.ifft(np.fft.fft(rng.standard_normal(grid40.n))
                        * np.exp(-(grid40.wavenumbers / 3) ** 2))
        shift = 37
        a = oracles.spectral_derivative(cplx(grid40, np.roll(f, shift))).values
        b = np.roll(oracles.spectral_derivative(cplx(grid40, f)).values, shift)
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= TOLS.derivative_commute_rel * scale


class TestQuadratureAndNorms:
    def test_constant(self, grid40):
        assert oracles.integrate(np.ones(grid40.n), grid40) == pytest.approx(40.0)

    def test_sech_squared(self, grid40):
        x = grid40.nodes
        val = oracles.integrate(1 / np.cosh(x) ** 2, grid40)
        assert abs(val - 2.0) <= TOLS.quadrature_sech

    def test_sech_fourth(self, grid40):
        x = grid40.nodes
        val = oracles.integrate(1 / np.cosh(x) ** 4, grid40)
        assert abs(val - 4.0 / 3.0) <= TOLS.quadrature_sech

    def test_mass_zero_field(self, grid40):
        assert oracles.mass(cplx(grid40, np.zeros(grid40.n))) == 0.0

    def test_mass_sech(self, grid40):
        f = cplx(grid40, np.sqrt(2) / np.cosh(grid40.nodes))
        assert abs(oracles.mass(f) - 4.0) <= 1e-10

    def test_mass_phase_invariant(self, grid40, rng):
        g = rng.standard_normal(grid40.n) * np.exp(-grid40.nodes ** 2 / 9)
        f = cplx(grid40, g)
        rotated = cplx(grid40, np.exp(1j * 0.73) * g)
        assert oracles.mass(rotated) == pytest.approx(oracles.mass(f), rel=1e-14)

    def test_h1_inner_sech(self, grid40):
        f = cplx(grid40, 1 / np.cosh(grid40.nodes))
        # int sech^2 + int sech^2 tanh^2 = 2 + 2/3
        assert abs(oracles.h1_inner(f, f).real - (2 + 2 / 3)) <= 1e-10

    def test_h1_inner_hermitian(self, grid40, rng):
        u = t.random_smooth_state(grid40, rng)
        f, g = cplx(grid40, u[0]), cplx(grid40, u[1])
        assert oracles.h1_inner(f, g) == pytest.approx(np.conj(oracles.h1_inner(g, f)), rel=1e-12)

    def test_h1_inner_zero(self, grid40, rng):
        g = cplx(grid40, t.random_smooth_state(grid40, rng)[0])
        z = cplx(grid40, np.zeros(grid40.n))
        assert oracles.h1_inner(z, g) == 0

    def test_h1_grid_mismatch(self, grid40):
        other = t.make_grid(512, 40.0)
        with pytest.raises(ValueError, match="grid mismatch"):
            oracles.h1_inner(cplx(grid40, np.zeros(1024)), cplx(other, np.zeros(512)))

    def test_parseval_roundtrip(self, grid40, rng):
        from scipy.fft import fft, ifft
        for _ in range(5):
            f = rng.standard_normal(grid40.n) + 1j * rng.standard_normal(grid40.n)
            back = ifft(fft(f))
            assert np.max(np.abs(back - f)) <= TOLS.parseval_rel * np.max(np.abs(f))


class TestTranslate:
    def test_whole_step_is_permutation(self, grid40, rng):
        u = t.random_smooth_state(grid40, rng)[0]
        f = cplx(grid40, u)
        shifted = oracles.translate(f, 5 * grid40.spacing)
        assert np.array_equal(shifted.values, np.roll(u, 5))

    def test_half_step_spectral(self, grid40):
        kap = 2 * np.pi / grid40.length
        f = cplx(grid40, np.exp(1j * kap * grid40.nodes))
        y = grid40.spacing / 2
        shifted = oracles.translate(f, y)
        exact = np.exp(1j * kap * (grid40.nodes - y))
        assert np.max(np.abs(shifted.values - exact)) < 1e-12


class TestRearrange:
    def bumps(self, grid, rng, count=4):
        x = grid.nodes
        f = np.zeros(grid.n)
        for _ in range(count):
            f += rng.uniform(0.3, 1.5) * np.exp(
                -(x - rng.uniform(-12, 12)) ** 2 / (2 * rng.uniform(0.8, 2.5) ** 2))
        return f

    def test_symmetric_decreasing_fixed_point(self, grid40):
        f = oracles.RealField(grid40, 1 / np.cosh(grid40.nodes))
        out = oracles.rearrange(f)
        assert np.array_equal(out.values, f.values)

    def test_rejects_negative(self, grid40):
        with pytest.raises(ValueError, match="non-negative"):
            oracles.RealField(grid40, -np.ones(grid40.n))

    @pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 5.0])
    def test_equimeasurability_exact(self, grid40, rng, q):
        f = self.bumps(grid40, rng)
        out = oracles.rearrange(oracles.RealField(grid40, f)).values
        # permutation of samples: identical sorted arrays, hence equal sums
        assert np.array_equal(np.sort(f ** q), np.sort(out ** q))
        lhs = oracles.integrate(out ** q, grid40)
        rhs = oracles.integrate(f ** q, grid40)
        assert abs(lhs - rhs) <= TOLS.equimeasure_rel * max(abs(rhs), 1.0)

    def test_shape_even_and_monotone(self, grid40, rng):
        f = self.bumps(grid40, rng)
        out = oracles.rearrange(oracles.RealField(grid40, f)).values
        center = grid40.n // 2
        # non-increasing in |x| along the placement order
        right = out[center:]
        assert np.all(np.diff(right) <= 0)
        left = out[1:center + 1][::-1]
        assert np.all(np.diff(left) <= 0)
        # even up to the one-sample parity artifact: pairs +-mh interleave the
        # sorted values, so the mismatch is at most one sorting step
        pair_gap = np.abs(out[center + 1:-1] - out[center - 1:1:-1])
        sorted_desc = np.sort(f)[::-1]
        max_step = np.max(np.abs(np.diff(sorted_desc)))
        assert np.max(pair_gap) <= max_step + 1e-15

    def test_polya_szego_with_grid_error(self, grid40, rng):
        eps_grid = TOLS.polya_szego_grid_const * grid40.spacing
        for _ in range(8):
            f = self.bumps(grid40, rng)
            out = oracles.rearrange(oracles.RealField(grid40, f)).values
            ke_f = oracles.mass(oracles.spectral_derivative(cplx(grid40, f)))
            ke_r = oracles.mass(oracles.spectral_derivative(cplx(grid40, out)))
            assert ke_r <= ke_f + eps_grid

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_hardy_littlewood_direction(self, grid40, rng, p):
        eps_grid = TOLS.hardy_littlewood_grid_const * grid40.spacing
        for _ in range(5):
            f = self.bumps(grid40, rng)
            g = self.bumps(grid40, rng)
            fr = oracles.rearrange(oracles.RealField(grid40, f)).values
            gr = oracles.rearrange(oracles.RealField(grid40, g)).values
            lhs = oracles.integrate(fr ** p * gr ** p, grid40)
            rhs = oracles.integrate(f ** p * g ** p, grid40)
            assert lhs >= rhs - eps_grid

    def test_two_bump_three_quarter_min(self, grid40):
        # smooth compactly supported bumps with disjoint supports
        def bump(c, w, amp):
            xi = (grid40.nodes - c) / w
            out = np.zeros(grid40.n)
            m = np.abs(xi) < 1
            out[m] = amp * np.exp(-1.0 / (1.0 - xi[m] ** 2))
            return out

        rng = np.random.default_rng(7)
        for _ in range(5):
            f = bump(-9.0, rng.uniform(1.5, 4), rng.uniform(0.5, 2))
            g = bump(8.0, rng.uniform(1.5, 4), rng.uniform(0.5, 2))
            w = f + g
            ws = oracles.rearrange(oracles.RealField(grid40, w)).values
            ke = lambda v: oracles.mass(oracles.spectral_derivative(cplx(grid40, v)))
            lhs = ke(ws)
            rhs = ke(w) - 0.75 * min(ke(f), ke(g))
            assert lhs <= rhs + TOLS.three_quarter_min_tol


class TestFieldValidation:
    def test_rejects_nan(self, grid40):
        bad = np.zeros(grid40.n, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            t.Field(grid40, bad)

    def test_rejects_wrong_length(self, grid40):
        with pytest.raises(ValueError, match="samples"):
            t.Field(grid40, np.zeros(17, dtype=complex))
