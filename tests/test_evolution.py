"""Split-step integration: conservation, accuracy order, reversibility.

The nonlinear substep is a pure phase rotation, so both substeps preserve
the per-component masses exactly; only round-off accumulates.  The energy is
conserved up to the O(dt^2) splitting error for generic states.  On a ground
state (a relative equilibrium) the leading drift term degenerates, which is
why the order fit below uses a non-stationary gaussian state.
"""

import subprocess
import sys

import numpy as np
import pytest

import trinls as t
from trinls.stability import _y_norm
from trinls.tolerances import DEFAULT as TOLS


# asymmetric coupling of the wide command-line preset (p = 2.5, n = 4096)
ASYMMETRIC_A = np.array([[1.0, 0.7, 0.5], [0.7, 1.3, 0.9], [0.5, 0.9, 0.8]])


def gaussian_triple(grid, masses=(1.0, 1.0, 1.0)):
    x = grid.nodes
    u = np.stack([np.exp(-x ** 2 / 2).astype(complex) for _ in range(3)])
    for j in range(3):
        u[j] *= np.sqrt(masses[j] / (grid.spacing * np.sum(np.abs(u[j]) ** 2)))
    return t.State.from_array(grid, u)


def moving_triple(grid, masses):
    """Gaussians with distinct offsets and momenta, scaled to `masses`."""
    x = grid.nodes
    u = np.stack([np.exp(-(x - 0.3 * j) ** 2 / 2 + 0.4j * j * x) for j in range(3)])
    for j in range(3):
        u[j] *= np.sqrt(masses[j] / (grid.spacing * np.sum(np.abs(u[j]) ** 2)))
    return t.State.from_array(grid, u)


class Samples(list):
    """A `sample` hook for `evolve` that keeps every (t, State) it is given."""

    def __call__(self, time, state):
        self.append((time, state))


def reference_evolve(state0, T, dt, model, snapshot_every=0, sample=None):
    """Plain Strang loop: three separate transforms per step, the phase
    factor written out, the energy from the model kernel, drifts formed step
    by step and the guard on the energy; every `snapshot_every` steps (and
    the last) the state goes to `sample`.  `evolve` must give the same
    trajectory, samples and drifts bit for bit."""
    from scipy.fft import fft, ifft
    from trinls.evolution import _phase_coefficient
    from trinls.model import _energy_array

    def mass_energy(u, uh):
        mod2 = np.abs(u) ** 2
        E = _energy_array(u, grid, model.a, model.p, uh,
                          mod2 if model.p == 2.0 else np.abs(u) ** model.p)
        return grid.spacing * np.sum(mod2, axis=1), E

    grid = state0.grid
    nsteps = int(round(T / abs(dt)))
    u = state0.stack()
    uh = fft(u, axis=-1)
    m0, E0 = mass_energy(u, uh)
    active = m0 > 0
    e_scale = abs(E0) if E0 != 0 else 1.0
    times = np.arange(nsteps + 1) * dt
    e_drift = np.zeros(nsteps + 1)
    m_drift = np.zeros((nsteps + 1, 3))
    if snapshot_every > 0:
        sample(0.0, t.State.from_array(grid, u))
    half = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2)
    rot = np.empty_like(u)
    for s in range(1, nsteps + 1):
        v = ifft(half * uh, axis=-1)
        theta = dt * _phase_coefficient(v, model.a, model.p)
        if np.max(np.abs(theta)) <= np.pi / 4:
            rot.imag = np.sin(theta)
            rot.real = np.sqrt(1.0 - rot.imag ** 2)
        else:
            rot.real = np.cos(theta)
            rot.imag = np.sin(theta)
        v *= rot
        uh = fft(v, axis=-1)
        uh *= half
        u = ifft(uh, axis=-1)
        m, E = mass_energy(u, uh)
        if not np.isfinite(E):
            raise t.BlowUpError("non-finite state", trace=t.EvolutionTrace(
                times=times[:s], energy_drift=e_drift[:s], mass_drifts=m_drift[:s]))
        e_drift[s] = abs(E - E0) / e_scale
        m_drift[s, active] = np.abs(m[active] - m0[active]) / m0[active]
        if snapshot_every > 0 and (s % snapshot_every == 0 or s == nsteps):
            sample(s * dt, t.State.from_array(grid, u))
    return t.EvolutionTrace(times=times, energy_drift=e_drift, mass_drifts=m_drift)


def assert_same_samples(samples, ref):
    """Byte-identical sample times and states."""
    assert [s for s, _ in samples] == [s for s, _ in ref]
    for (_, a), (_, b) in zip(samples, ref):
        assert a.stack().tobytes() == b.stack().tobytes()


def assert_same_trace(trace, ref, samples=(), ref_samples=()):
    """Byte-identical times, drifts and samples."""
    assert trace.times.tobytes() == ref.times.tobytes()
    assert trace.mass_drifts.tobytes() == ref.mass_drifts.tobytes()
    assert trace.energy_drift.tobytes() == ref.energy_drift.tobytes()
    assert_same_samples(samples, ref_samples)


class TestStep:
    def test_zero_state(self, grid40, model_ones):
        zero = t.State.from_array(grid40, np.zeros((3, 1024), dtype=complex))
        out = t.step(zero, 1e-3, model_ones)
        assert np.max(np.abs(out.stack())) == 0.0

    def test_linear_limit_plane_wave(self, grid40):
        # couplings -> 0 limit: one Fourier mode advances as e^{-i k^2 dt}
        tiny = t.CouplingModel(np.full((3, 3), 1e-30), 2.0)
        kap = grid40.wavenumbers[5]
        wave = np.exp(1j * kap * grid40.nodes)
        S = t.State.from_array(grid40, np.stack([wave, 0 * wave, 0 * wave]))
        dt = 1e-2
        out = t.step(S, dt, tiny)
        exact = np.exp(-1j * kap ** 2 * dt) * wave
        assert np.max(np.abs(out.u1.values - exact)) <= 1e-12

    def test_standing_wave_phase_law(self, gs_equal, model_ones):
        # one unit of time at dt = 1e-3 vs exact phase rotation
        grid = gs_equal.grid
        state = gs_equal.profile
        dt, T = 1e-3, 1.0
        trace_state = state
        for _ in range(int(T / dt)):
            trace_state = t.step(trace_state, dt, model_ones)
        w = gs_equal.multipliers.as_array()
        ref = np.stack([np.exp(1j * w[j] * T) * state.stack()[j] for j in range(3)])
        err = _y_norm(trace_state.stack() - ref, grid)
        assert err <= TOLS.standing_wave_ynorm

    def test_evolve_matches_repeated_step(self, gs_equal, model_ones):
        state = gs_equal.profile
        dt = 2e-3
        snaps = Samples()
        t.evolve(state, 3 * dt, dt, model_ones, snapshot_every=3, sample=snaps)
        manual = state
        for _ in range(3):
            manual = t.step(manual, dt, model_ones)
        final = snaps[-1][1]
        assert _y_norm(final.stack() - manual.stack(), gs_equal.grid) <= 1e-13

    @pytest.mark.parametrize("masses", [(1.0, 1.0, 1.0), (1.2, 0.0, 0.8)],
                             ids=["all_mass", "zero_mass"])
    @pytest.mark.parametrize("a", [np.ones((3, 3)), ASYMMETRIC_A],
                             ids=["ones", "asymmetric"])
    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_evolve_matches_repeated_step_general(self, grid40, p, a, masses):
        # evolve carries the spectrum across steps; step() transforms in and
        # out every time: both must agree to round-off
        model = t.CouplingModel(a, p)
        state = gaussian_triple(grid40, masses)
        dt = 2e-3
        snaps = Samples()
        t.evolve(state, 3 * dt, dt, model, snapshot_every=3, sample=snaps)
        manual = state
        for _ in range(3):
            manual = t.step(manual, dt, model)
        final = snaps[-1][1]
        assert _y_norm(final.stack() - manual.stack(), grid40) <= 1e-13

    @pytest.mark.parametrize("dt", [1e-3, -1e-3], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("masses", [(1.0, 1.0, 1.0), (1.2, 0.0, 0.8)],
                             ids=["all_mass", "zero_mass"])
    @pytest.mark.parametrize("a", [np.ones((3, 3)), ASYMMETRIC_A],
                             ids=["ones", "asymmetric"])
    @pytest.mark.parametrize("p", [2.0, 2.5])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_evolve_matches_reference_loop(self, n, p, a, masses, dt):
        # the stacked inverse transform and the dot-product record leave the
        # trajectory bit for bit as the plain three-transform loop has it
        grid = t.make_grid(n, 40.0)
        model = t.CouplingModel(a, p)
        state = moving_triple(grid, masses)
        snaps, ref_snaps = Samples(), Samples()
        trace = t.evolve(state, 0.02, dt, model, snapshot_every=3, sample=snaps)
        ref = reference_evolve(state, 0.02, dt, model, 3, ref_snaps)
        assert_same_trace(trace, ref, snaps, ref_snaps)


def recorded_steps(nsteps, record_every):
    """Step indices `evolve` records: 0, every record_every-th, the last."""
    steps = list(range(0, nsteps + 1, record_every))
    return steps if steps[-1] == nsteps else steps + [nsteps]


class TestRecordEvery:
    @pytest.mark.parametrize("dt", [1e-3, -1e-3], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("record_every", [1, 7, 100])
    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_rows_are_the_per_step_rows(self, p, record_every, dt):
        # 250 steps: a multiple of neither 7 nor 100; snapshots every 9 steps
        grid = t.make_grid(256, 40.0)
        model = t.CouplingModel(ASYMMETRIC_A, p)
        state = moving_triple(grid, (1.2, 0.0, 0.8))
        full_snaps, snaps = Samples(), Samples()
        full = t.evolve(state, 0.25, dt, model, snapshot_every=9, sample=full_snaps)
        sampled = t.evolve(state, 0.25, dt, model, snapshot_every=9,
                           record_every=record_every, sample=snaps)
        rows = recorded_steps(250, record_every)
        assert rows[-1] == 250
        assert sampled.times.tobytes() == full.times[rows].tobytes()
        assert sampled.energy_drift.tobytes() == full.energy_drift[rows].tobytes()
        assert sampled.mass_drifts.tobytes() == full.mass_drifts[rows].tobytes()
        assert len(full_snaps) == 29  # 0, 9, ..., 243 and 250
        assert_same_samples(snaps, full_snaps)

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_rejects_non_positive(self, gs_equal, model_ones, record_every):
        with pytest.raises(ValueError, match="record_every"):
            t.evolve(gs_equal.profile, 0.01, 1e-3, model_ones,
                     record_every=record_every)

    def test_stability_matches_per_step_record(self, gs_equal, model_ones,
                                                monkeypatch):
        # stability runs record at their sampling cadence; forcing a record
        # on every step must leave the distances and their times unchanged
        from trinls import evolution, stability
        kw = dict(delta=1e-2, T=0.35, dt=1e-3, sample_every=100, seed=4)
        sampled = t.stability_experiment(gs_equal, model_ones,
                                         "mass_preserving_random", **kw)

        def per_step(*args, record_every, **kwargs):
            return evolution.evolve(*args, record_every=1, **kwargs)

        monkeypatch.setattr(stability, "evolve", per_step)
        full = t.stability_experiment(gs_equal, model_ones,
                                      "mass_preserving_random", **kw)
        rows = recorded_steps(350, 100)
        assert sampled.trace.times.tobytes() == full.trace.times[rows].tobytes()
        assert sampled.distances.tobytes() == full.distances.tobytes()
        assert sampled.sup_distance == full.sup_distance
        assert sampled.verdict == full.verdict == "bounded"
        assert (sampled.trace.energy_drift.tobytes()
                == full.trace.energy_drift[rows].tobytes())
        assert (sampled.trace.mass_drifts.tobytes()
                == full.trace.mass_drifts[rows].tobytes())


class TestPhaseFactor:
    """cos + i sin from one sine up to max |phase| = pi/4, np.cos past it."""

    def test_one_sine_side(self):
        from trinls.evolution import _phase_factor
        rng = np.random.default_rng(5)
        phase = np.concatenate([np.linspace(-np.pi / 4, np.pi / 4, 200000),
                                rng.uniform(-1e-3, 1e-3, 100000)]).reshape(3, -1)
        rot = np.empty(phase.shape, dtype=complex)
        _phase_factor(phase.copy(), np.pi / 4, rot)
        cos = np.cos(phase)
        assert rot.imag.tobytes() == np.sin(phase).tobytes()
        assert np.all(np.abs(rot.real - cos) <= np.spacing(cos))
        eps = np.finfo(float).eps
        assert np.max(np.abs(rot.real ** 2 + rot.imag ** 2 - 1.0)) <= 4 * eps

    @pytest.mark.parametrize("bound", [np.nextafter(np.pi / 4, 4.0), 3.0, np.nan])
    def test_fallback_side_is_numpy(self, bound):
        from trinls.evolution import _phase_factor
        phase = np.linspace(-3.0, 3.0, 3 * 1001).reshape(3, -1)
        rot = np.empty(phase.shape, dtype=complex)
        _phase_factor(phase.copy(), bound, rot)
        assert rot.real.tobytes() == np.cos(phase).tobytes()
        assert rot.imag.tobytes() == np.sin(phase).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_step_switches_at_max_phase(self, grid40, p, side, sign):
        # a constant state: the linear substeps keep |u| to round-off, so dt
        # puts max |theta dt| one part in 1e9 below or above pi/4
        from scipy.fft import fft, ifft
        from trinls.evolution import _phase_coefficient
        model = t.CouplingModel(ASYMMETRIC_A, p)
        u = np.ones((3, grid40.n)) * np.array([[1.0], [0.5j], [0.8]])
        rate = _phase_coefficient(u, model.a, p).max()
        dt = sign * (np.pi / 4) / rate * (1 + side * 1e-9)
        half = np.exp(-1j * grid40.wavenumbers ** 2 * dt / 2)
        v = ifft(half * fft(u, axis=-1), axis=-1)
        theta = dt * _phase_coefficient(v, model.a, p)
        assert (np.max(np.abs(theta)) > np.pi / 4) == (side > 0)
        if side > 0:
            rot = np.cos(theta) + 1j * np.sin(theta)
        else:
            sin = np.sin(theta)
            rot = np.sqrt(1.0 - sin * sin) + 1j * sin
        ref = ifft(fft(v * rot, axis=-1) * half, axis=-1)
        state = t.State.from_array(grid40, u)
        assert t.step(state, dt, model).stack().tobytes() == ref.tobytes()


class TestModulusPass:
    """The phase coefficient and the per-step record take |u| once; the
    references below are the two-pass forms they replace."""

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_phase_coefficient_bitwise(self, grid40, p, rng):
        from trinls.evolution import _phase_coefficient
        from trinls.model import _coefficients
        u = t.random_smooth_state(grid40, rng)
        u[1, ::5] = 0.0
        ref = _coefficients(u, ASYMMETRIC_A, p)
        if p != 2.0:
            ref = ref * np.abs(u) ** (p - 2.0)
        assert _phase_coefficient(u, ASYMMETRIC_A, p).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_record_bitwise(self, grid40, p, rng):
        # the record's masses and energy are State.masses() and energy()
        from scipy.fft import fft
        from trinls.evolution import _record
        model = t.CouplingModel(ASYMMETRIC_A, p)
        u = t.random_smooth_state(grid40, rng)
        state = t.State.from_array(grid40, u)
        m, E = _record(u, fft(u, axis=-1), grid40, model)
        assert m.tobytes() == state.masses().tobytes()
        assert E == t.energy(state, model)


class TestConservation:
    def test_ground_state_drifts(self, gs_equal, model_ones):
        trace = t.evolve(gs_equal.profile, 2.0, 1e-3, model_ones)
        assert trace.mass_drifts.max() <= TOLS.mass_drift
        assert trace.energy_drift.max() <= TOLS.energy_drift

    def test_galilean_boost_speed(self, gs_equal, model_ones):
        sigma = 0.5
        boosted = t.apply_symmetry(gs_equal.profile, boost=sigma)
        T = 8.0
        snaps = Samples()
        trace = t.evolve(boosted, T, 1e-3, model_ones, snapshot_every=8000,
                         sample=snaps)
        final = snaps[-1][1]
        grid = gs_equal.grid
        rho0 = np.sum(np.abs(boosted.stack()) ** 2, axis=0)
        rho1 = np.sum(np.abs(final.stack()) ** 2, axis=0)
        c0 = np.sum(grid.nodes * rho0) / np.sum(rho0)
        c1 = np.sum(grid.nodes * rho1) / np.sum(rho1)
        speed = (c1 - c0) / T
        assert speed == pytest.approx(2 * sigma, rel=1e-2)
        assert trace.mass_drifts.max() <= TOLS.mass_drift

    def test_splitting_order(self, grid40, model_ones):
        state = gaussian_triple(grid40)
        drifts = []
        for dt in (4e-3, 2e-3, 1e-3):
            trace = t.evolve(state, 1.0, dt, model_ones)
            drifts.append(trace.energy_drift.max())
        d = np.array(drifts)
        orders = np.log2(d[:-1] / d[1:])
        assert np.all(orders >= TOLS.splitting_order_lo)
        assert np.all(orders <= TOLS.splitting_order_hi)

    def test_time_reversal(self, gs_equal, model_ones, rng):
        # symmetric scheme: the backward map undoes the forward map
        start = t.State.from_array(
            gs_equal.grid,
            gs_equal.profile.stack() + 0.05 * t.random_smooth_state(gs_equal.grid, rng))
        fwd, back = Samples(), Samples()
        t.evolve(start, 1.0, 1e-3, model_ones, snapshot_every=1000, sample=fwd)
        end = fwd[-1][1]
        t.evolve(end, 1.0, -1e-3, model_ones, snapshot_every=1000, sample=back)
        returned = back[-1][1]
        err = _y_norm(returned.stack() - start.stack(), gs_equal.grid)
        assert err <= TOLS.reversal_ynorm

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_trace_matches_snapshot_drifts(self, grid40, p):
        # the per-step record equals the drifts recomputed from every state
        # with the public energy and masses
        model = t.CouplingModel(ASYMMETRIC_A, p)
        state = gaussian_triple(grid40, (1.2, 0.0, 0.8))
        snaps = Samples()
        trace = t.evolve(state, 0.05, 1e-3, model, snapshot_every=1, sample=snaps)
        states = [s for _, s in snaps]
        E = np.array([t.energy(s, model) for s in states])
        m = np.array([s.masses() for s in states])
        m_drift = np.zeros_like(m)
        live = m[0] > 0
        m_drift[:, live] = np.abs(m[:, live] - m[0, live]) / m[0, live]
        assert len(states) == len(trace.times)
        assert np.allclose(trace.energy_drift, np.abs(E - E[0]) / abs(E[0]),
                           rtol=0, atol=1e-12)
        assert np.allclose(trace.mass_drifts, m_drift, rtol=0, atol=1e-12)

    def test_trace_shapes(self, gs_equal, model_ones):
        snaps = Samples()
        trace = t.evolve(gs_equal.profile, 0.05, 1e-3, model_ones, snapshot_every=10,
                         sample=snaps)
        assert trace.times.shape == (51,)
        assert trace.energy_drift.shape == (51,)
        assert trace.mass_drifts.shape == (51, 3)
        assert trace.times[0] == 0.0
        assert trace.energy_drift[0] == 0.0
        # snapshots at 0, 10, ..., 50
        assert len(snaps) == 6

    def test_zero_duration(self, gs_equal, model_ones):
        trace = t.evolve(gs_equal.profile, 0.0, 1e-3, model_ones)
        assert trace.times.shape == (1,)
        assert trace.energy_drift[0] == 0.0


class TestBlowUpGuard:
    def test_overflow_raises_with_partial_trace(self, grid40):
        # p = 2.5 drives |u|^p past the float range for astronomically
        # scaled input; the guard must flag it and keep the partial record
        model = t.CouplingModel(np.ones((3, 3)), 2.5)
        u = np.full((3, 1024), 1e200, dtype=complex)
        u *= np.exp(-grid40.nodes ** 2)[None, :]
        S = t.State.from_array(grid40, u)
        with pytest.raises(t.BlowUpError) as err:
            with np.errstate(all="ignore"):
                t.evolve(S, 1.0, 1e-3, model)
        assert err.value.trace is not None
        assert err.value.trace.times.shape[0] >= 1

    def test_partial_trace_ends_at_first_non_finite_step(self, grid40):
        model = t.CouplingModel(np.ones((3, 3)), 2.5)
        u = np.full((3, 1024), 1e200, dtype=complex)
        u *= np.exp(-grid40.nodes ** 2)[None, :]
        S = t.State.from_array(grid40, u)
        snaps, ref_snaps = Samples(), Samples()
        with np.errstate(all="ignore"):
            with pytest.raises(t.BlowUpError) as err:
                t.evolve(S, 1.0, 1e-3, model, snapshot_every=1, sample=snaps)
            with pytest.raises(t.BlowUpError) as ref:
                reference_evolve(S, 1.0, 1e-3, model, 1, ref_snaps)
        trace = err.value.trace
        assert_same_trace(trace, ref.value.trace, snaps, ref_snaps)
        assert trace.energy_drift[0] == 0.0
        assert np.all(np.isfinite(trace.energy_drift))
        assert np.all(np.isfinite(trace.mass_drifts))
        # one snapshot per completed step, none at or after the failing one
        assert len(snaps) == len(trace.times)
        assert snaps[-1][0] < len(trace.times) * 1e-3

    @pytest.mark.parametrize("bad_step", [13, 14])
    def test_sampled_record_stops_at_first_non_finite_step(self, grid40,
                                                           monkeypatch, bad_step):
        # an infinite rate on one step turns that step's state non-finite;
        # the guard must fire there, not at the next recorded step
        from trinls import evolution
        calls = []

        def rates(u, a, p):
            calls.append(None)
            theta = evolution._coefficients(u, a, p)
            if len(calls) == bad_step:
                theta[1, 100] = np.inf
            return theta

        monkeypatch.setattr(evolution, "_phase_coefficient", rates)
        model = t.CouplingModel(np.ones((3, 3)), 2.0)
        state = moving_triple(grid40, (1.0, 1.0, 1.0))
        traces, samples = {}, {}
        for record_every in (1, 7):
            calls.clear()
            samples[record_every] = Samples()
            with np.errstate(invalid="ignore"):
                with pytest.raises(t.BlowUpError) as err:
                    t.evolve(state, 0.05, 1e-3, model, snapshot_every=5,
                             record_every=record_every,
                             sample=samples[record_every])
            assert str(err.value) == f"non-finite state at t = {bad_step * 1e-3:g}"
            assert len(calls) == bad_step
            traces[record_every] = err.value.trace
        full, sampled = traces[1], traces[7]
        rows = [0, 7]              # the record at step 14 is never reached
        assert len(full.times) == bad_step
        assert sampled.times.tobytes() == full.times[rows].tobytes()
        assert sampled.energy_drift.tobytes() == full.energy_drift[rows].tobytes()
        assert sampled.mass_drifts.tobytes() == full.mass_drifts[rows].tobytes()
        assert [s for s, _ in samples[7]] == [0.0, 5e-3, 10e-3]
        assert_same_samples(samples[7], samples[1])

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_energy_overflow_raises_at_first_record(self, record_every):
        # at p = 2.5 and |u| ~ 1e80 the rates stay finite while the energy
        # overflows: the record, not the rate check, must flag it
        grid = t.make_grid(256, 40.0)
        model = t.CouplingModel(np.ones((3, 3)), 2.5)
        u = np.stack([1e80 * np.exp(-grid.nodes ** 2 / 2).astype(complex)] * 3)
        with np.errstate(all="ignore"):
            with pytest.raises(t.BlowUpError) as err:
                t.evolve(t.State.from_array(grid, u), 0.05, 1e-3, model,
                         record_every=record_every)
        assert str(err.value) == f"non-finite energy at t = {record_every * 1e-3:g}"
        assert err.value.trace.times.tolist() == [0.0]

    def test_rejects_zero_dt(self, gs_equal, model_ones):
        with pytest.raises(ValueError):
            t.evolve(gs_equal.profile, 1.0, 0.0, model_ones)


class TestArgumentCheck:
    """`evolve` and `step` reject what the config loader rejects, each
    message led by the argument's name (evolve's T is t there)."""

    def test_step_rejects_zero_dt(self, gs_equal, model_ones):
        # not the input returned unchanged
        with pytest.raises(ValueError, match="^dt must be finite and non-zero"):
            t.step(gs_equal.profile, 0.0, model_ones)

    def test_negative_snapshot_every(self, gs_equal, model_ones):
        # not a run that silently stores no snapshots
        with pytest.raises(ValueError, match="^snapshot_every must be >= 0"):
            t.evolve(gs_equal.profile, 0.01, 1e-3, model_ones, snapshot_every=-1)

    def test_snapshot_every_without_hook(self, gs_equal, model_ones):
        # not a cadence accepted and then ignored
        with pytest.raises(ValueError,
                           match="^snapshot_every must be 0 without a sample hook"):
            t.evolve(gs_equal.profile, 0.01, 1e-3, model_ones, snapshot_every=5)

    @pytest.mark.parametrize("name, value", [
        ("snapshot_every", 1.5), ("snapshot_every", 2.0), ("snapshot_every", "3"),
        ("record_every", 2.5)])
    def test_step_count_not_an_integer(self, gs_equal, model_ones, name, value):
        # not snapshots every 1.5 steps, nor a TypeError from range or from
        # the range rule's comparison
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            t.evolve(gs_equal.profile, 0.01, 1e-3, model_ones, **{name: value})

    @pytest.mark.parametrize("T", [float("inf"), 1e300, float("nan"), -1.0])
    def test_duration_out_of_range(self, gs_equal, model_ones, T):
        # T = inf is a ValueError, not an OverflowError
        with pytest.raises(ValueError, match=r"^t must be in \[0, sys.maxsize"):
            t.evolve(gs_equal.profile, T, 1e-3, model_ones)

    @pytest.mark.parametrize("dt", [float("inf"), float("nan"), -0.0])
    def test_dt_not_finite_or_zero(self, gs_equal, model_ones, dt):
        with pytest.raises(ValueError, match="^dt must be finite and non-zero"):
            t.evolve(gs_equal.profile, 0.01, dt, model_ones)


MAXRSS_SCRIPT = """
import resource, sys
import numpy as np
import trinls as t
grid = t.make_grid(4096, 80.0)
u = np.stack([np.exp(-(grid.nodes - j) ** 2 / 2).astype(complex) for j in range(3)])
state = t.State.from_array(grid, u)
model = t.CouplingModel(np.ones((3, 3)), 2.0)
kw = dict(snapshot_every=1, sample=lambda time, s: None) if sys.argv[1] == "1" else {}
t.evolve(state, 1.0, 1e-3, model, **kw)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_samples_are_not_kept():
    # 1001 samples of 196 KB at n = 4096: a hook that drops each state must
    # leave the peak memory where a run without samples has it
    def peak_kb(snapshots):
        out = subprocess.run([sys.executable, "-c", MAXRSS_SCRIPT, snapshots],
                             capture_output=True, text=True, check=True)
        return int(out.stdout)

    assert peak_kb("1") - peak_kb("0") <= 10 * 1024
