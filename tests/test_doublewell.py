import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from thermobit import doublewell, ensemble, oracles
from thermobit.doublewell import (BLOCK, DoubleWellParams, EscapeInfeasibleError,
                                  heated_erase, measure_escape_time, relax_ensemble)
from thermobit.streams import make_stream


def sample_one(p, side, rng):
    """One equilibrium sample conditioned on one well."""
    return doublewell._sample_rows(p, side, rng, 1)[0]


def boltzmann_mean_potential(p, side=None, temperature=None):
    """Quadrature oracle: <U> under exp(-U/kT), optionally one-sided."""
    kT = p.boltzmann * (temperature if temperature is not None else p.temperature)
    lo = 0.0 if side == 1 else -4.0 * p.well_position
    hi = 0.0 if side == 0 else 4.0 * p.well_position
    z, _ = quad(lambda x: math.exp(-p.potential(x) / kT), lo, hi, limit=200)
    m, _ = quad(lambda x: p.potential(x) * math.exp(-p.potential(x) / kT), lo, hi, limit=200)
    return m / z


def boltzmann_cdf_grid(p, xs):
    kT = p.kT
    z, _ = quad(lambda x: math.exp(-p.potential(x) / kT),
                -4.0 * p.well_position, 4.0 * p.well_position, limit=200)
    return np.array([
        quad(lambda x: math.exp(-p.potential(x) / kT),
             -4.0 * p.well_position, xi, limit=200)[0] / z
        for xi in xs
    ])


class TestParams:
    def test_potential_anchors_exact(self):
        p = DoubleWellParams.reduced(2.0)
        assert p.potential(p.well_position) == 0.0
        assert p.potential(-p.well_position) == 0.0
        assert p.potential(0.0) == p.barrier_height

    def test_potential_symmetry(self):
        p = DoubleWellParams.reduced(3.0)
        xs = np.linspace(0.0, 3.0, 101)
        np.testing.assert_array_equal(p.potential(xs), p.potential(-xs))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DoubleWellParams.reduced(0.0)
        with pytest.raises(ValueError):
            DoubleWellParams(barrier_height=1.0, well_position=1.0,
                             damping=-1.0, temperature=1.0)

    def test_stable_dt_follows_kT_below_a_low_barrier(self):
        # Below E = kT the walk's thermal spread, not the minima, sets the curvature.
        low, unit = DoubleWellParams.reduced(1e-3), DoubleWellParams.reduced(1.0)
        assert low.max_stable_dt == unit.max_stable_dt
        assert DoubleWellParams.reduced(2.0).max_stable_dt == 0.1 / 16.0


def scalar_em_path(p, x, z, dt, temperature=None):
    """Reference loop: x <- x - U'(x)*dt/gamma + amp*z, one Python float at a time.

    U'(x) = 4*E*x*((x/x0)^2 - 1)/x0^2 is written out here.  z[k, i] is the
    noise of step k + 1 of row i; returns the path in the same layout.
    """
    kT = p.boltzmann * (temperature if temperature is not None else p.temperature)
    amp = math.sqrt(2.0 * kT * dt / p.damping)
    x0 = p.well_position
    path = np.empty_like(z)
    for i, xi in enumerate(x):
        xi = float(xi)
        for k in range(z.shape[0]):
            grad = 4.0 * p.barrier_height * xi * ((xi / x0) ** 2 - 1.0) / (x0 * x0)
            xi = xi - grad * dt / p.damping + amp * z[k, i]
            path[k, i] = xi
    return path


class TestEmStep:
    def test_drift_vanishes_at_stationary_points(self):
        p = DoubleWellParams.reduced(2.0)
        dt = 0.5 * p.max_stable_dt
        amp = math.sqrt(2.0 * p.kT * dt / p.damping)
        x0 = np.array([0.0, p.well_position, -p.well_position])
        z = make_stream(30, 0).standard_normal((1, 3))
        got = doublewell._em_round(x0, 1, p, dt, p.temperature, make_stream(30, 0))
        np.testing.assert_allclose(got[0], x0 + amp * z[0], rtol=1e-14, atol=1e-14)

    def test_rejects_unstable_dt(self):
        p = DoubleWellParams.reduced(2.0)
        for dt in (2.0 * p.max_stable_dt, 0.0):
            with pytest.raises(ValueError):
                relax_ensemble(p, 1, 1.0, dt, 100, seed=0)
            with pytest.raises(ValueError):
                measure_escape_time(p, 10, dt, seed=0)

    def test_long_run_matches_boltzmann(self):
        # Stationarity oracle: evolve an equilibrium ensemble and compare the
        # empirical CDF of the final states against Boltzmann quadrature
        # (sup-norm tolerance 0.05 for n = 2000, KS 95% is ~0.030).
        p = DoubleWellParams.reduced(2.0)
        dt = 0.5 * p.max_stable_dt
        rng = make_stream(31, 0)
        x = np.concatenate([doublewell._sample_rows(p, side, rng, 1000) for side in (0, 1)])
        for _ in range(2):
            x = doublewell._em_round(x, 500, p, dt, p.temperature, rng)[-1]
        xs = np.linspace(-2.0, 2.0, 41)
        theory = boltzmann_cdf_grid(p, xs)
        empirical = np.array([(x <= xi).mean() for xi in xs])
        assert np.max(np.abs(empirical - theory)) < 0.05


class TestBlockKernels:
    def test_relax_block_matches_scalar_loop(self):
        # 700 steps span two noise rounds (512 + 188), so the carried state
        # and the per-round draw layout are both pinned.
        p = DoubleWellParams.reduced(2.0)
        dt = 0.5 * p.max_stable_dt
        rows, n_steps = 5, 700
        record = doublewell._log_step_grid(n_steps)
        (got,) = doublewell._relax_block(make_stream(50, 0), rows, p, 1, dt, 3.0, record)

        rng = make_stream(50, 0)
        x0 = doublewell._sample_rows(p, 1, rng, rows)
        z = np.concatenate([rng.standard_normal((doublewell._ROUND, rows)),
                            rng.standard_normal((n_steps - doublewell._ROUND, rows))])
        want = scalar_em_path(p, x0, z, dt, temperature=3.0)
        assert got.shape == (1 + record.size, rows)
        np.testing.assert_array_equal(got[0], x0)
        np.testing.assert_allclose(got[1:], want[record - 1], rtol=1e-12)

    def test_escape_block_matches_scalar_loop(self):
        # Within one round: each row's escape step is the first step of the
        # reference path at x <= 0, and -1 when it never gets there.
        p = DoubleWellParams.reduced(1.0)
        dt = 0.5 * p.max_stable_dt
        rows, max_steps = 40, 400
        (got,) = doublewell._escape_block(make_stream(51, 0), rows, p, dt, max_steps)

        z = make_stream(51, 0).standard_normal((max_steps, rows))
        crossed = scalar_em_path(p, np.full(rows, p.well_position), z, dt) <= 0.0
        want = np.where(crossed.any(axis=0), crossed.argmax(axis=0) + 1, -1)
        np.testing.assert_array_equal(got, want)
        assert (want > 0).any() and (want < 0).any()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exhausted_budget_raises_unwrapped(self, monkeypatch, workers):
        # A cap of 1% of the expected steps, read in the parent and sent
        # with the task, so the blocks run out of steps in a forked pool too;
        # the parent must raise EscapeInfeasibleError itself.
        monkeypatch.setattr(oracles, "CAP", 0.01)
        p = DoubleWellParams.reduced(2.0)
        with pytest.raises(EscapeInfeasibleError, match=f"of {BLOCK + 1} trajectories did not"):
            measure_escape_time(p, BLOCK + 1, 0.5 * p.max_stable_dt, seed=0,
                                worker_count=workers)


class TestSampleWell:
    def test_side_conditioning(self):
        p = DoubleWellParams.reduced(2.0)
        s = make_stream(32, 0)
        assert all(sample_one(p, 1, s) > 0 for _ in range(200))
        assert all(sample_one(p, 0, s) < 0 for _ in range(200))

    def test_conditional_mean_potential(self):
        p = DoubleWellParams.reduced(2.0)
        n = 100_000
        u = p.potential(doublewell._sample_rows(p, 1, make_stream(33, 0), n))
        oracle = boltzmann_mean_potential(p, side=1)
        assert abs(u.mean() - oracle) < 3.0 * u.std(ddof=1) / math.sqrt(n)

    def test_mirror_symmetry(self):
        p = DoubleWellParams.reduced(2.0)
        a = doublewell._sample_rows(p, 1, make_stream(34, 0), 20_000)
        b = doublewell._sample_rows(p, 0, make_stream(35, 0), 20_000)
        assert abs(a.mean() + b.mean()) < 4.0 * a.std() / math.sqrt(a.size)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            sample_one(DoubleWellParams.reduced(2.0), 2, make_stream(0, 0))

    @pytest.mark.parametrize("barrier", [2.0, 4.0])
    def test_boltzmann_grid_is_scipy_cumulative_trapezoid(self, barrier):
        # Written out in numpy, the table keeps scipy's bytes, and with them
        # every double-well CSV byte.
        p = DoubleWellParams.reduced(barrier)
        x, cdf = doublewell._boltzmann_grid(p)
        want = cumulative_trapezoid(np.exp(-p.potential(x) / p.kT), x, initial=0.0)
        want /= want[-1]
        assert np.array_equal(cdf, want)


class TestRelaxEnsemble:
    def test_forgets_to_half(self):
        p = DoubleWellParams.reduced(2.0)
        series = relax_ensemble(p, 1, 20.0, 0.5 * p.max_stable_dt, 2000, seed=36)
        assert series.p1[0] == 1.0
        assert abs(series.p1[-1] - 0.5) < 0.05

    def test_mean_energy_time_invariant(self):
        # Conditional-equilibrium start equals the restriction of the global
        # equilibrium, so <U> is constant; cross-check level by quadrature.
        p = DoubleWellParams.reduced(2.0)
        series = relax_ensemble(p, 1, 10.0, 0.5 * p.max_stable_dt, 4000, seed=37)
        oracle = boltzmann_mean_potential(p, side=1)
        assert abs(series.mean_U[0] - oracle) < 3.0 * series.se_U[0]
        drift = np.abs(series.mean_U - series.mean_U[0])
        assert np.max(drift) < 3.0 * np.max(series.se_U) + 0.02

    def test_sides_mirror(self):
        p = DoubleWellParams.reduced(2.0)
        dt = 0.5 * p.max_stable_dt
        s1 = relax_ensemble(p, 1, 5.0, dt, 2000, seed=38)
        s0 = relax_ensemble(p, 0, 5.0, dt, 2000, seed=39)
        np.testing.assert_allclose(s0.p1, 1.0 - s1.p1, atol=0.06)

    def test_requires_minimum_ensemble(self):
        p = DoubleWellParams.reduced(2.0)
        with pytest.raises(ValueError):
            relax_ensemble(p, 1, 1.0, 0.5 * p.max_stable_dt, 50, seed=0)


class TestEscapeTime:
    def test_monotone_in_barrier(self):
        times = []
        for barrier in (1.0, 2.0, 3.0):
            p = DoubleWellParams.reduced(barrier)
            t, _ = measure_escape_time(p, 500, 0.5 * p.max_stable_dt, seed=40)
            times.append(t)
        assert times[0] < times[1] < times[2]

    @pytest.fixture
    def no_stream(self, monkeypatch):
        made = []
        monkeypatch.setattr(ensemble, "make_stream", lambda *args: made.append(args))
        yield
        assert not made

    def test_infeasible_barrier_errors_fast(self, no_stream):
        # 20 kT: 1.4e7 time units per escape, 4.4e10 steps at the default dt.
        p = DoubleWellParams.reduced(20.0)
        with pytest.raises(ValueError, match="above the budget"):
            measure_escape_time(p, 10, 0.5 * p.max_stable_dt, seed=0)

    def test_budget_exceeded_errors(self, no_stream, monkeypatch):
        # 12 kT at n = 10 expects 2e9 draws (with 128 rows per block-step)
        # and may run; at n = 10**4, 1.6e11 draws are refused.
        class Started(Exception):
            pass

        def start(*args, **kwargs):
            raise Started

        p = DoubleWellParams.reduced(12.0)
        monkeypatch.setattr(doublewell, "run_blocks", start)
        with pytest.raises(Started):
            measure_escape_time(p, 10, 0.5 * p.max_stable_dt, seed=0)
        with pytest.raises(ValueError, match="above the budget"):
            measure_escape_time(p, 10 ** 4, 0.5 * p.max_stable_dt, seed=0)


class TestHeatedErase:
    def test_equal_temperature_degenerates_to_relax(self):
        p = DoubleWellParams.reduced(3.0)
        dt = 0.5 * p.max_stable_dt
        series, mean_du, _ = heated_erase(p, p.temperature, 3.0, dt, 500, seed=41)
        plain = relax_ensemble(p, 1, 3.0, dt, 500, seed=41)
        np.testing.assert_array_equal(series.p1, plain.p1)
        np.testing.assert_array_equal(series.mean_U, plain.mean_U)

    def test_hot_bath_injects_energy(self):
        p = DoubleWellParams.reduced(4.0)
        dt = 0.5 * p.max_stable_dt
        _series, mean_du, se_du = heated_erase(p, 4.0, 5.0, dt, 2000, seed=42)
        assert mean_du > 3.0 * se_du
        # Quadrature oracle for the heated equilibrium level.
        hot = boltzmann_mean_potential(p, temperature=4.0)
        ambient = boltzmann_mean_potential(p, side=1)
        assert hot > ambient

    def test_heating_accelerates_forgetting(self):
        # At kT_hot = E the hot run forgets much faster than the ambient one.
        p = DoubleWellParams.reduced(4.0)
        dt = 0.5 * p.max_stable_dt
        hot, _, _ = heated_erase(p, 4.0, 3.0, dt, 1000, seed=43)
        cold = relax_ensemble(p, 1, 3.0, dt, 1000, seed=43)
        assert abs(hot.p1[-1] - 0.5) < 0.06
        assert cold.p1[-1] > 0.8

    def test_step_must_be_stable_at_the_hot_temperature(self):
        # At kT_hot = 16 > E the stability bound is a quarter of the ambient one.
        p = DoubleWellParams.reduced(4.0)
        hot = p.max_stable_dt / 4.0
        assert dataclasses.replace(p, temperature=16.0).max_stable_dt == hot
        with pytest.raises(ValueError, match="stability bound"):
            heated_erase(p, 16.0, 1.0, 0.5 * p.max_stable_dt, 100, seed=0)
        heated_erase(p, 16.0, 0.1, 0.5 * hot, 100, seed=0)

    def test_rejects_cooling(self):
        p = DoubleWellParams.reduced(2.0)
        with pytest.raises(ValueError):
            heated_erase(p, 0.5, 1.0, 0.5 * p.max_stable_dt, 500, seed=0)
