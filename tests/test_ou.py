import math

import numpy as np
import pytest

from thermobit.ou import ou_step
from thermobit.streams import make_stream


class TestOuStep:
    def test_zero_time_limit(self):
        v = ou_step(0.7, 1e-15, make_stream(0, 0))
        assert v == pytest.approx(0.7, abs=1e-6)

    def test_rejects_bad_args(self):
        rng = make_stream(0, 0)
        with pytest.raises(ValueError):
            ou_step(0.0, 0.0, rng)
        with pytest.raises(ValueError):
            ou_step(0.0, -1.0, rng)
        with pytest.raises(ValueError):
            ou_step(float("nan"), 1.0, rng)

    def test_long_step_reaches_equipartition(self):
        # Oracle: stationary variance kT/C = 1 sigma^2, sample variance of n
        # draws has relative standard error sqrt(2/n).
        n = 100_000
        v = ou_step(np.zeros(n), 1000.0, make_stream(3, 0))
        assert abs(v.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_mean_decay_one_tau(self):
        # Oracle: conditional mean u0*exp(-dt/tau).
        n = 100_000
        u0 = 2.0
        v = ou_step(np.full(n, u0), 1.0, make_stream(4, 0))
        s = math.sqrt(1.0 - math.exp(-2.0))
        assert abs(v.mean() - u0 * math.exp(-1.0)) < 3.0 * s / math.sqrt(n)


class TestStationarySampler:
    def test_moments(self):
        # The stationary law is N(0, 1) in sigma, one standard normal per
        # cell; a step of the exact law leaves it stationary.
        n = 100_000
        v = ou_step(make_stream(5, 0).standard_normal(n), 0.5, make_stream(5, 1))
        assert abs(v.mean()) < 3.0 / math.sqrt(n)
        assert abs(v.var() - 1.0) < 0.015
        # Mean capacitor energy V^2/2 equals kT/2 within 2%.
        energy = 0.5 * (v ** 2).mean()
        assert energy == pytest.approx(0.5, rel=0.02)


class TestSimulatePath:
    """Paths built from repeated exact ou_step transitions."""

    def test_terminal_variance_thermalizes(self):
        n = 20_000
        v = np.ones(n)
        for k in range(40):
            v = ou_step(v, 0.5, make_stream(7, k))
        assert abs(v.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_two_half_steps_match_one_full_step(self):
        # Exact-discretization property: moments of (dt, dt) stepping agree
        # with a single 2*dt step within 3 standard errors.
        n = 100_000
        dt = 0.7
        v0 = 1.3
        split = ou_step(ou_step(np.full(n, v0), dt, make_stream(8, 0)), dt, make_stream(8, 1))
        whole = ou_step(np.full(n, v0), 2.0 * dt, make_stream(8, 2))
        se_mean = math.sqrt(split.var() / n + whole.var() / n)
        assert abs(split.mean() - whole.mean()) < 3.0 * se_mean
        se_var = math.sqrt(2.0 / n) * (split.var() + whole.var())
        assert abs(split.var() - whole.var()) < 3.0 * se_var

    def test_stationarity_preserved_along_path(self):
        n = 5000
        v = make_stream(9, 0).standard_normal(n)
        tol = 3.0 * math.sqrt(2.0 / n)
        assert abs(v.var() - 1.0) < tol
        for k in range(5):
            v = ou_step(v, 1.0, make_stream(10, k))
            assert abs(v.var() - 1.0) < tol
