import math

import numpy as np
import pytest

from thermobit.ou import CellParams, ou_sample_stationary, ou_step
from thermobit.streams import make_stream


@pytest.fixture
def cell():
    return CellParams.reduced()


class TestCellParams:
    def test_reduced_units(self, cell):
        assert cell.kT == 1.0
        assert cell.sigma_st == 1.0
        assert cell.tau == 1.0

    def test_derived_identities_exact(self):
        p = CellParams(temperature=300.0, resistance=1e6, capacitance=1e-12)
        assert p.tau == 1e6 * 1e-12
        assert p.sigma_st ** 2 * p.capacitance == pytest.approx(p.kT, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"temperature": -1.0}, {"temperature": 0.0},
        {"resistance": 0.0}, {"capacitance": -1e-12},
    ])
    def test_rejects_nonpositive(self, kwargs):
        base = dict(temperature=300.0, resistance=1e6, capacitance=1e-12)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CellParams(**base)


class TestOuStep:
    def test_zero_time_limit(self, cell):
        v = ou_step(0.7, 1e-15, cell, make_stream(0, 0))
        assert v == pytest.approx(0.7, abs=1e-6)

    def test_rejects_bad_args(self, cell):
        rng = make_stream(0, 0)
        with pytest.raises(ValueError):
            ou_step(0.0, 0.0, cell, rng)
        with pytest.raises(ValueError):
            ou_step(0.0, -1.0, cell, rng)
        with pytest.raises(ValueError):
            ou_step(float("nan"), 1.0, cell, rng)

    def test_long_step_reaches_equipartition(self, cell):
        # Oracle: stationary variance kT/C, sample variance of n draws has
        # relative standard error sqrt(2/n).
        n = 100_000
        v = ou_step(np.zeros(n), 1000.0 * cell.tau, cell, make_stream(3, 0))
        assert abs(v.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_mean_decay_one_tau(self, cell):
        # Oracle: conditional mean u0*exp(-dt/tau).
        n = 100_000
        u0 = 2.0
        v = ou_step(np.full(n, u0), cell.tau, cell, make_stream(4, 0))
        s = cell.sigma_st * math.sqrt(1.0 - math.exp(-2.0))
        assert abs(v.mean() - u0 * math.exp(-1.0)) < 3.0 * s / math.sqrt(n)


class TestStationarySampler:
    def test_moments(self, cell):
        n = 100_000
        v = ou_sample_stationary(cell, make_stream(5, 0), size=n)
        assert abs(v.mean()) < 3.0 * cell.sigma_st / math.sqrt(n)
        assert abs(v.var() - 1.0) < 0.015
        # Mean capacitor energy C<V^2>/2 equals kT/2 within 2%.
        energy = 0.5 * cell.capacitance * (v ** 2).mean()
        assert energy == pytest.approx(0.5 * cell.kT, rel=0.02)


class TestSimulatePath:
    """Paths built from repeated exact ou_step transitions."""

    def test_terminal_variance_thermalizes(self, cell):
        n = 20_000
        v = np.full(n, cell.sigma_st)
        for k in range(40):
            v = ou_step(v, 0.5 * cell.tau, cell, make_stream(7, k))
        assert abs(v.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_two_half_steps_match_one_full_step(self, cell):
        # Exact-discretization property: moments of (dt, dt) stepping agree
        # with a single 2*dt step within 3 standard errors.
        n = 100_000
        dt = 0.7 * cell.tau
        v0 = 1.3
        split = ou_step(ou_step(np.full(n, v0), dt, cell, make_stream(8, 0)),
                        dt, cell, make_stream(8, 1))
        whole = ou_step(np.full(n, v0), 2.0 * dt, cell, make_stream(8, 2))
        se_mean = math.sqrt(split.var() / n + whole.var() / n)
        assert abs(split.mean() - whole.mean()) < 3.0 * se_mean
        se_var = math.sqrt(2.0 / n) * (split.var() + whole.var())
        assert abs(split.var() - whole.var()) < 3.0 * se_var

    def test_stationarity_preserved_along_path(self, cell):
        n = 5000
        v = ou_sample_stationary(cell, make_stream(9, 0), size=n)
        tol = 3.0 * math.sqrt(2.0 / n)
        assert abs(v.var() - 1.0) < tol
        for k in range(5):
            v = ou_step(v, 1.0, cell, make_stream(10, k))
            assert abs(v.var() - 1.0) < tol
