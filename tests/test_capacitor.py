import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobit.capacitor import (BLOCK, ErasureExperimentConfig, WriteTimeoutError,
                                 _erase_rows, _first_passage, erase, erase_dissipation_theory,
                                 erase_ensemble, partial_erase_error_prob, read_bit,
                                 run_erasure_experiment, write_bit, write_ensemble)
from thermobit.ou import CellParams
from thermobit.streams import make_stream

CELL = CellParams.reduced()
LN2 = math.log(2.0)


def phi(x):
    # Independent standard-normal CDF for oracle values.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestReadBit:
    def test_signs(self):
        assert read_bit(+0.5) == 1
        assert read_bit(-0.5) == 0

    def test_tie_break_is_one(self):
        assert read_bit(0.0) == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            read_bit(float("inf"))


class TestEraseDissipationTheory:
    def test_at_sigma_is_zero(self):
        assert erase_dissipation_theory(CELL.sigma_st, CELL) == 0.0

    def test_substitutions(self):
        assert erase_dissipation_theory(0.0, CELL) == -0.5
        assert erase_dissipation_theory(0.5, CELL) == pytest.approx(-0.375, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            erase_dissipation_theory(-1.0, CELL)


class TestPartialEraseErrorProb:
    def test_boundaries(self):
        assert partial_erase_error_prob(1.0, 0.0, CELL) == 0.0
        assert partial_erase_error_prob(1.0, 1e6, CELL) == pytest.approx(0.5, abs=1e-12)

    def test_one_tau_oracle(self):
        # Oracle: Phi(-e^-1 / sqrt(1 - e^-2)) evaluated via erfc.
        mu = math.exp(-1.0)
        expected = phi(-mu / math.sqrt(1.0 - mu * mu))
        assert expected == pytest.approx(0.3461915440836959, abs=1e-12)
        assert partial_erase_error_prob(1.0, CELL.tau, CELL) == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_cross_check(self):
        n = 20_000
        wrong = 0
        for i in range(n):
            rec = erase(1.0, CELL.tau, CELL, 0.01, make_stream(11, i))
            wrong += read_bit(rec.v_final) != 1
        p_hat = wrong / n
        p_theory = partial_erase_error_prob(1.0, CELL.tau, CELL)
        assert abs(p_hat - p_theory) < 3.0 * math.sqrt(p_theory * (1 - p_theory) / n)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            partial_erase_error_prob(1.0, -0.1, CELL)
        with pytest.raises(ValueError):
            partial_erase_error_prob(0.0, 1.0, CELL)

    def test_strictly_increasing_toward_half(self):
        grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        vals = [partial_erase_error_prob(1.0, t, CELL) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.5


class TestWriteBit:
    def test_final_is_signed_target(self):
        for i in range(50):
            wr1 = write_bit(1, 0.8, CELL, 0.01, make_stream(12, i))
            wr0 = write_bit(0, 0.8, CELL, 0.01, make_stream(13, i))
            assert wr1.v_final == +0.8 and wr1.bit_written == 1
            assert wr0.v_final == -0.8 and wr0.bit_written == 0

    def test_read_after_write_is_error_free(self):
        for i in range(50):
            bit = i % 2
            wr = write_bit(bit, 0.5, CELL, 0.01, make_stream(14, i))
            assert read_bit(wr.v_final) == bit

    def test_condition_i_energy_is_half_kT(self):
        # Writing to +-sigma leaves exactly the equilibrium energy kT/2.
        wr = write_bit(1, CELL.sigma_st, CELL, 0.01, make_stream(15, 0))
        assert 0.5 * CELL.capacitance * wr.v_final ** 2 == 0.5 * CELL.kT

    def test_control_cost_floor(self):
        for i in range(20):
            wr = write_bit(1, 0.5, CELL, 0.01, make_stream(16, i))
            assert wr.n_samples >= 1
            assert wr.control_cost_lower_bound == pytest.approx(wr.n_samples * LN2, rel=1e-12)
            assert wr.control_cost_lower_bound >= LN2

    def test_mean_heat_matches_theory(self):
        # Ledger + equipartition oracle: E[Q] = (kT - C*u0^2)/2.
        n = 20_000
        u0 = 0.5
        q = np.array([write_bit(1, u0, CELL, 0.01, make_stream(17, i)).bath_heat
                      for i in range(n)])
        theory = 0.5 * (CELL.kT - CELL.capacitance * u0 * u0)
        assert abs(q.mean() - theory) < 3.0 * q.std(ddof=1) / math.sqrt(n)

    def test_rejects_bad_args(self):
        rng = make_stream(0, 0)
        with pytest.raises(ValueError):
            write_bit(2, 0.5, CELL, 0.01, rng)
        with pytest.raises(ValueError):
            write_bit(1, 0.0, CELL, 0.01, rng)
        with pytest.raises(ValueError):
            write_bit(1, 0.5, CELL, -0.01, rng)

    def test_timeout_guard(self):
        with pytest.raises(WriteTimeoutError):
            write_bit(1, 6.0, CELL, 0.01, make_stream(18, 0), max_duration=5.0)


class TestErase:
    def test_zero_duration_is_noop(self):
        rec = erase(0.7, 0.0, CELL, 0.01, make_stream(19, 0))
        assert rec.v_final == 0.7
        assert rec.bath_heat == 0.0
        assert rec.duration == 0.0

    def test_rejects_bad_args(self):
        rng = make_stream(0, 0)
        with pytest.raises(ValueError):
            erase(0.5, -1.0, CELL, 0.01, rng)
        with pytest.raises(ValueError):
            erase(0.5, math.inf, CELL, 0.01, rng)
        with pytest.raises(ValueError):
            erase(float("nan"), 1.0, CELL, 0.01, rng)
        with pytest.raises(ValueError):
            erase(0.5, 1.0, CELL, 0.0, rng)

    def test_mean_heat_negative_below_sigma(self):
        n = 20_000
        q = np.array([erase(0.5, 20.0, CELL, 0.01, make_stream(20, i)).bath_heat
                      for i in range(n)])
        se = q.std(ddof=1) / math.sqrt(n)
        assert abs(q.mean() - (-0.375)) < 3.0 * se
        assert q.mean() < 0

    def test_write_erase_antisymmetry(self):
        # Mean write heat equals minus mean erase heat at the same u0.
        n = 20_000
        u0 = 0.7
        qw = np.array([write_bit(1, u0, CELL, 0.01, make_stream(21, i)).bath_heat
                       for i in range(n)])
        qe = np.array([erase(u0, 20.0, CELL, 0.01, make_stream(22, i)).bath_heat
                       for i in range(n)])
        se = math.sqrt(qw.var() / n + qe.var() / n)
        assert abs(qw.mean() + qe.mean()) < 3.0 * se


@settings(max_examples=200, deadline=None)
@given(v0=st.floats(-3.0, 3.0), duration=st.floats(0.0, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_ledger_identity_property(v0, duration, seed):
    rec = erase(v0, duration, CELL, 0.05, make_stream(seed, 0))
    dE = 0.5 * CELL.capacitance * rec.v_final * rec.v_final \
        - 0.5 * CELL.capacitance * rec.v_start * rec.v_start
    assert rec.bath_heat + dE == 0.0


class TestErasureExperiment:
    def test_zero_duration_keeps_full_information(self):
        cfg = ErasureExperimentConfig(cell=CELL, u0=1.0, durations=(0.0,),
                                      n_trajectories=500, master_seed=23)
        (rep,) = run_erasure_experiment(cfg)
        assert rep.channel.p_e_hat == 0.0
        assert rep.information.bits == 1.0

    def test_partial_erase_information(self):
        cfg = ErasureExperimentConfig(cell=CELL, u0=1.0, durations=(CELL.tau,),
                                      n_trajectories=20_000, master_seed=24)
        (rep,) = run_erasure_experiment(cfg)
        assert rep.information.bits == pytest.approx(0.0693792861201491, abs=0.015)
        assert rep.channel.ci_low <= 0.3461915440836959 <= rep.channel.ci_high

    def test_information_decays_with_duration(self):
        cfg = ErasureExperimentConfig(cell=CELL, u0=1.0,
                                      durations=(0.0, 0.5, 2.0, 20.0),
                                      n_trajectories=4000, master_seed=25)
        reports = run_erasure_experiment(cfg)
        info = [r.information.bits for r in reports]
        # Non-increasing up to statistical noise.
        slack = 0.02
        assert all(b <= a + slack for a, b in zip(info, info[1:]))
        assert info[0] == 1.0 and info[-1] < 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ErasureExperimentConfig(cell=CELL, u0=-1.0, durations=(1.0,),
                                    n_trajectories=10, master_seed=0)
        with pytest.raises(ValueError):
            ErasureExperimentConfig(cell=CELL, u0=1.0, durations=(-1.0,),
                                    n_trajectories=10, master_seed=0)
        with pytest.raises(ValueError):
            ErasureExperimentConfig(cell=CELL, u0=1.0, durations=(1.0,),
                                    n_trajectories=0, master_seed=0)
        with pytest.raises(ValueError):
            ErasureExperimentConfig(cell=CELL, u0=1.0, durations=(float("nan"),),
                                    n_trajectories=10, master_seed=0)


class RecordingStream:
    """Passes draws through from a real stream and keeps each array drawn."""

    def __init__(self, stream):
        self.stream = stream
        self.draws = []

    def standard_normal(self, size=None):
        z = self.stream.standard_normal(size)
        self.draws.append(z)
        return z


def loop_first_passage(v, target, draws, mu, s):
    """Plain-Python walk v <- mu*v + s*z over the recorded rounds of draws."""
    steps = [0] * len(v)
    state = list(v)
    active = [i for i in range(len(v)) if (v[i] - target[i]) * (0.0 - target[i]) > 0.0]
    for z in draws:
        assert z.shape[0] == len(active)
        still = []
        for row, i in zip(z, active):
            side = 1.0 if v[i] > target[i] else -1.0
            for zk in row:
                state[i] = mu * state[i] + s * zk
                steps[i] += 1
                if (state[i] - target[i]) * side <= 0.0:
                    break
            else:
                still.append(i)
        active = still
    assert not active
    return steps


class TestBlockKernels:
    def test_first_passage_matches_scalar_loop(self):
        stream = make_stream(30, 0)
        n, dt = 64, 0.01
        target = np.where(stream.integers(0, 2, size=n) == 1, 1.5, -1.5)
        v = 1.2 * stream.standard_normal(n)
        v[:3] = target[:3]  # rows starting on the target take no steps
        rec = RecordingStream(stream)
        got = _first_passage(v, target, CELL, dt, rec, max_duration=math.inf)
        mu = math.exp(-dt / CELL.tau)
        s = CELL.sigma_st * math.sqrt(1.0 - mu * mu)
        assert len(rec.draws) > 1  # several rounds, with rows dropping out
        assert got.tolist() == loop_first_passage(v, target, rec.draws, mu, s)
        assert got[:3].tolist() == [0, 0, 0]

    def test_landing_on_the_target_is_a_crossing(self):
        class OnesStream:
            def standard_normal(self, size=None):
                return np.ones(size)

        mu = math.exp(-0.01 / CELL.tau)
        s = CELL.sigma_st * math.sqrt(1.0 - mu * mu)
        # From 0, a unit draw lands exactly on the target s after one step.
        got = _first_passage(np.array([0.0]), np.array([s]), CELL, 0.01, OnesStream(),
                             max_duration=math.inf)
        assert got.tolist() == [1]

    def test_one_draw_erase_moments_at_one_tau(self):
        n = 100_000
        v_final, t = _erase_rows(np.ones(n), CELL.tau, CELL, 0.01, make_stream(31, 0))
        assert t == pytest.approx(CELL.tau, rel=1e-12)
        mean, var = math.exp(-1.0), 1.0 - math.exp(-2.0)
        assert abs(v_final.mean() - mean) < 4.0 * math.sqrt(var / n)
        assert abs(v_final.var(ddof=1) - var) < 4.0 * var * math.sqrt(2.0 / (n - 1))

    def test_partial_last_block(self):
        n = BLOCK + 1
        for arrays in (write_ensemble(1, 0.5, CELL, 0.01, n, 32),
                       [erase_ensemble(0.5, 1.0, CELL, 0.01, n, 32)]):
            assert all(a.shape == (n,) for a in arrays)
        cfg = ErasureExperimentConfig(cell=CELL, u0=1.0, durations=(1.0,),
                                      n_trajectories=n, master_seed=32)
        (rep,) = run_erasure_experiment(cfg)
        assert rep.channel.trials == n

    def test_equal_durations_use_distinct_streams(self):
        cfg = ErasureExperimentConfig(cell=CELL, u0=1.0, durations=(1.0, 1.0),
                                      n_trajectories=300, master_seed=33)
        first, second = run_erasure_experiment(cfg)
        assert first.mean_Q_env != second.mean_Q_env
