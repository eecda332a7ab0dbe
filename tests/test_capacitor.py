import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from thermobit import ensemble
from thermobit.capacitor import (WriteTimeoutError, _bath_heat, _erase_block, _erased,
                                 _erasure_block, _first_passage, _write_rows, erase,
                                 erase_dissipation_theory, erase_ensemble,
                                 partial_erase_error_prob, run_erasure_experiment, write_bit,
                                 write_ensemble)
from thermobit.infotheory import bit_information, estimate_error_prob
from thermobit.ou import CellParams, _transition
from thermobit.streams import make_stream

CELL = CellParams.reduced()
LN2 = math.log(2.0)


def phi(x):
    # Independent standard-normal CDF for oracle values.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def exact_erase_heat(u0, t):
    # Oracle in reduced units: mean drop of C*V^2/2 when V(t) ~ N(u0*e^-t, 1 - e^-2t).
    return -math.expm1(-2.0 * t) * (u0 * u0 - 1.0) / 2.0


class TestEraseDissipationTheory:
    def test_at_sigma_is_zero(self):
        for t in (0.1, 1.0, math.inf):
            assert erase_dissipation_theory(CELL.sigma_st, t, CELL) == 0.0

    def test_substitutions(self):
        assert erase_dissipation_theory(0.0, math.inf, CELL) == -0.5
        assert erase_dissipation_theory(0.5, math.inf, CELL) == pytest.approx(-0.375, rel=1e-15)
        assert erase_dissipation_theory(0.5, 20.0, CELL) == -0.375
        assert erase_dissipation_theory(0.5, 0.0, CELL) == 0.0

    def test_partial_erase_is_exact(self):
        # 0.1 tau from 0.5 sigma: -0.0680 kT, not the complete-erase -0.375.
        assert exact_erase_heat(0.5, 0.1) == pytest.approx(-0.06798, abs=1e-5)
        for t in (0.01, 0.1, 0.13422549052450547, 1.0, 3.0):
            for u0 in (0.5, 2.0):
                assert erase_dissipation_theory(u0, t, CELL) == pytest.approx(
                    exact_erase_heat(u0, t), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            erase_dissipation_theory(-1.0, 1.0, CELL)
        with pytest.raises(ValueError):
            erase_dissipation_theory(0.5, -1.0, CELL)
        with pytest.raises(ValueError):
            erase_dissipation_theory(0.5, math.nan, CELL)


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

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            partial_erase_error_prob(1.0, -0.1, CELL)
        with pytest.raises(ValueError):
            partial_erase_error_prob(0.0, 1.0, CELL)

    def test_matches_scipy_normal_cdf_into_the_deep_tail(self):
        for u0 in (0.1, 0.5, 1.0, 2.0, 4.0, 6.0):
            for t in (0.01, 0.03, 0.1, 0.5, 1.0, 3.0, 10.0):
                mu = math.exp(-t)
                expected = norm.cdf(-u0 * mu / math.sqrt(1.0 - mu * mu))
                got = partial_erase_error_prob(u0, t, CELL)
                assert math.isclose(got, expected, rel_tol=1e-13, abs_tol=0.0), (u0, t)

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
            assert int(wr.v_final >= 0.0) == bit

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
        q, _, _ = write_ensemble(1, u0, CELL, 0.01, n, 17)
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

    def test_one_exact_draw_over_the_duration_asked(self):
        # With a unit draw the final state is the OU mean plus one transition SD,
        # over exactly 0.1345 tau (not 0.14, the next multiple of dt).
        v0, d = 0.7, 0.1345 * CELL.tau
        rec = erase(v0, d, CELL, 0.01, OnesStream())
        assert rec.duration == 0.1345
        assert rec.v_final == (v0 * math.exp(-d / CELL.tau)
                               + CELL.sigma_st * math.sqrt(-math.expm1(-2.0 * d / CELL.tau)))

    def test_mean_heat_negative_below_sigma(self):
        n = 20_000
        q = erase_ensemble(0.5, 20.0, CELL, n, 20)
        se = q.std(ddof=1) / math.sqrt(n)
        assert abs(q.mean() - (-0.375)) < 3.0 * se
        assert q.mean() < 0

    def test_write_erase_antisymmetry(self):
        # Mean write heat equals minus mean erase heat at the same u0.
        n = 20_000
        u0 = 0.7
        qw, _, _ = write_ensemble(1, u0, CELL, 0.01, n, 21)
        qe = erase_ensemble(u0, 20.0, CELL, n, 22)
        se = math.sqrt(qw.var() / n + qe.var() / n)
        assert abs(qw.mean() + qe.mean()) < 3.0 * se


@pytest.mark.parametrize("run", [
    pytest.param(lambda: write_ensemble(1, -1.0, CELL, 0.01, 10, 0), id="write-u0-negative"),
    pytest.param(lambda: write_ensemble(1, 0.5, CELL, math.inf, 10, 0), id="write-dt-inf"),
    pytest.param(lambda: erase_ensemble(math.nan, 1.0, CELL, 10, 0), id="erase-v0-nan"),
    pytest.param(lambda: erase_ensemble(0.5, -1.0, CELL, 10, 0), id="erase-duration-neg"),
])
def test_bad_ensemble_input_is_value_error(run):
    # Checked before any block runs, so no EnsembleWorkerError wraps it.
    with pytest.raises(ValueError):
        run()


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
        (rep,) = run_erasure_experiment(1.0, (0.0,), CELL, 500, 23)
        assert rep.channel.p_e_hat == 0.0 and rep.channel.trials == 500
        assert rep.info_bits == 1.0

    def test_partial_erase_information(self):
        (rep,) = run_erasure_experiment(1.0, (CELL.tau,), CELL, 20_000, 24)
        assert rep.info_bits == bit_information(rep.channel.p_e_hat)
        assert rep.info_bits == pytest.approx(0.0693792861201491, abs=0.015)
        assert rep.channel.ci_low <= 0.3461915440836959 <= rep.channel.ci_high

    def test_partial_erase_heat_and_error_are_exact(self):
        # 0.1342 tau is the first non-zero point of the default mi-curve grid;
        # an erase rounded up to the dt grid runs it as 0.14 tau, 5 SE off.
        for rep in run_erasure_experiment(0.5, (0.13422549052450547, 1.0), CELL, 100_000, 12345):
            exact = exact_erase_heat(0.5, rep.duration)
            assert erase_dissipation_theory(0.5, rep.duration, CELL) == pytest.approx(exact,
                                                                                     rel=1e-12)
            assert abs(rep.mean_Q_env - exact) < 3.0 * rep.se_Q_env
            pe = partial_erase_error_prob(0.5, rep.duration, CELL)
            assert rep.channel.ci_low <= pe <= rep.channel.ci_high

    def test_information_decays_with_duration(self):
        reports = run_erasure_experiment(1.0, (0.0, 0.5, 2.0, 20.0), CELL, 4000, 25)
        info = [r.info_bits for r in reports]
        # Non-increasing up to statistical noise.
        slack = 0.02
        assert all(b <= a + slack for a, b in zip(info, info[1:]))
        assert info[0] == 1.0 and info[-1] < 0.01

    def test_config_validation(self):
        for u0, durations, n in ((-1.0, (1.0,), 10), (1.0, (-1.0,), 10), (1.0, (1.0,), 0),
                                 (1.0, (float("nan"),), 10), (math.inf, (1.0,), 10),
                                 (1.0, (1.0, math.inf), 10)):
            with pytest.raises(ValueError):
                run_erasure_experiment(u0, durations, CELL, n, 0)
        with pytest.raises(ValueError):
            run_erasure_experiment(1.0, (1.0,), CELL, 10, 0, worker_count=0)

    @pytest.mark.parametrize("durations", [(1.0, float("nan")), (1.0, -1.0), (2.0, 1.0)])
    def test_input_is_checked_before_any_block(self, monkeypatch, durations):
        # A bad later duration must stop the run before the first duration's blocks.
        calls = []
        monkeypatch.setattr(ensemble, "make_stream",
                            lambda *args: calls.append(args) or make_stream(*args))
        with pytest.raises(ValueError):
            run_erasure_experiment(1.0, durations, CELL, 10, 0)
        assert calls == []


class OnesStream:
    """Stub stream whose every standard normal is exactly 1."""

    def standard_normal(self, size=None):
        return np.ones(size)


class RecordingStream:
    """Passes draws through from a real stream and keeps each array drawn.

    Normals go to `draws`, integers to `integer_draws`.
    """

    def __init__(self, stream):
        self.stream = stream
        self.draws = []
        self.integer_draws = []

    def standard_normal(self, size=None):
        z = self.stream.standard_normal(size)
        self.draws.append(z)
        return z

    def integers(self, low, high=None, size=None):
        k = self.stream.integers(low, high, size=size)
        self.integer_draws.append(k)
        return k


class CopyingStream(RecordingStream):
    """A RecordingStream that also keeps a copy of each normal array as drawn."""

    def __init__(self, stream):
        super().__init__(stream)
        self.copies = []

    def standard_normal(self, size=None):
        z = super().standard_normal(size)
        self.copies.append(z.copy())
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
        mu, s = _transition(dt, CELL)
        assert len(rec.draws) > 1  # several rounds, with rows dropping out
        assert got.tolist() == loop_first_passage(v, target, rec.draws, mu, s)
        assert got[:3].tolist() == [0, 0, 0]

    # One prefix sum per round up to dt = 2.72 tau, the recurrence above it,
    # and mu == 0 at 800 tau.
    @pytest.mark.parametrize("dt", [0.01, 0.02, 1.0, 2.7, 2.8, 5.0, 800.0])
    def test_scan_matches_scalar_loop_across_dt(self, dt):
        mu, s = _transition(dt, CELL)
        assert (mu == 0.0) == (dt == 800.0)
        stream = make_stream(35, 0)
        n = 64
        target = np.where(stream.integers(0, 2, size=n) == 1, 1.5, -1.5)
        v = 1.2 * stream.standard_normal(n)
        rec = CopyingStream(stream)
        # A finite guard, so that a scan that never crosses fails instead of hanging.
        got = _first_passage(v, target, CELL, dt, rec, max_duration=1e6 * CELL.tau)
        # The scan must leave the drawn normals as they were drawn.
        assert all(np.array_equal(z, c) for z, c in zip(rec.draws, rec.copies))
        assert got.tolist() == loop_first_passage(v, target, rec.copies, mu, s)

    @pytest.mark.parametrize("dt", [2.7, 5.0])
    @pytest.mark.parametrize("capacitance", [1e-300, 5e-324])
    def test_huge_kT_over_C_neither_overflows_nor_divides_by_zero(self, capacitance, dt):
        # sigma_st near its largest finite value: the scan weights s*mu^-i
        # must stay finite on both sides of the dt = 2.72 tau bound.
        p = CellParams(temperature=300.0, resistance=1e6, capacitance=capacitance)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _write_rows(np.ones(256, dtype=int), p.sigma_st, p, dt * p.tau, make_stream(36, 0))

    def test_landing_on_the_target_is_a_crossing(self):
        _, s = _transition(0.01, CELL)
        # From 0, a unit draw lands exactly on the target s after one step.
        got = _first_passage(np.array([0.0]), np.array([s]), CELL, 0.01, OnesStream(),
                             max_duration=math.inf)
        assert got.tolist() == [1]

    def test_one_draw_erase_moments_at_one_tau(self):
        n = 100_000
        z = _erase_block(make_stream(31, 0), n, CELL.tau)
        v_final = _erased(np.ones(n), CELL.tau, CELL, *z)
        mean, var = math.exp(-1.0), 1.0 - math.exp(-2.0)
        assert abs(v_final.mean() - mean) < 4.0 * math.sqrt(var / n)
        assert abs(v_final.var(ddof=1) - var) < 4.0 * var * math.sqrt(2.0 / (n - 1))

    @pytest.mark.parametrize("duration", [0.0, 0.3])
    def test_erasure_block_erases_from_the_latched_level(self, duration):
        # A block only draws: one bit and, past duration 0, one normal per
        # row.  Its ensemble erases from the written level +-u0 itself, with
        # no write simulated first.
        rows, u0, seed = 64, 0.8, 34
        rec = RecordingStream(make_stream(seed, 0))
        bits, z = _erasure_block(rec, rows, duration)
        assert len(rec.integer_draws) == 1 and rec.integer_draws[0] is bits
        assert bits.shape == (rows,)
        target = np.where(bits == 1, u0, -u0)
        if duration == 0.0:
            assert rec.draws == []
            v_final = target
        else:
            assert [d.shape for d in rec.draws] == [(rows,)] and rec.draws[0] is z
            mu, s = _transition(duration, CELL)
            v_final = target * mu + s * z
        heat = _bath_heat(CELL.capacitance, target, v_final)
        (rep,) = run_erasure_experiment(u0, (duration,), CELL, rows, seed)
        assert rep.mean_Q_env == float(heat.mean())
        assert rep.se_Q_env == float(heat.std(ddof=1) / math.sqrt(rows))
        assert rep.channel == estimate_error_prob(bits, (v_final >= 0.0).astype(bits.dtype))

    def test_equal_durations_use_distinct_streams(self):
        first, second = run_erasure_experiment(1.0, (1.0, 1.0), CELL, 300, 33)
        assert first.mean_Q_env != second.mean_Q_env
