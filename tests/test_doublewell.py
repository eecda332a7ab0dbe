import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from thermobit import doublewell, ensemble, oracles
from thermobit.doublewell import (BLOCK, EscapeInfeasibleError, heated_erase, max_stable_dt,
                                  measure_escape_time, relax_ensemble)
from thermobit.streams import make_stream


def sample_one(barrier, side, rng):
    """One equilibrium sample conditioned on one well."""
    return doublewell._sample_rows(barrier, side, rng, 1)[0]


def potential(x, barrier):
    """U = E*(x^2 - 1)^2 in kT, with x in units of the well position, written out here."""
    return barrier * (x * x - 1.0) ** 2


def boltzmann_mean_potential(barrier, side=None, temperature=1.0):
    """Quadrature oracle: <U> under exp(-U/kT), optionally one-sided."""
    lo = 0.0 if side == 1 else -4.0
    hi = 0.0 if side == 0 else 4.0
    z, _ = quad(lambda x: math.exp(-potential(x, barrier) / temperature), lo, hi, limit=200)
    m, _ = quad(lambda x: potential(x, barrier) * math.exp(-potential(x, barrier) / temperature),
                lo, hi, limit=200)
    return m / z


def boltzmann_cdf_grid(barrier, xs):
    z, _ = quad(lambda x: math.exp(-potential(x, barrier)), -4.0, 4.0, limit=200)
    return np.array([quad(lambda x: math.exp(-potential(x, barrier)), -4.0, xi, limit=200)[0] / z
                     for xi in xs])


@pytest.fixture
def no_stream(monkeypatch):
    made = []
    monkeypatch.setattr(ensemble, "make_stream", lambda *args: made.append(args))
    yield
    assert not made


class TestParams:
    def test_potential_anchors_exact(self):
        assert doublewell._potential(1.0, 2.0) == 0.0
        assert doublewell._potential(-1.0, 2.0) == 0.0
        assert doublewell._potential(0.0, 2.0) == 2.0

    def test_potential_symmetry(self):
        xs = np.linspace(0.0, 3.0, 101)
        np.testing.assert_array_equal(doublewell._potential(xs, 3.0),
                                      doublewell._potential(-xs, 3.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_stable_dt(0.0)

    def test_rejects_a_barrier_whose_far_edge_overflows(self, no_stream):
        # 60/E overflows below about 3.3e-307: the sampling table's span
        # turned inf and its grid nan, and relax and heated never returned.
        dt = 0.5 * max_stable_dt(1e-300)
        for barrier in (1e-308, 3.3e-307, 5e-324):
            with pytest.raises(ValueError, match="barrier_kT must be at least 3.34e-307"):
                max_stable_dt(barrier)
            with pytest.raises(ValueError, match="barrier_kT must be at least"):
                relax_ensemble(barrier, 1, 1.0, dt, 100, seed=0)
            with pytest.raises(ValueError, match="barrier_kT must be at least"):
                heated_erase(barrier, 2.0, 1.0, dt, 100, seed=0)
            with pytest.raises(ValueError, match="barrier_kT must be at least"):
                measure_escape_time(barrier, 100, dt, seed=0)
        assert max_stable_dt(3.34e-307) == max_stable_dt(1.0)

    def test_rejects_an_underflowing_step_constant(self, no_stream):
        # k1 = 4*E*dt underflows to 0 at E = 1e-300 and dt = 1e-309, where
        # the walk in y = sqrt(k1)*x would stand still; the run passes the
        # draw budget (1e7 steps of 100 rows).  A noise scale sqrt(8*E*T)*dt
        # that is subnormal while k1 is normal is refused too.
        with pytest.raises(ValueError, match=r"dt=1e-309 .* k1 = 4\*E\*dt of 0.0"):
            relax_ensemble(1e-300, 1, 1e-302, 1e-309, 100, seed=0)
        with pytest.raises(ValueError, match="both must be normal floats"):
            heated_erase(1e-300, 2.0, 1e-302, 1e-309, 100, seed=0)
        with pytest.raises(ValueError, match="both must be normal floats"):
            constants(1e10, 1e-315)

    def test_walk_refuses_before_any_stream(self, no_stream, monkeypatch):
        # _walk checks a walk once, in the parent: each of its refusals
        # reaches relax, heated and escape before any block makes a stream.
        # Each case is (match, relax, heated, escape arguments after the
        # barrier).  The budget is lifted for the step constants, where
        # escape's oracle would otherwise be refused first as too long.
        bad, ok = 2.0 * max_stable_dt(2.0), max_stable_dt(2.0, 4.0)
        cases = [("dt must be positive", (2.0, 1, 1.0, dt, 100), (2.0, 4.0, 1.0, dt, 100),
                  (2.0, 100, dt)) for dt in (0.0, -1.0, math.nan)]
        cases += [("exceeds the Euler-Maruyama stability bound", (2.0, 1, 1.0, bad, 100),
                   (2.0, 4.0, 1.0, bad, 100), (2.0, 100, bad)),
                  ("above the budget", (2.0, 1, 1e9, ok, 100), (2.0, 4.0, 1e9, ok, 100),
                   (20.0, 100, 0.5 * max_stable_dt(20.0))),
                  (r"k1 = 4\*E\*dt of 0.0", (1e-300, 1, 1e-302, 1e-309, 100),
                   (1e-300, 2.0, 1e-302, 1e-309, 100), (1e-300, 100, 1e-309)),
                  ("both must be normal floats", (1e10, 1, 1e-310, 1e-315, 100),
                   (1e10, 2.0, 1e-310, 1e-315, 100), (1e10, 100, 1e-315))]
        budget = oracles.DRAW_BUDGET
        for match, relax, heated, escape in cases:
            monkeypatch.setattr(oracles, "DRAW_BUDGET", budget if "budget" in match else math.inf)
            for run, args in ((relax_ensemble, relax), (heated_erase, heated),
                              (measure_escape_time, escape)):
                with pytest.raises(ValueError, match=match):
                    run(*args, seed=0)

    def test_stable_dt_follows_kT_below_a_low_barrier(self):
        # Below E = kT the walk's thermal spread, not the minima, sets the curvature.
        assert max_stable_dt(1e-3) == max_stable_dt(1.0)
        assert max_stable_dt(2.0) == 0.1 / 16.0


def scalar_em_path(barrier, x, z, dt, temperature=1.0):
    """Reference loop: x <- x - U'(x)*dt + amp*z, one Python float at a time.

    U'(x) = 4*E*x*(x^2 - 1) is written out here.  z[k, i] is the noise of
    step k + 1 of row i; returns the path in the same layout.
    """
    amp = math.sqrt(2.0 * temperature * dt)
    path = np.empty_like(z)
    for i, xi in enumerate(x):
        xi = float(xi)
        for k in range(z.shape[0]):
            grad = 4.0 * barrier * xi * (xi * xi - 1.0)
            xi = xi - grad * dt + amp * z[k, i]
            path[k, i] = xi
    return path


def constants(barrier, dt, temperature=1.0):
    """A walk's (k1, sqrt(k1), noise scale), from doublewell._walk for one step of one row."""
    return doublewell._walk(barrier, temperature, dt, 1, dt)[1]


def em_walk(x, n_steps, barrier, dt, noise, temperature=1.0):
    """Walk x through doublewell._em_walk chunk by chunk; return the path in x.

    noise(path, scale) fills a chunk with the walk's noise at its scale.
    """
    k1, root, scale = constants(barrier, dt, temperature)
    y = x * root
    path = np.empty((n_steps, x.size))
    for step in range(0, n_steps, doublewell._CHUNK):
        chunk = path[step:step + doublewell._CHUNK]
        noise(chunk, scale)
        doublewell._em_walk(y, chunk, k1)
    return path / root


class KickStream:
    """Zero noise, but for one normal at each (step, column) that walks x = 1 to x = -1.

    Walked from x = 1 with this noise, a row stays at 1 (the minimum, up
    to rounding) until its kick and at -1 after it, so it first reads
    x <= 0 at exactly the kicked step; the columns are the active rows
    of the draw that holds the step.
    """

    def __init__(self, kicks, dt):
        self.kicks, self.z, self.steps = kicks, -2.0 / math.sqrt(2.0 * dt), 0

    def standard_normal(self, size, out):
        out[...] = 0.0
        for step, col in self.kicks:
            if self.steps < step <= self.steps + size[0]:
                out[step - self.steps - 1, col] = self.z
        self.steps += size[0]
        return out


def normals(stream, path, scale):
    """The escape's noise: the stream's normals at a walk's scale."""
    stream.standard_normal(path.shape, out=path)
    path *= scale


def signs(stream, path, scale):
    """The noise of relax and heated: the stream's signs at a walk's scale."""
    stream.signs(path.shape, out=path, scale=scale)


class TestEmStep:
    def test_drift_vanishes_at_stationary_points(self):
        # In y = sqrt(k1)*x the stationary points are 0 and +-sqrt(k1).
        dt = 0.5 * max_stable_dt(2.0)
        k1, root, scale = constants(2.0, dt)
        y0 = np.array([0.0, root, -root])
        z = make_stream(30, 0).standard_normal((1, 3))
        got = np.empty((1, 3))
        normals(make_stream(30, 0), got, scale)
        doublewell._em_walk(y0.copy(), got, k1)
        np.testing.assert_allclose(got[0], y0 + scale * z[0], rtol=1e-14, atol=1e-14 * root)

    def test_rejects_unstable_dt(self):
        for dt in (2.0 * max_stable_dt(2.0), 0.0):
            with pytest.raises(ValueError):
                relax_ensemble(2.0, 1, 1.0, dt, 100, seed=0)
            with pytest.raises(ValueError):
                measure_escape_time(2.0, 10, dt, seed=0)

    @pytest.mark.parametrize("noise", [normals, signs], ids=["standard_normal", "signs"])
    def test_long_run_matches_boltzmann(self, noise):
        # Stationarity oracle: evolve an equilibrium ensemble and compare the
        # empirical CDF of the final states against Boltzmann quadrature
        # (sup-norm tolerance 0.05 for n = 2000, KS 95% is ~0.030), with
        # escape's normals and with the signs of relax and heated.
        dt = 0.5 * max_stable_dt(2.0)
        rng = make_stream(31, 0)
        x = np.concatenate([doublewell._sample_rows(2.0, side, rng, 1000) for side in (0, 1)])
        x = em_walk(x, 1000, 2.0, dt, partial(noise, rng))[-1]
        xs = np.linspace(-2.0, 2.0, 41)
        theory = boltzmann_cdf_grid(2.0, xs)
        empirical = np.array([(x <= xi).mean() for xi in xs])
        assert np.max(np.abs(empirical - theory)) < 0.05

    def test_carried_state_is_a_copy_of_the_last_row(self):
        # The next chunk's draw overwrites the buffer, so a state that
        # aliased it would start that chunk from fresh noise.
        dt = 0.5 * max_stable_dt(2.0)
        k1, root, scale = constants(2.0, dt)
        y = root * np.array([1.0, -1.0, 0.5])
        path = np.empty((doublewell._CHUNK, y.size))
        stream = make_stream(33, 0)
        for _ in range(3):
            signs(stream, path, scale)
            doublewell._em_walk(y, path, k1)
            assert not np.shares_memory(y, path)
            np.testing.assert_array_equal(y, path[-1])


class TestBlockKernels:
    def test_relax_block_matches_scalar_loop(self):
        # 700 steps are 21 chunks and 28 steps; the record adds the last
        # step of a chunk (32, 512) and the first of the next (33, 513).
        # The block's chunks draw the signs of one (n_steps, rows) draw.
        dt = 0.5 * max_stable_dt(2.0)
        rows, n_steps = 5, 700
        assert n_steps % doublewell._CHUNK
        record = np.union1d(doublewell._log_step_grid(n_steps), [32, 33, 512, 513])
        (got,) = doublewell._relax_block(make_stream(50, 0), rows, 2.0, 1,
                                         constants(2.0, dt, 3.0), record)

        rng = make_stream(50, 0)
        x0 = doublewell._sample_rows(2.0, 1, rng, rows)
        want = scalar_em_path(2.0, x0, rng.signs((n_steps, rows)), dt, temperature=3.0)
        assert got.shape == (1 + record.size, rows)
        np.testing.assert_array_equal(got[0], x0)
        np.testing.assert_allclose(got[1:], want[record - 1], rtol=1e-12)

    def test_escape_block_matches_scalar_loop(self):
        # 700 steps are 21 chunks and 28 steps.  Rows that crossed in a
        # chunk drop out after it, and the rest draw their own (width, rows)
        # normals for the next.
        dt = 0.5 * max_stable_dt(2.0)
        rows, max_steps, c = 40, 700, doublewell._CHUNK
        (got,) = doublewell._escape_block(make_stream(51, 0), rows, constants(2.0, dt), max_steps)

        rng = make_stream(51, 0)
        want = np.full(rows, -1)
        x, active = np.full(rows, 1.0), np.arange(rows)
        for walked in range(0, max_steps, c):
            path = scalar_em_path(2.0, x, rng.standard_normal((min(c, max_steps - walked),
                                                               active.size)), dt)
            crossed = path <= 0.0
            hit = crossed.any(axis=0)
            want[active[hit]] = walked + crossed[:, hit].argmax(axis=0) + 1
            x, active = path[-1, ~hit], active[~hit]
        np.testing.assert_array_equal(got, want)
        chunks = np.unique((want[want > 0] - 1) // c)
        assert chunks.size > 3 and chunks[-1] > 5 and (want < 0).any()

    def test_escape_steps_at_chunk_and_walk_ends(self):
        # Rows 0-3 cross at the last step of the first chunk, the first
        # step of the second, the walk's last step and a step inside the
        # third chunk; row 4 never does.  The third chunk's active rows are
        # 2-4 and the last chunk's 2 and 4.
        dt = 0.5 * max_stable_dt(2.0)
        c = doublewell._CHUNK
        kicks = [(c, 0), (c + 1, 0), (2 * c + 5, 1), (3 * c + 7, 0)]
        (got,) = doublewell._escape_block(KickStream(kicks, dt), 5, constants(2.0, dt), 3 * c + 7)
        np.testing.assert_array_equal(got, [c, c + 1, 3 * c + 7, 2 * c + 5, -1])

    def test_block_working_set_is_bounded(self):
        # A 2048-row block holds its output (1.3 MB for the default relax's
        # 78 records) and one (_CHUNK, rows) noise buffer of 0.5 MB.
        dt = 0.5 * max_stable_dt(2.0)
        record = doublewell._log_step_grid(6400)
        dt3 = 0.5 * max_stable_dt(3.0)
        max_steps = math.ceil(oracles.CAP * oracles.escape_mfpt(3.0) / dt3)
        peaks = []
        for block in (partial(doublewell._relax_block, make_stream(52, 0), BLOCK, 2.0, 1,
                              constants(2.0, dt), record),
                      partial(doublewell._escape_block, make_stream(53, 0), BLOCK,
                              constants(3.0, dt3), max_steps)):
            tracemalloc.start()
            try:
                block()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 4e6 and peaks[1] <= 2e6, peaks

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exhausted_budget_raises_unwrapped(self, monkeypatch, workers):
        # A cap of 1% of the expected steps, read in the parent and sent
        # with the task, so the blocks run out of steps in a forked pool too;
        # the parent must raise EscapeInfeasibleError itself.
        monkeypatch.setattr(oracles, "CAP", 0.01)
        with pytest.raises(EscapeInfeasibleError, match=f"of {BLOCK + 1} trajectories did not"):
            measure_escape_time(2.0, BLOCK + 1, 0.5 * max_stable_dt(2.0), seed=0,
                                worker_count=workers)


class TestSampleWell:
    def test_side_conditioning(self):
        s = make_stream(32, 0)
        assert all(sample_one(2.0, 1, s) > 0 for _ in range(200))
        assert all(sample_one(2.0, 0, s) < 0 for _ in range(200))

    def test_conditional_mean_potential(self):
        n = 100_000
        u = potential(doublewell._sample_rows(2.0, 1, make_stream(33, 0), n), 2.0)
        oracle = boltzmann_mean_potential(2.0, side=1)
        assert abs(u.mean() - oracle) < 3.0 * u.std(ddof=1) / math.sqrt(n)

    def test_mirror_symmetry(self):
        a = doublewell._sample_rows(2.0, 1, make_stream(34, 0), 20_000)
        b = doublewell._sample_rows(2.0, 0, make_stream(35, 0), 20_000)
        assert abs(a.mean() + b.mean()) < 4.0 * a.std() / math.sqrt(a.size)

    def test_rejects_bad_side(self, no_stream):
        # _relax refuses the side before any block samples a well.
        dt = 0.5 * max_stable_dt(2.0)
        with pytest.raises(ValueError, match="side must be 0 or 1"):
            relax_ensemble(2.0, 2, 1.0, dt, 100, seed=0)
        with pytest.raises(ValueError, match="side must be 0 or 1"):
            heated_erase(2.0, 1.0, 1.0, dt, 100, seed=0, side=2)

    @pytest.mark.parametrize("barrier", [2.0, 4.0])
    def test_boltzmann_grid_is_scipy_cumulative_trapezoid(self, barrier):
        # Written out in numpy, the table keeps scipy's bytes, and with them
        # every double-well CSV byte.
        x, cdf = doublewell._boltzmann_grid(barrier)
        want = cumulative_trapezoid(np.exp(-doublewell._potential(x, barrier)), x, initial=0.0)
        want /= want[-1]
        assert np.array_equal(cdf, want)


class TestRelaxEnsemble:
    def test_forgets_to_half(self):
        series = relax_ensemble(2.0, 1, 20.0, 0.5 * max_stable_dt(2.0), 2000, seed=36)
        assert series.p1[0] == 1.0
        assert abs(series.p1[-1] - 0.5) < 0.05

    def test_mean_energy_time_invariant(self):
        # Conditional-equilibrium start equals the restriction of the global
        # equilibrium, so <U> is constant; cross-check level by quadrature.
        series = relax_ensemble(2.0, 1, 10.0, 0.5 * max_stable_dt(2.0), 4000, seed=37)
        oracle = boltzmann_mean_potential(2.0, side=1)
        assert abs(series.mean_U[0] - oracle) < 3.0 * series.se_U[0]
        drift = np.abs(series.mean_U - series.mean_U[0])
        assert np.max(drift) < 3.0 * np.max(series.se_U) + 0.02

    def test_sides_mirror(self):
        dt = 0.5 * max_stable_dt(2.0)
        s1 = relax_ensemble(2.0, 1, 5.0, dt, 2000, seed=38)
        s0 = relax_ensemble(2.0, 0, 5.0, dt, 2000, seed=39)
        np.testing.assert_allclose(s0.p1, 1.0 - s1.p1, atol=0.06)

    def test_requires_minimum_ensemble(self):
        with pytest.raises(ValueError):
            relax_ensemble(2.0, 1, 1.0, 0.5 * max_stable_dt(2.0), 50, seed=0)


class TestEscapeTime:
    def test_monotone_in_barrier(self):
        times = []
        for barrier in (1.0, 2.0, 3.0):
            t, _ = measure_escape_time(barrier, 500, 0.5 * max_stable_dt(barrier), seed=40)
            times.append(t)
        assert times[0] < times[1] < times[2]

    def test_infeasible_barrier_errors_fast(self, no_stream):
        # 20 kT: 1.4e7 time units per escape, 4.4e10 steps at the default dt.
        with pytest.raises(ValueError, match="above the budget"):
            measure_escape_time(20.0, 10, 0.5 * max_stable_dt(20.0), seed=0)

    def test_budget_exceeded_errors(self, no_stream, monkeypatch):
        # 12 kT at n = 10 expects 2e9 draws (with 128 rows per block-step)
        # and may run; at n = 10**4, 1.6e11 draws are refused.
        class Started(Exception):
            pass

        def start(*args, **kwargs):
            raise Started

        dt = 0.5 * max_stable_dt(12.0)
        monkeypatch.setattr(doublewell, "run_blocks", start)
        with pytest.raises(Started):
            measure_escape_time(12.0, 10, dt, seed=0)
        with pytest.raises(ValueError, match="above the budget"):
            measure_escape_time(12.0, 10 ** 4, dt, seed=0)

    def test_cap_is_from_the_far_edge_and_budget_from_plus_one(self, monkeypatch):
        # At 1e-7 kT a walk from +1 escapes in 50.5 on average, but one that
        # drifts out to the edge (U = 60 kT) takes 1787: CAP times the
        # former stranded 2 of 2000 trajectories.
        seen = {}

        def run_blocks(task, n, block, seed, worker_count=1):
            seen.update(task.keywords)
            return (np.ones(n, dtype=np.int64),)

        monkeypatch.setattr(doublewell, "run_blocks", run_blocks)
        dt = 0.5 * max_stable_dt(1e-7)
        measure_escape_time(1e-7, 2000, dt, seed=0)
        assert seen["max_steps"] == math.ceil(oracles.CAP * oracles.escape_mfpt(1e-7, math.inf)
                                              / dt)
        assert oracles.escape_mfpt(1e-7, math.inf) > 30 * oracles.escape_mfpt(1e-7)
        # The budget still charges the mean from +1: 10**5 rows expect 8.6e8
        # draws from there, and would expect 3.0e10 from the edge.
        measure_escape_time(1e-7, 10 ** 5, dt, seed=0)


class TestHeatedErase:
    def test_equal_temperature_degenerates_to_relax(self):
        # Byte for byte, over more than one block.
        dt = 0.5 * max_stable_dt(3.0)
        series, mean_du, _ = heated_erase(3.0, 1.0, 3.0, dt, BLOCK + 500, seed=41)
        plain = relax_ensemble(3.0, 1, 3.0, dt, BLOCK + 500, seed=41)
        for name in ("times", "p1", "se_p1", "mean_U", "se_U"):
            assert getattr(series, name).tobytes() == getattr(plain, name).tobytes(), name
        assert mean_du == pytest.approx(plain.mean_U[-1] - plain.mean_U[0], rel=1e-9)

    def test_hot_bath_injects_energy(self):
        dt = 0.5 * max_stable_dt(4.0)
        _series, mean_du, se_du = heated_erase(4.0, 4.0, 5.0, dt, 2000, seed=42)
        assert mean_du > 3.0 * se_du
        # Quadrature oracle for the heated equilibrium level.
        hot = boltzmann_mean_potential(4.0, temperature=4.0)
        ambient = boltzmann_mean_potential(4.0, side=1)
        assert hot > ambient

    def test_heating_accelerates_forgetting(self):
        # At kT_hot = E the hot run forgets much faster than the ambient one.
        dt = 0.5 * max_stable_dt(4.0)
        hot, _, _ = heated_erase(4.0, 4.0, 3.0, dt, 1000, seed=43)
        cold = relax_ensemble(4.0, 1, 3.0, dt, 1000, seed=43)
        assert abs(hot.p1[-1] - 0.5) < 0.06
        assert cold.p1[-1] > 0.8

    def test_step_must_be_stable_at_the_hot_temperature(self):
        # At kT_hot = 16 > E the stability bound is a quarter of the ambient one.
        hot = max_stable_dt(4.0) / 4.0
        assert max_stable_dt(4.0, 16.0) == hot
        with pytest.raises(ValueError, match="stability bound"):
            heated_erase(4.0, 16.0, 1.0, 0.5 * max_stable_dt(4.0), 100, seed=0)
        heated_erase(4.0, 16.0, 0.1, 0.5 * hot, 100, seed=0)

    def test_rejects_cooling(self):
        with pytest.raises(ValueError):
            heated_erase(2.0, 0.5, 1.0, 0.5 * max_stable_dt(2.0), 500, seed=0)
