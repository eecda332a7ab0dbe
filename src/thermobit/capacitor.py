"""Charge-based memory bit: write, read, erase, and energy ledger.

Protocol: a bit is written by connecting the resistor and disconnecting
it the moment the Johnson-noise voltage first reaches the signed target
level (+u0 for bit 1, -u0 for bit 0).  Read-out is a sign decision.
Erasure reconnects the resistor with no measurement and lets the cell
thermalize back to the stationary law.

Units are those of thermobit.ou: voltages in sigma = sqrt(kT/C), times
in tau = RC, heats and control costs in kT.  Every record carries an
exact per-trajectory ledger: over a connected interval with no external
work, the heat delivered to the bath equals the negative change of
stored capacitor energy, Q_env = -(E_final - E_start) with E = V^2/2.
The ensemble mean of the heat of an erase that lasts t is
(1 - exp(-2t))*(u0^2 - 1)/2, which is negative whenever u0 < 1: erasing
a weakly-written bit cools the environment.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import oracles
from .ensemble import run_blocks, standard_error
from .infotheory import BitChannelStats, bit_information, estimate_error_prob
from .ou import _advance, _transition
from .streams import RngStream

__all__ = ["WriteRecord", "EraseRecord", "ErasureReport", "WriteTimeoutError", "write_bit",
           "erase", "erase_dissipation_theory", "partial_erase_error_prob",
           "run_erasure_experiment", "write_ensemble", "erase_ensemble", "BLOCK"]

# Trajectories per ensemble task.  Each block owns one stream key, so the
# re-key and the task overhead are paid once per BLOCK trajectories.
BLOCK = 256

# Normals drawn per row per first-passage round.
_ROUND_WIDTH = 128
# Smallest mu^(_ROUND_WIDTH - 1) walked by one prefix sum (dt <= 2.72 tau).
# The scan weights s*mu^-i then stay below 1e150, since s <= 1.
_SCAN_FLOOR = 1e-150

# No standard normal that numpy's Generator draws exceeds 14 in magnitude:
# its ziggurat tail returns r - log(1 - u)/r with r = 3.654 and
# 1 - u >= 2**-53, at most 13.71.
_Z_BOUND = 14.0
# Largest value the heat statistics of a run may form (float max is 1.8e308).
_HEAT_SUM_MAX = 1e300


class WriteTimeoutError(RuntimeError):
    """A write walked its step cap (see _write_cap) without reaching its target."""


@dataclass(frozen=True)
class WriteRecord:
    """Outcome and energy ledger of one write operation."""

    bit_written: int
    target_level: float  # signed, sigma
    duration: float  # tau
    v_start: float
    v_final: float  # == target_level (snapped at the crossing)
    n_samples: int  # measurement decisions taken by the controller
    bath_heat: float  # Q_env, kT
    control_cost_lower_bound: float  # kT, n_samples * per-decision cost


@dataclass(frozen=True)
class EraseRecord:
    """Outcome and energy ledger of one erase (re-thermalization)."""

    v_start: float
    v_final: float
    duration: float
    bath_heat: float


@dataclass(frozen=True)
class ErasureReport:
    """Ensemble statistics of latch at +-u0 -> erase(duration) -> read."""

    duration: float
    mean_Q_env: float
    se_Q_env: float
    channel: BitChannelStats
    info_bits: float  # 1 - h2(p_e_hat): bits a reader can still recover


def erase_dissipation_theory(u0, t):
    """Exact mean bath heat of an erase from +-u0 that lasts t: (1 - mu^2)*(u0^2 - 1)/2.

    With mu = exp(-t), V(t) ~ N(+-u0*mu, 1 - mu^2), and the heat is the
    mean drop of V^2/2; it tends to the complete-erase (u0^2 - 1)/2.
    """
    u0 = float(u0)
    t = float(t)
    if not (math.isfinite(u0) and u0 >= 0.0):
        raise ValueError(f"u0 must be non-negative, got {u0!r}")
    if not (t >= 0.0):
        raise ValueError(f"t must be non-negative, got {t!r}")
    mu = math.exp(-t)
    return 0.5 * (1.0 - mu * mu) * (u0 * u0 - 1.0)


def partial_erase_error_prob(u0, t, cell=None):
    """Analytic read-error probability after erasing for time t.

    Starting from +-u0, the voltage at time t is Gaussian with mean
    +-u0*mu and std sqrt(1-mu^2), mu = exp(-t); the sign read errs with
    probability Phi(-u0*mu / std).  Returns 0 at t = 0 and tends to 0.5
    as t -> infinity.  `cell` is ignored: the benchmark's self-test
    passes CellParams.reduced().
    """
    u0 = float(u0)
    t = float(t)
    if not (math.isfinite(u0) and u0 > 0.0):
        raise ValueError(f"u0 must be positive, got {u0!r}")
    if not (t >= 0.0):
        raise ValueError(f"t must be non-negative, got {t!r}")
    if t == 0.0:
        return 0.0
    mu = math.exp(-t)
    if mu == 0.0:
        return 0.5
    a = u0 * mu / math.sqrt(1.0 - mu * mu)
    return 0.5 * math.erfc(a * math.sqrt(0.5))


def _bath_heat(v_from, v_to):
    """Ledger identity: heat to the bath is minus the stored-energy change."""
    return 0.5 * v_from * v_from - 0.5 * v_to * v_to


def _first_passage(v, target, dt, rng, max_steps):
    """Steps each row's sampled walk v <- mu*v + s*z takes to reach its target.

    Rows that start at or beyond their target take 0 steps.  Each round
    draws a (rows, _ROUND_WIDTH) array of normals; a row is done at its
    first sample at or past the target, and done rows drop out of later
    rounds.  While mu^(_ROUND_WIDTH - 1) >= _SCAN_FLOOR (dt <= 2.72 tau)
    a round is one prefix sum: with x_0 the sample before the round,

        x_j = mu^(j-1) * (s*z_1 + mu*x_0 + sum_{i=2..j} s*mu^-(i-1)*z_i),

    so x_1 = s*z_1 + mu*x_0 exactly as the recurrence gives it, and a
    sample that lands on +-u0 counts as a crossing.  The rest differ from
    the recurrence only by rounding, at most about eps*max|x|/(1 - mu):
    the error does not grow with mu^-_ROUND_WIDTH, only overflow of the
    weights limits the scan.  Above 2.72 tau the round walks the
    recurrence sample by sample.  A step count can therefore differ from
    a sample-by-sample walk only when a sample lies within rounding of
    +-u0.  The drawn normals are left as drawn.  The walk stops with
    WriteTimeoutError once `walked` passes max_steps.
    """
    mu, s = _transition(dt)
    decay = mu ** np.arange(_ROUND_WIDTH)
    scan = decay[-1] >= _SCAN_FLOOR
    weight = s / decay if scan else s
    steps = np.zeros(v.size, dtype=np.int64)
    active = np.nonzero((v - target) * (0.0 - target) > 0.0)[0]
    # sign*x <= level is (x - target)*side <= 0 exactly, since sign is +-1.
    sign = np.sign(v[active] - target[active])
    level = target[active] * sign
    prev = v[active]
    walked = 0
    while active.size:
        z = rng.standard_normal((active.size, _ROUND_WIDTH))
        path = z * weight
        path[:, 0] += mu * prev
        if scan:
            np.cumsum(path, axis=1, out=path)
            path *= decay
        else:
            for j in range(1, _ROUND_WIDTH):
                path[:, j] += mu * path[:, j - 1]
        crossed = path * sign[:, None] <= level[:, None]
        first = crossed.argmax(axis=1)
        hit = crossed[np.arange(active.size), first]
        steps[active[hit]] = walked + first[hit] + 1
        walked += _ROUND_WIDTH
        miss = ~hit
        active, sign, level, prev = active[miss], sign[miss], level[miss], path[miss, -1]
        if active.size and walked > max_steps:
            raise WriteTimeoutError(f"no passage of {active.size} writes within {max_steps:.3g} "
                                    f"steps (u0 = {abs(target[0]):.3g} sigma)")
    return steps


def _write_cap(u0, dt, rows):
    """Refuse bad arguments or `rows` writes past the draw budget; return a walk's step cap.

    A walk expects the oracle's mean time over dt steps or, once samples
    decorrelate (dt of tau and above), the 1/P(V >= u0) of independent
    draws, whichever is more.  The cap is oracles.CAP times that: the mean
    time is at least 0.35 tau and the tail decays like e^(-t/tau) or faster.
    """
    if not (math.isfinite(u0) and u0 > 0.0):
        raise ValueError(f"u0 must be positive, got {u0!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    steps = oracles.write_mfpt(u0, dt) / dt
    if steps < math.inf:  # then u0 < 37, and erfc(u0/sqrt(2)) is not 0
        steps = max(steps, 2.0 / math.erfc(u0 * math.sqrt(0.5)))
    oracles.check_budget(rows, steps, -(-rows // BLOCK))
    return oracles.CAP * steps


def _write_rows(bits, u0, dt, rng: RngStream, max_steps):
    """Write bits[i] on row i within max_steps; return (v_start, target, steps, control_cost)."""
    target = np.where(bits == 1, u0, -u0)
    v_start = rng.standard_normal(target.size)  # the stationary law N(0, 1)
    steps = _first_passage(v_start, target, dt, rng, max_steps)
    control = (steps + 1) * math.log(2.0)
    return v_start, target, steps, control


def write_bit(bit, u0, cell, dt, rng: RngStream):
    """Write `bit` by first passage of the connected cell to +-u0.

    The initial state is a fresh stationary sample (the cell is assumed
    connected and thermalized before the write).  The voltmeter samples
    every dt; a crossing is declared when consecutive samples straddle
    the signed target, and the final voltage is snapped exactly to the
    target (the controller disconnects at the threshold).  If the
    initial sample already lies at or beyond the target, the write
    completes immediately with a single measurement decision.

    The control-cost lower bound charges kT*ln 2 per measurement
    decision, reported separately from the bath heat.  See _write_cap for its limits.
    `cell` is ignored: the benchmark's pool probe passes CellParams.reduced().
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    u0 = float(u0)
    v_start, target, steps, control = (x.item() for x in _write_rows(
        np.array([bit]), u0, dt, rng, _write_cap(u0, dt, 1)))
    return WriteRecord(bit_written=bit, target_level=target, duration=steps * dt,
                       v_start=v_start, v_final=target, n_samples=steps + 1,
                       bath_heat=_bath_heat(v_start, target),
                       control_cost_lower_bound=control)


def _check_erase_args(v0, duration):
    if not np.all(np.isfinite(v0)):
        raise ValueError("state must be finite")
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and non-negative, got {duration!r}")


def erase(v0, duration, cell, dt, rng: RngStream):
    """Reconnect the resistor and thermalize for `duration` (no measurement).

    One exact OU transition over `duration`, which is also the recorded
    duration.  `cell` and `dt` are accepted and ignored: the exact law
    needs no step, and the benchmark's pool probe (perfbench/layers.py)
    still passes both positionally.  The bath heat follows from the
    ledger identity alone.
    """
    v0 = float(v0)
    _check_erase_args(v0, duration)
    v_final = _erased(np.array([v0]), duration, *_erase_block(rng, 1, duration)).item()
    return EraseRecord(v_start=v0, v_final=v_final, duration=float(duration),
                       bath_heat=_bath_heat(v0, v_final))


def _check_heat_range(u0, n):
    """Refuse a level u0 at which the heat statistics of n erases could overflow.

    An erase from +-u0 ends within |u0| + 14 (mu <= 1, s <= 1,
    |z| <= _Z_BOUND), so every heat lies within +-x^2/2 with x = |u0| + 14,
    and its deviation from the mean within x^2.  The largest value a run
    forms is the sum over rows of the squared heat deviation, behind the
    SE: at most n*x^4.  It must stay below 1e300, which holds for |u0| up
    to about 5e74 at n = 10 and 2e73 at n = 10**7.
    """
    x = abs(u0) + _Z_BOUND
    dev = x * x  # float products overflow to inf, never raise
    if not n * dev * dev < _HEAT_SUM_MAX:
        raise ValueError(f"u0 = {u0!r} overflows the heat statistics of {n} erases")


def _write_block(stream, rows, bit, u0, dt, max_steps):
    v_start, target, steps, control = _write_rows(np.full(rows, bit), u0, dt, stream, max_steps)
    return _bath_heat(v_start, target), steps, control


# Erase blocks only draw; their ensemble computes the states and heats
# once, on the joined arrays, with the same elementwise IEEE operations.
def _erase_block(stream, rows, duration):
    """The draws of `rows` erases lasting `duration`: one normal per row, none at 0."""
    return (stream.standard_normal(rows) if duration > 0.0 else np.zeros(0),)


def _erasure_block(stream, rows, duration):
    """One random bit per row, then the row's erase draws (see _erase_block)."""
    return (stream.integers(0, 2, size=rows),) + _erase_block(stream, rows, duration)


def _erased(v0, duration, z):
    """v0 thermalized for `duration` on the normals z of _erase_block."""
    return v0 if duration == 0.0 else _advance(v0, duration, z)


def write_ensemble(bit, u0, dt, n, master_seed, *,
                   worker_count=1, stream_offset=0):
    """Write `bit` on n independent cells (see write_bit).

    Returns arrays (bath_heat, steps, control_cost_lower_bound); a
    write of `steps` steps lasts steps*dt and takes steps+1 decisions.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    u0 = float(u0)
    task = partial(_write_block, bit=bit, u0=u0, dt=dt, max_steps=_write_cap(u0, dt, n))
    return run_blocks(task, n, BLOCK, master_seed,
                      worker_count=worker_count, stream_offset=stream_offset)


def erase_ensemble(v0, duration, n, master_seed, *,
                   worker_count=1, stream_offset=0):
    """Bath heat of n independent erases from v0 (see erase), as an array.

    v0 must pass _check_heat_range, and n the draw budget, before any block runs.
    """
    _check_erase_args(v0, duration)
    _check_heat_range(float(v0), n)
    oracles.check_budget(n, 1)
    (z,) = run_blocks(partial(_erase_block, duration=duration), n, BLOCK, master_seed,
                      worker_count=worker_count, stream_offset=stream_offset)
    v0 = np.full(n, float(v0))
    return _bath_heat(v0, _erased(v0, duration, z))


def run_erasure_experiment(u0, durations, n, master_seed, *, worker_count=1):
    """Latch random bits at +-u0 on n cells, erase for each duration, read, and tally.

    Returns one ErasureReport per duration.  The durations must be finite,
    non-negative, sorted ascending and at least one; u0 must be positive
    and pass _check_heat_range; a bit and a normal per row and duration
    must fit the draw budget.  All are checked before any block runs.
    Each duration owns a disjoint range of block stream indices, so results
    are reproducible and independent of the worker count.
    """
    u0 = float(u0)
    durations = [float(d) for d in durations]
    if not (math.isfinite(u0) and u0 > 0.0):
        raise ValueError(f"u0 must be positive, got {u0!r}")
    _check_heat_range(u0, n)
    if not durations:
        raise ValueError("the duration grid is empty")
    if not all(0.0 <= d < math.inf for d in durations):
        raise ValueError("durations must be finite and non-negative")
    if durations != sorted(durations):
        raise ValueError("duration grid must be sorted ascending")
    oracles.check_budget(n, 2 * len(durations))
    reports = []
    for d_idx, duration in enumerate(durations):
        bits, z = run_blocks(partial(_erasure_block, duration=duration), n, BLOCK, master_seed,
                             worker_count=worker_count, stream_offset=d_idx * -(-n // BLOCK))
        # A write ends snapped to +-u0 and the OU erase is Markov: only that level matters.
        target = np.where(bits == 1, u0, -u0)
        v_final = _erased(target, duration, z)
        q = _bath_heat(target, v_final)
        channel = estimate_error_prob(bits, (v_final >= 0.0).astype(bits.dtype))
        reports.append(ErasureReport(
            duration=duration,
            mean_Q_env=float(q.mean()),
            se_Q_env=float(standard_error(q)),
            channel=channel,
            info_bits=bit_information(channel.p_e_hat),
        ))
    return reports
