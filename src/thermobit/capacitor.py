"""Charge-based memory bit: write, read, erase, and energy ledger.

Protocol: a bit is written by connecting the resistor and disconnecting
it the moment the Johnson-noise voltage first reaches the signed target
level (+u0 for bit 1, -u0 for bit 0).  Read-out is a sign decision.
Erasure reconnects the resistor with no measurement and lets the cell
thermalize back to the stationary law.

Every record carries an exact per-trajectory ledger: over a connected
interval with no external work, the heat delivered to the bath equals
the negative change of stored capacitor energy, Q_env = -(E_final -
E_start) with E = C*V^2/2.  The ensemble mean of the erase heat is
(C*u0^2 - kT)/2, which is negative whenever u0 < sigma_st: erasing a
weakly-written bit cools the environment.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtr

from .ensemble import run_parallel_ensemble
from .infotheory import BitChannelStats, InformationContent, estimate_error_prob, remaining_information
from .ou import CellParams, _check_step_args, ou_sample_stationary
from .streams import RngStream

__all__ = [
    "WriteRecord",
    "EraseRecord",
    "ErasureReport",
    "ErasureExperimentConfig",
    "WriteTimeoutError",
    "write_bit",
    "read_bit",
    "erase",
    "erase_dissipation_theory",
    "partial_erase_error_prob",
    "run_erasure_experiment",
    "write_ensemble",
    "erase_ensemble",
    "BLOCK",
]

# Default sampling interval, as a fraction of tau.  Keeps the
# first-passage overshoot bias of the crossing detector negligible.
DEFAULT_DT_FRACTION = 0.01

# Trajectories per ensemble task.  Each block owns one stream, so the
# stream key and the task overhead are paid once per BLOCK trajectories.
BLOCK = 256

# Normals drawn per row per first-passage round.
_ROUND_WIDTH = 128


class WriteTimeoutError(RuntimeError):
    """First passage to the write target did not occur within the guard time."""


@dataclass(frozen=True)
class WriteRecord:
    """Outcome and energy ledger of one write operation."""

    bit_written: int
    target_level: float  # signed, volts
    duration: float  # seconds
    v_start: float
    v_final: float  # == target_level (snapped at the crossing)
    n_samples: int  # measurement decisions taken by the controller
    bath_heat: float  # Q_env, joules
    control_cost_lower_bound: float  # joules, n_samples * per-decision cost


@dataclass(frozen=True)
class EraseRecord:
    """Outcome and energy ledger of one erase (re-thermalization)."""

    v_start: float
    v_final: float
    duration: float
    bath_heat: float


@dataclass(frozen=True)
class ErasureReport:
    """Ensemble statistics of write -> erase(duration) -> read."""

    duration: float
    n_trajectories: int
    mean_Q_env: float
    se_Q_env: float
    theory_Q_env: float
    channel: BitChannelStats
    information: InformationContent


def read_bit(v):
    """Sign decision: 1 for positive voltage, 0 for negative (tie -> 1)."""
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"voltage must be finite, got {v!r}")
    return 1 if v >= 0.0 else 0


def erase_dissipation_theory(u0, p: CellParams):
    """Predicted mean bath heat of a complete erase from +-u0: (C*u0^2 - kT)/2."""
    u0 = float(u0)
    if not (math.isfinite(u0) and u0 >= 0.0):
        raise ValueError(f"u0 must be non-negative, got {u0!r}")
    return 0.5 * (p.capacitance * u0 * u0 - p.kT)


def partial_erase_error_prob(u0, t, p: CellParams):
    """Analytic read-error probability after erasing for time t.

    Starting from +-u0, the voltage at time t is Gaussian with mean
    +-u0*mu and std sigma_st*sqrt(1-mu^2), mu = exp(-t/tau); the sign
    read errs with probability Phi(-u0*mu / std).  Returns 0 at t = 0
    and tends to 0.5 as t -> infinity.
    """
    u0 = float(u0)
    t = float(t)
    if not (math.isfinite(u0) and u0 > 0.0):
        raise ValueError(f"u0 must be positive, got {u0!r}")
    if not (t >= 0.0):
        raise ValueError(f"t must be non-negative, got {t!r}")
    if t == 0.0:
        return 0.0
    mu = math.exp(-t / p.tau)
    if mu == 0.0:
        return 0.5
    s = p.sigma_st * math.sqrt(1.0 - mu * mu)
    return float(ndtr(-u0 * mu / s))


def _bath_heat(c, v_from, v_to):
    """Ledger identity: heat to the bath is minus the stored-energy change."""
    return 0.5 * c * v_from * v_from - 0.5 * c * v_to * v_to


def _first_passage(v, target, p: CellParams, dt, rng, max_duration):
    """Steps each row's sampled walk v <- mu*v + s*z takes to reach its target.

    Rows that start at or beyond their target take 0 steps.  Each round
    draws a (rows, _ROUND_WIDTH) array of normals and walks every row with
    one lfilter call; a row is done at its first sample at or past the
    target, and done rows drop out of later rounds.
    """
    mu = math.exp(-dt / p.tau)
    s = p.sigma_st * math.sqrt(1.0 - mu * mu)
    steps = np.zeros(v.size, dtype=np.int64)
    side = np.sign(v - target)
    active = np.nonzero((v - target) * (0.0 - target) > 0.0)[0]
    prev = v[active]
    walked = 0
    while active.size:
        z = rng.standard_normal((active.size, _ROUND_WIDTH))
        path, _ = lfilter([s], [1.0, -mu], z, axis=1, zi=mu * prev[:, None])
        crossed = (path - target[active, None]) * side[active, None] <= 0.0
        hit = crossed.any(axis=1)
        steps[active[hit]] = walked + crossed[hit].argmax(axis=1) + 1
        walked += _ROUND_WIDTH
        active, prev = active[~hit], path[~hit, -1]
        if active.size and walked * dt > max_duration:
            raise WriteTimeoutError(f"no passage of {active.size} writes within {max_duration!r} s "
                                    f"(u0/sigma = {abs(target[0]) / p.sigma_st:.3g})")
    return steps


def _write_rows(bits, u0, p: CellParams, dt, rng: RngStream,
                per_sample_error=0.5, max_duration=None):
    """Write bits[i] on row i; return (v_start, target, steps, control_cost) arrays."""
    u0 = float(u0)
    if not (math.isfinite(u0) and u0 > 0.0):
        raise ValueError(f"u0 must be positive, got {u0!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not 0.0 < per_sample_error <= 0.5:
        raise ValueError("per_sample_error must lie in (0, 0.5]")
    if max_duration is None:
        # Generous guard: mean first-passage time to u0 from the bulk is
        # O(tau * exp(u0^2 / (2 sigma^2))) for u0 above sigma.
        max_duration = 1e4 * p.tau * math.exp(0.5 * (u0 / p.sigma_st) ** 2)

    target = np.where(bits == 1, u0, -u0)
    v_start = ou_sample_stationary(p, rng, size=target.size)
    steps = _first_passage(v_start, target, p, dt, rng, max_duration)
    control = (steps + 1) * (p.kT * math.log(1.0 / per_sample_error))
    return v_start, target, steps, control


def write_bit(bit, u0, p: CellParams, dt, rng: RngStream, *,
              per_sample_error=0.5, max_duration=None):
    """Write `bit` by first passage of the connected cell to +-u0.

    The initial state is a fresh stationary sample (the cell is assumed
    connected and thermalized before the write).  The voltmeter samples
    every dt; a crossing is declared when consecutive samples straddle
    the signed target, and the final voltage is snapped exactly to the
    target (the controller disconnects at the threshold).  If the
    initial sample already lies at or beyond the target, the write
    completes immediately with a single measurement decision.

    The control-cost lower bound charges kT*ln(1/per_sample_error) per
    measurement decision (kT*ln 2 at the default), reported separately
    from the bath heat.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    v_start, target, steps, control = (x.item() for x in _write_rows(
        np.array([bit]), u0, p, dt, rng, per_sample_error, max_duration))
    return WriteRecord(bit_written=bit, target_level=target, duration=steps * dt,
                       v_start=v_start, v_final=target, n_samples=steps + 1,
                       bath_heat=_bath_heat(p.capacitance, v_start, target),
                       control_cost_lower_bound=control)


def _erase_rows(v0, duration, p: CellParams, dt, rng: RngStream):
    """Thermalize each row of v0 for t = ceil(duration/dt)*dt; return (v_final, t).

    One draw per row: the OU transition over any time t is exactly
    v0*exp(-t/tau) + sigma_st*sqrt(1 - exp(-2t/tau))*Z.
    """
    _check_step_args(v0, dt)
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and non-negative, got {duration!r}")
    if duration == 0.0:
        return v0, 0.0
    t = math.ceil(duration / dt) * dt
    s = p.sigma_st * math.sqrt(-math.expm1(-2.0 * t / p.tau))
    return v0 * math.exp(-t / p.tau) + s * rng.standard_normal(np.shape(v0)), t


def erase(v0, duration, p: CellParams, dt, rng: RngStream):
    """Reconnect the resistor and thermalize for `duration` (no measurement).

    One exact OU transition over ceil(duration/dt)*dt, which is also the
    recorded duration; `dt` only sets that rounding.  The bath heat
    follows from the ledger identity alone.
    """
    v0 = float(v0)
    v_final, t = _erase_rows(np.array([v0]), duration, p, dt, rng)
    v_final = v_final.item()
    return EraseRecord(v_start=v0, v_final=v_final, duration=t,
                       bath_heat=_bath_heat(p.capacitance, v0, v_final))


@dataclass(frozen=True)
class ErasureExperimentConfig:
    """Configuration for the write/erase/read information-decay experiment."""

    cell: CellParams
    u0: float
    durations: tuple
    n_trajectories: int
    master_seed: int
    dt: float = None  # defaults to DEFAULT_DT_FRACTION * tau
    worker_count: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.u0) and self.u0 > 0.0):
            raise ValueError("u0 must be positive")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if not all(0.0 <= d < math.inf for d in self.durations):
            raise ValueError("durations must be finite and non-negative")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")

    @property
    def step(self):
        return self.dt if self.dt is not None else DEFAULT_DT_FRACTION * self.cell.tau


def _sized_block(stream, task, n, first_index):
    return task(stream, min(BLOCK, n - (stream.stream_index - first_index) * BLOCK))


def _run_blocks(block_fn, n, master_seed, worker_count, stream_offset=0, **kwargs):
    """Run block_fn(stream, rows, **kwargs) on ceil(n/BLOCK) blocks; concatenate each output.

    Block k uses stream stream_offset + k and holds BLOCK rows, except
    the last, which holds the rest.
    """
    task = partial(_sized_block, task=partial(block_fn, **kwargs), n=n, first_index=stream_offset)
    parts = run_parallel_ensemble(task, -(-n // BLOCK), master_seed,
                                  worker_count=worker_count, stream_offset=stream_offset)
    return [np.concatenate(column) for column in zip(*parts)]


def _write_block(stream, rows, bit, u0, p, dt):
    v_start, target, steps, control = _write_rows(np.full(rows, bit), u0, p, dt, stream)
    return _bath_heat(p.capacitance, v_start, target), steps, control


def _erase_block(stream, rows, v0, duration, p, dt):
    v0 = np.full(rows, float(v0))
    v_final, _ = _erase_rows(v0, duration, p, dt, stream)
    return (_bath_heat(p.capacitance, v0, v_final),)


def _erasure_block(stream, rows, u0, duration, p, dt):
    bits = stream.integers(0, 2, size=rows)
    _, target, _, _ = _write_rows(bits, u0, p, dt, stream)
    v_final, _ = _erase_rows(target, duration, p, dt, stream)
    return bits, (v_final >= 0.0).astype(bits.dtype), _bath_heat(p.capacitance, target, v_final)


def write_ensemble(bit, u0, p: CellParams, dt, n, master_seed, *, worker_count=1):
    """Write `bit` on n independent cells (see write_bit).

    Returns arrays (bath_heat, steps, control_cost_lower_bound); a
    write of `steps` steps lasts steps*dt and takes steps+1 decisions.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return _run_blocks(_write_block, n, master_seed, worker_count, bit=bit, u0=u0, p=p, dt=dt)


def erase_ensemble(v0, duration, p: CellParams, dt, n, master_seed, *,
                   worker_count=1, stream_offset=0):
    """Bath heat of n independent erases from v0 (see erase), as an array."""
    (heat,) = _run_blocks(_erase_block, n, master_seed, worker_count, stream_offset,
                          v0=v0, duration=duration, p=p, dt=dt)
    return heat


def run_erasure_experiment(config: ErasureExperimentConfig) -> list:
    """Write random bits, erase for each duration, read, and tally.

    Returns one ErasureReport per duration.  Each duration owns a
    disjoint range of block stream indices, so results are reproducible
    and independent of the worker count.
    """
    reports = []
    n = config.n_trajectories
    for d_idx, duration in enumerate(config.durations):
        bits, reads, q = _run_blocks(
            _erasure_block, n, config.master_seed, config.worker_count, d_idx * -(-n // BLOCK),
            u0=config.u0, duration=float(duration), p=config.cell, dt=config.step)
        channel = estimate_error_prob(bits, reads)
        reports.append(ErasureReport(
            duration=float(duration),
            n_trajectories=n,
            mean_Q_env=float(q.mean()),
            se_Q_env=float(q.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            theory_Q_env=erase_dissipation_theory(config.u0, config.cell),
            channel=channel,
            information=remaining_information(channel),
        ))
    return reports
