"""Bistable bit in a symmetric quartic double well.

The bit state is the sign of an overdamped Langevin coordinate in
U(x) = E*((x/x0)^2 - 1)^2, which has minima at +-x0 separated by a
barrier of height E.  Left alone at ambient temperature, thermal
activation drives the residence probability to 1/2 on the Kramers
timescale, destroying the stored information while the mean potential
energy stays constant: erasure by pure thermalization, with no mean
energy dissipation.  Heating the cell speeds this up at the price of
absorbed energy.

Ensembles run through ensemble.run_blocks in blocks of BLOCK
trajectories; block k draws from the stream make_stream(master_seed, k)
whatever the worker count, so the results are byte-identical for any
number of workers.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .ensemble import run_blocks, standard_error
from .ou import BOLTZMANN, _check_positive

__all__ = [
    "DoubleWellParams",
    "RelaxationSeries",
    "EscapeInfeasibleError",
    "relax_ensemble",
    "heated_erase",
    "measure_escape_time",
    "BLOCK",
]

# Euler-Maruyama stability headroom: a tenth of the inverse curvature
# scale at the minima, where U'' = 8*E/x0^2.
_STABILITY_FRACTION = 0.1

# Trajectories per ensemble task.  An EM step is a few numpy calls for the
# whole block, so their per-call overhead shrinks as rows per call grow.
BLOCK = 2048

# EM steps per noise draw; a round's noise is a (_ROUND, rows) array.
_ROUND = 512

_MAX_TRAJ_STEPS = 10 ** 10  # per relax or heated run; the reason is in _relax


class EscapeInfeasibleError(RuntimeError):
    """Barrier too high for the configured simulation time budget."""


@dataclass(frozen=True)
class DoubleWellParams:
    """Symmetric quartic double-well bit parameters."""

    barrier_height: float  # J
    well_position: float  # m, minima at +-x0
    damping: float  # kg/s
    temperature: float  # K
    boltzmann: float = BOLTZMANN

    def __post_init__(self):
        _check_positive(**vars(self))

    @classmethod
    def reduced(cls, barrier_kT):
        """Reduced units: kT = 1, x0 = 1, damping 1, barrier given as a multiple of kT."""
        return cls(barrier_height=float(barrier_kT), well_position=1.0, damping=1.0,
                   temperature=1.0, boltzmann=1.0)

    @property
    def kT(self):
        return self.boltzmann * self.temperature

    @property
    def max_stable_dt(self):
        return _STABILITY_FRACTION * self.damping * self.well_position ** 2 / (8.0 * self.barrier_height)

    def potential(self, x):
        r = (np.asarray(x) / self.well_position) ** 2 - 1.0
        return self.barrier_height * r * r

    def kramers_time_estimate(self):
        """Crude mean escape time: 2*pi*gamma/sqrt(U''_min*|U''_max|) * exp(E/kT)."""
        x0sq = self.well_position ** 2
        curv = math.sqrt((8.0 * self.barrier_height / x0sq) * (4.0 * self.barrier_height / x0sq))
        return 2.0 * math.pi * self.damping / curv * math.exp(self.barrier_height / self.kT)


@dataclass
class RelaxationSeries:
    """Residence probability and mean potential energy on a time grid."""

    times: np.ndarray
    p1: np.ndarray
    se_p1: np.ndarray
    mean_U: np.ndarray
    se_U: np.ndarray


def _step_count(p, t, dt, name):
    """ceil(t/dt) Euler-Maruyama steps, refused for an unstable dt or a count past int64."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if dt > p.max_stable_dt * (1 + 1e-12):
        raise ValueError(
            f"dt={dt!r} exceeds the Euler-Maruyama stability bound {p.max_stable_dt!r}")
    if not t / dt < 2.0 ** 63:
        raise ValueError(f"{name}/dt = {t / dt:.3g} steps overflows a 64-bit step count")
    return math.ceil(t / dt)


@lru_cache(maxsize=32)
def _boltzmann_grid(p: DoubleWellParams):
    """Inverse-CDF table of the global Boltzmann law on a symmetric grid."""
    kT = p.kT
    # Truncate where the Boltzmann weight is ~e^-40 of the well bottom.
    span = p.well_position * math.sqrt(1.0 + math.sqrt(40.0 * kT / p.barrier_height))
    x = np.linspace(-span, span, 16385)
    w = np.exp(-p.potential(x) / kT)
    # Cumulative trapezoid rule, the expression scipy's cumulative_trapezoid evaluates.
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(x) * (w[1:] + w[:-1]) / 2.0)))
    cdf /= cdf[-1]
    return x, cdf


def _sample_rows(p: DoubleWellParams, side, rng, rows):
    """`rows` equilibrium samples conditioned on residing in one well.

    Inverse-CDF draws from the global Boltzmann law, with wrong-sign draws
    rejected (x == 0 counts as side 1, the read-out tie-break): exactly the
    global equilibrium restricted to the chosen side.
    """
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side!r}")
    grid_x, grid_cdf = _boltzmann_grid(p)
    out = np.empty(rows)
    filled = 0
    while filled < rows:
        x = np.interp(rng.uniform(2 * (rows - filled)), grid_cdf, grid_x)
        x = (x[x >= 0.0] if side == 1 else x[x < 0.0])[:rows - filled]
        out[filled:filled + x.size] = x
        filled += x.size
    return out


def _em_round(x, width, p: DoubleWellParams, dt, temperature, rng):
    """Walk every entry of x through `width` Euler-Maruyama steps; return the path.

    Row k of the (width, rows) result is the state after step k + 1.  The
    round's noise is one standard_normal((width, rows)) draw, so each
    step's noise is contiguous.  Each step x <- x - U'(x)*dt/gamma + amp*z,
    computed as x*(1 + k1 - k1*x^2/x0^2) + amp*z with
    k1 = 4*E*dt/(gamma*x0^2), overwrites its noise row in place.
    """
    k1 = 4.0 * p.barrier_height * dt / (p.damping * p.well_position ** 2)
    k3 = -k1 / p.well_position ** 2
    path = rng.standard_normal((width, x.size))
    path *= math.sqrt(2.0 * p.boltzmann * temperature * dt / p.damping)
    factor = np.empty(x.size)
    for row in path:
        np.multiply(x, x, out=factor)
        factor *= k3
        factor += 1.0 + k1
        factor *= x
        row += factor
        x = row
    return path


def _relax_block(stream, rows, p, side, dt, temperature, record):
    """1-tuple of the states at step 0 and at each step of `record`, shape (1 + len(record), rows).

    Rows start from the ambient conditional equilibrium of `side` and
    evolve at `temperature` up to step record[-1].
    """
    x = _sample_rows(p, side, stream, rows)
    states = [x[None]]
    step, n_steps = 0, int(record[-1])
    while step < n_steps:
        width = min(_ROUND, n_steps - step)
        path = _em_round(x, width, p, dt, temperature, stream)
        states.append(path[record[(record > step) & (record <= step + width)] - step - 1])
        x = path[-1]
        step += width
    return (np.concatenate(states),)


def _escape_block(stream, rows, p, dt, max_steps):
    """1-tuple of each row's first step at x <= 0 from +x0; -1 if none within max_steps.

    Rows that have crossed drop out at the end of each round.
    """
    steps = np.full(rows, -1, dtype=np.int64)
    active = np.arange(rows)
    x = np.full(rows, p.well_position)
    walked = 0
    while active.size and walked < max_steps:
        width = min(_ROUND, max_steps - walked)
        path = _em_round(x, width, p, dt, p.temperature, stream)
        crossed = path <= 0.0
        hit = crossed.any(axis=0)
        steps[active[hit]] = walked + crossed[:, hit].argmax(axis=0) + 1
        walked += width
        active, x = active[~hit], path[-1, ~hit]
    return (steps,)


def _log_step_grid(n_steps):
    """Step indices spaced ~20 per decade from step 1 to n_steps (>= 1)."""
    count = int(round(math.log10(n_steps) * 20)) + 1
    raw = np.round(np.logspace(0.0, math.log10(n_steps), count)).astype(np.int64)
    return np.unique(np.append(raw, n_steps))


def _relax(p, side, t_total, dt, n_traj, seed, temperature, worker_count):
    """Series of an ensemble relaxing at `temperature`, and each trajectory's U change.

    Refuses n_traj*ceil(t_total/dt) > _MAX_TRAJ_STEPS = 1e10 before any block
    runs: 200-400 s at 20-40 ns per trajectory-step, and over 50x the largest
    default run (heated, n = 1e4: 1.28e8); t_total = 1e12 would never end.
    """
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side!r}")
    if n_traj < 100:
        raise ValueError("n_traj must be >= 100")
    if not 0.0 < t_total < math.inf:
        raise ValueError(f"t_total must be positive and finite, got {t_total!r}")

    n_steps = _step_count(p, t_total, dt, "t_total")
    if n_traj * n_steps > _MAX_TRAJ_STEPS:
        raise ValueError(f"{n_traj} x {n_steps} trajectory-steps exceed {_MAX_TRAJ_STEPS:.0e}")
    record = _log_step_grid(n_steps)
    task = partial(_relax_block, p=p, side=side, dt=dt, temperature=temperature, record=record)
    (x,) = run_blocks(task, n_traj, BLOCK, seed, worker_count=worker_count)
    u = p.potential(x)
    p1 = np.mean(x >= 0.0, axis=1)
    series = RelaxationSeries(times=np.append(0.0, record * dt), p1=p1,
                              se_p1=np.sqrt(p1 * (1.0 - p1) / n_traj),
                              mean_U=u.mean(axis=1),
                              se_U=standard_error(u, axis=1))
    return series, u[-1] - u[0]


def relax_ensemble(p: DoubleWellParams, side, t_total, dt, n_traj, seed, *, worker_count=1):
    """Free thermalization of an ensemble written to one side.

    All trajectories start from the conditional-equilibrium law of the
    chosen well and relax at ambient temperature; p1 and mean potential
    energy are recorded on a logarithmic time grid.
    """
    series, _ = _relax(p, side, t_total, dt, n_traj, seed, p.temperature, worker_count)
    return series


def heated_erase(p: DoubleWellParams, T_hot, t_total, dt, n_traj, seed, side=1, *,
                 worker_count=1):
    """Erase by heating: evolve at T_hot from an ambient-equilibrated well.

    Returns (series, mean_dU, se_dU) where dU is the per-trajectory
    potential-energy change; the hot bath injects energy, so the mean is
    positive for T_hot > T.  T_hot == T reduces exactly to
    relax_ensemble with the same seed.
    """
    if not p.temperature <= T_hot < math.inf:
        raise ValueError(f"T_hot must be finite and >= the ambient temperature, got {T_hot!r}")
    series, du = _relax(p, side, t_total, dt, n_traj, seed, T_hot, worker_count)
    return series, float(du.mean()), float(standard_error(du))


def measure_escape_time(p: DoubleWellParams, n_traj, dt, seed, max_time=1e4, *,
                        worker_count=1):
    """Mean first time a trajectory started at +x0 crosses x = 0.

    Raises EscapeInfeasibleError up front when the Kramers estimate of
    the escape time says the run cannot finish within `max_time`
    simulated seconds per trajectory (the passive-erasure timescale is
    exponential in E/kT, so high barriers are out of desk-scale reach),
    and after the run when some trajectory did not escape within it.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if not 0.0 < max_time < math.inf:
        raise ValueError(f"max_time must be positive and finite, got {max_time!r}")
    max_steps = _step_count(p, max_time, dt, "max_time")
    estimate = p.kramers_time_estimate()
    if 20.0 * estimate > max_time:
        raise EscapeInfeasibleError(
            f"Kramers estimate {estimate:.3g} s needs > max_time={max_time:.3g} s "
            f"(barrier is {p.barrier_height / p.kT:.2f} kT)")

    task = partial(_escape_block, p=p, dt=dt, max_steps=max_steps)
    (steps,) = run_blocks(task, n_traj, BLOCK, seed, worker_count=worker_count)
    stuck = np.count_nonzero(steps < 0)
    if stuck:
        raise EscapeInfeasibleError(f"{stuck} of {n_traj} trajectories did not escape within "
                                    f"max_time={max_time:.3g} s")
    t = steps * dt
    return float(t.mean()), float(standard_error(t))
