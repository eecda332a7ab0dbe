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
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import oracles
from .ensemble import run_blocks, standard_error
from .ou import BOLTZMANN, _check_positive

__all__ = ["DoubleWellParams", "RelaxationSeries", "EscapeInfeasibleError", "relax_ensemble",
           "heated_erase", "measure_escape_time", "BLOCK"]

# Euler-Maruyama stability headroom: a tenth of the inverse curvature
# scale of the walk (see DoubleWellParams.max_stable_dt).
_STABILITY_FRACTION = 0.1

# Trajectories per ensemble task.  An EM step is a few numpy calls for the
# whole block, so their per-call overhead shrinks as rows per call grow.
BLOCK = 2048

# EM steps per noise draw; a round's noise is a (_ROUND, rows) array.
_ROUND = 512


class EscapeInfeasibleError(RuntimeError):
    """A trajectory did not escape within the run's step cap (see measure_escape_time)."""


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
        """Largest Euler-Maruyama step for a walk at this temperature.

        A tenth of gamma*x0^2/(8*max(E, kT)): U'' = 8E/x0^2 at the minima,
        and a walk hotter than its barrier spreads to |x| ~ (kT/E)^(1/4)*x0,
        where U'' ~ 12*sqrt(E*kT)/x0^2 is of order 8kT/x0^2 or less.
        """
        return (_STABILITY_FRACTION * self.damping * self.well_position ** 2
                / (8.0 * max(self.barrier_height, self.kT)))

    def potential(self, x):
        r = (np.asarray(x) / self.well_position) ** 2 - 1.0
        return self.barrier_height * r * r


@dataclass
class RelaxationSeries:
    """Residence probability and mean potential energy on a time grid."""

    times: np.ndarray
    p1: np.ndarray
    se_p1: np.ndarray
    mean_U: np.ndarray
    se_U: np.ndarray


def _em_steps(p, n_traj, t, dt):
    """t/dt EM steps; refused for an unstable dt, or when n_traj runs pass the draw budget."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if dt > p.max_stable_dt * (1 + 1e-12):
        raise ValueError(
            f"dt={dt!r} exceeds the Euler-Maruyama stability bound {p.max_stable_dt!r}")
    oracles.check_budget(n_traj, t / dt, -(-n_traj // BLOCK))
    return t / dt


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
    """Series of an ensemble relaxing at `temperature`, and each trajectory's U change."""
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side!r}")
    if n_traj < 100:
        raise ValueError("n_traj must be >= 100")
    if not 0.0 < t_total < math.inf:
        raise ValueError(f"t_total must be positive and finite, got {t_total!r}")

    # The step must be stable at the temperature the walk runs at.
    n_steps = math.ceil(_em_steps(replace(p, temperature=temperature), n_traj, t_total, dt))
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


def measure_escape_time(p: DoubleWellParams, n_traj, dt, seed, *, worker_count=1):
    """Mean first time a trajectory started at +x0 crosses x = 0.

    A trajectory's expected steps are the exact mean first-passage time
    (oracles.escape_mfpt, times gamma*x0^2/kT) over dt.  The retention
    time grows like exp(E/kT), so a high barrier's run is refused past
    the draw budget before any block; a trajectory that has not escaped
    after oracles.CAP times its expected steps raises EscapeInfeasibleError.
    """
    mfpt = oracles.escape_mfpt(p.barrier_height / p.kT) * p.damping * p.well_position ** 2 / p.kT
    max_steps = math.ceil(oracles.CAP * _em_steps(p, n_traj, mfpt, dt))
    task = partial(_escape_block, p=p, dt=dt, max_steps=max_steps)
    (steps,) = run_blocks(task, n_traj, BLOCK, seed, worker_count=worker_count)
    stuck = np.count_nonzero(steps < 0)
    if stuck:
        raise EscapeInfeasibleError(f"{stuck} of {n_traj} trajectories did not escape within "
                                    f"{max_steps} steps, {oracles.CAP}x the expected")
    t = steps * dt
    return float(t.mean()), float(standard_error(t))
