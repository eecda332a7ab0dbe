"""Bistable bit in a symmetric quartic double well.

The bit state is the sign of an overdamped Langevin coordinate in
U(x) = E*(x^2 - 1)^2, which has minima at +-1 separated by a barrier of
height E.  The library works in the paper's units: energies in ambient
kT, x in the well position x0, times in gamma*x0^2/kT, and a walk's
temperature as a ratio to ambient.  Left alone at ambient temperature,
thermal activation drives the residence probability to 1/2 on the
Kramers timescale, destroying the stored information while the mean
potential energy stays constant: erasure by pure thermalization, with no
mean energy dissipation.  Heating the cell speeds this up at the price of
absorbed energy.

Ensembles run through ensemble.run_blocks in blocks of BLOCK
trajectories; block k draws from the stream make_stream(master_seed, k)
whatever the worker count, so the results are byte-identical for any
number of workers.  _walk checks a walk once, in the parent, and gives
its step count and constants.  A block then draws _CHUNK steps of noise
at a time into one reused buffer and walks them with one Euler-Maruyama
step function, _em_walk: its working set is _CHUNK*rows*8 bytes plus its
output, however many steps it walks.  The walk is in the scaled
coordinate y = sqrt(k1)*x, k1 = 4*E*dt, in which a step is four array
passes and the noise arrives scaled; relax and heated store
x = y/sqrt(k1), and escape tests y <= 0, its crossed rows leaving the
block after each chunk.  An escape block walks until its slowest row
crosses, so its last few rows walk long stretches nearly alone, where
four ufunc calls a step cost far more than their arithmetic: once at
most _TAIL rows are left, each chunk is drawn as before and _tail_walk
steps each row in Python floats, by the same IEEE operations in the
same order, so every step count and byte is the same.

relax and heated report expectations at fixed times, which need only
weak convergence, so their steps take a random sign as noise (the
simplified weak Euler scheme, weak order 1 like Gaussian EM: Kloeden and
Platen 1992, sec. 14.1; Milstein and Tretyakov 2004), at a tenth of a
normal's cost.  A first passage is a path functional instead: how far a
walk overshoots x = 0 between samples depends on the increment law, so
signs move its discrete-monitoring bias (n = 2e5, +-0.24%: at 2 kT from
+9.2% to +8.3% of the exact mean, at 3 kT from +9.0% to +10.3%, a +2%
shift of criterion 6's ratio), and a Brownian-bridge crossing correction
assumes Gaussian increments.  escape keeps normals.  Both draws fill a
C-contiguous chunk in order and every full chunk takes whole 32-bit
words, so a block's chunks draw what one draw of its whole walk would.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import oracles
from .bounds import _check_positive
from .ensemble import run_blocks, standard_error

__all__ = ["RelaxationSeries", "EscapeInfeasibleError", "max_stable_dt", "relax_ensemble",
           "heated_erase", "measure_escape_time", "BLOCK"]

# Trajectories per ensemble task.  An EM step is a few numpy calls for the
# whole block, so their per-call overhead shrinks as rows per call grow.
BLOCK = 2048

# EM steps per noise draw into a block's one reused (_CHUNK, rows) buffer.
_CHUNK = 32

# An escape block with at most this many rows left walks them in Python
# floats (_tail_walk): there a ufunc call's fixed 0.4-0.9 us outweighs
# the work of its few elements.
_TAIL = 8


class EscapeInfeasibleError(RuntimeError):
    """A trajectory did not escape within the run's step cap (see measure_escape_time)."""


def max_stable_dt(barrier_kT, temperature=1.0):
    """Largest Euler-Maruyama step for a walk at `temperature` over a barrier of barrier_kT.

    A tenth of 1/(8*max(E, T)): U'' = 8E at the minima, and a walk hotter
    than its barrier spreads to |x| ~ (T/E)^(1/4), where U'' ~ 12*sqrt(E*T)
    is of order 8T or less.  A barrier at which 60/E overflows is refused
    too: there the points the escape oracle and the sampling table reach
    out to, where U = 60 kT and 40 kT, lie past float range.
    """
    _check_positive(barrier_kT=barrier_kT, temperature=temperature)
    if not math.isfinite(60.0 / barrier_kT):
        raise ValueError(f"barrier_kT must be at least {60.0 / sys.float_info.max:.3g}, where "
                         f"the well's edge at 60 kT lies in float range, got {barrier_kT!r}")
    bound = 0.1 / (8.0 * max(barrier_kT, temperature))
    if not 0.0 < bound < math.inf:  # 8*max(E, T) overflows, or its inverse does
        raise ValueError(f"no Euler-Maruyama step is stable at barrier_kT={barrier_kT!r} and "
                         f"temperature={temperature!r}: the bound is {bound!r}")
    return bound


def _potential(x, barrier_kT):
    r = np.asarray(x) ** 2 - 1.0
    return barrier_kT * r * r


@dataclass
class RelaxationSeries:
    """Residence probability and mean potential energy on a time grid."""

    times: np.ndarray
    p1: np.ndarray
    se_p1: np.ndarray
    mean_U: np.ndarray
    se_U: np.ndarray


@lru_cache(maxsize=32)
def _boltzmann_grid(barrier_kT):
    """Inverse-CDF table of the global Boltzmann law on a symmetric grid."""
    # Truncate where the Boltzmann weight is ~e^-40 of the well bottom.
    span = math.sqrt(1.0 + math.sqrt(40.0 / barrier_kT))
    x = np.linspace(-span, span, 16385)
    w = np.exp(-_potential(x, barrier_kT))
    # Cumulative trapezoid rule, the expression scipy's cumulative_trapezoid evaluates.
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(x) * (w[1:] + w[:-1]) / 2.0)))
    cdf /= cdf[-1]
    return x, cdf


def _sample_rows(barrier_kT, side, rng, rows):
    """`rows` equilibrium samples conditioned on residing in one well (side 0 or 1).

    Inverse-CDF draws from the global Boltzmann law, with wrong-sign draws
    rejected (x == 0 counts as side 1, the read-out tie-break): exactly the
    global equilibrium restricted to the chosen side.
    """
    grid_x, grid_cdf = _boltzmann_grid(barrier_kT)
    out = np.empty(rows)
    filled = 0
    while filled < rows:
        x = np.interp(rng.uniform(2 * (rows - filled)), grid_cdf, grid_x)
        x = (x[x >= 0.0] if side == 1 else x[x < 0.0])[:rows - filled]
        out[filled:filled + x.size] = x
        filled += x.size
    return out


def _walk(barrier_kT, temperature, dt, n_traj, t):
    """Steps of n_traj walks over time t, and (k1, sqrt(k1), noise scale sqrt(k1)*amp).

    k1 = 4*E*dt and amp = sqrt(2*T*dt).  Refused for a dt that is not
    positive or is above max_stable_dt, when the walks pass the draw
    budget, or where k1 or the noise scale is zero or subnormal: a walk in
    y would then stand still or lose digits.
    """
    bound = max_stable_dt(barrier_kT, temperature)
    _check_positive(dt=dt)
    if dt > bound * (1 + 1e-12):
        raise ValueError(f"dt={dt!r} exceeds the Euler-Maruyama stability bound {bound!r}")
    oracles.check_budget(n_traj, t / dt, -(-n_traj // BLOCK))
    k1 = 4.0 * barrier_kT * dt
    root = math.sqrt(k1)
    scale = root * math.sqrt(2.0 * temperature * dt)
    if not min(k1, scale) >= sys.float_info.min:
        raise ValueError(f"barrier_kT={barrier_kT!r}, dt={dt!r} and temperature={temperature!r} "
                         f"give k1 = 4*E*dt of {k1!r} and a noise scale sqrt(k1)*amp "
                         f"of {scale!r}; both must be normal floats")
    return math.ceil(t / dt), (k1, root, scale)


def _em_walk(y, path, k1):
    """Walk y in place through one chunk of drawn increments sqrt(k1)*amp*z.

    Row k of path becomes the state after the chunk's step k + 1, each
    step overwriting its noise row in place, and y ends as a copy of the
    last row, as the next chunk's draw overwrites path.  The step
    x <- x - U'(x)*dt + amp*z, or x*(1 + k1 - k1*x^2) + amp*z, reads
    y <- y*(1 + k1 - y^2) + sqrt(k1)*amp*z in y = sqrt(k1)*x.
    """
    growth = 1.0 + k1
    factor = np.empty(y.size)
    multiply, subtract, add = np.multiply, np.subtract, np.add  # one lookup per chunk, not per step
    prev = y
    for row in path:  # out passed by position: a keyword costs each call about 0.1 us
        multiply(prev, prev, factor)
        subtract(growth, factor, factor)
        multiply(factor, prev, factor)
        add(row, factor, row)
        prev = row
    y[...] = prev


def _tail_walk(y, path, k1):
    """Walk each of path's few columns in Python floats; return each one's first step at y <= 0.

    The columns are the last active rows of an escape block, for which a
    ufunc call costs more than its arithmetic.  A row stops at its first
    y <= 0 (0 if it never gets there in this chunk); the others end with
    their carried state in y.  The step z + (growth - y*y)*y must stay
    _em_walk's: the same IEEE operations in the same order, so a row
    walks the same floats, and crosses at the same step, on either path.
    """
    growth = 1.0 + k1
    first = [0] * y.size
    for i, (yi, column) in enumerate(zip(y.tolist(), path.T.tolist())):
        for k, z in enumerate(column, 1):
            yi = z + (growth - yi * yi) * yi
            if yi <= 0.0:
                first[i] = k
                break
        y[i] = yi
    return np.array(first)


def _relax_block(stream, rows, barrier_kT, side, walk, record):
    """1-tuple of the states at step 0 and at each step of `record`, shape (1 + len(record), rows).

    Rows start from the ambient conditional equilibrium of `side` and
    walk with sign noise up to step record[-1]; walk is _walk's constants.
    """
    k1, root, scale = walk
    out = np.empty((1 + record.size, rows))
    out[0] = _sample_rows(barrier_kT, side, stream, rows)
    y = out[0] * root
    buf = np.empty(_CHUNK * rows)
    n_steps = int(record[-1])
    done = 0  # records stored so far
    for step in range(0, n_steps, _CHUNK):
        path = buf[:min(_CHUNK, n_steps - step) * rows].reshape(-1, rows)
        stream.signs(path.shape, out=path, scale=scale)
        _em_walk(y, path, k1)
        upto = np.searchsorted(record, step + len(path), side="right")
        np.divide(path[record[done:upto] - step - 1], root, out=out[1 + done:1 + upto])
        done = upto
    return (out,)


def _escape_block(stream, rows, walk, max_steps):
    """1-tuple of each row's first step at x <= 0 from +1; -1 if none within max_steps.

    Rows walk with Gaussian noise, and those that have crossed drop out
    after each chunk; walk is _walk's constants.  Once at most _TAIL rows
    are left, each chunk's draw is the same and _tail_walk steps it.
    """
    k1, root, scale = walk
    steps = np.full(rows, -1, dtype=np.int64)
    active = np.arange(rows)
    y = np.full(rows, root)
    buf = np.empty(_CHUNK * rows)
    for walked in range(0, max_steps, _CHUNK):
        if not active.size:
            break
        path = buf[:min(_CHUNK, max_steps - walked) * active.size].reshape(-1, active.size)
        stream.standard_normal(path.shape, out=path)  # shape by position, for perfbench's trace
        path *= scale
        if active.size > _TAIL:
            _em_walk(y, path, k1)
            crossed = path <= 0.0
            hit = crossed.any(axis=0)
            first = crossed[:, hit].argmax(axis=0) + 1
        else:
            first = _tail_walk(y, path, k1)
            hit = first > 0
            first = first[hit]
        if hit.any():
            steps[active[hit]] = walked + first
            active, y = active[~hit], y[~hit]
    return (steps,)


def _log_step_grid(n_steps):
    """Step indices spaced ~20 per decade from step 1 to n_steps (>= 1)."""
    count = int(round(math.log10(n_steps) * 20)) + 1
    raw = np.round(np.logspace(0.0, math.log10(n_steps), count)).astype(np.int64)
    return np.unique(np.append(raw, n_steps))


def _relax(barrier_kT, side, t_total, dt, n_traj, seed, temperature, worker_count):
    """Series of an ensemble relaxing at `temperature`, and each trajectory's U change."""
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side!r}")
    if n_traj < 100:
        raise ValueError("n_traj must be >= 100")
    _check_positive(t_total=t_total)

    # The step must be stable at the temperature the walk runs at.
    n_steps, walk = _walk(barrier_kT, temperature, dt, n_traj, t_total)
    record = _log_step_grid(n_steps)
    task = partial(_relax_block, barrier_kT=barrier_kT, side=side, walk=walk, record=record)
    (x,) = run_blocks(task, n_traj, BLOCK, seed, worker_count=worker_count)
    u = _potential(x, barrier_kT)
    p1 = np.mean(x >= 0.0, axis=1)
    series = RelaxationSeries(times=np.append(0.0, record * dt), p1=p1,
                              se_p1=np.sqrt(p1 * (1.0 - p1) / n_traj),
                              mean_U=u.mean(axis=1),
                              se_U=standard_error(u, axis=1))
    return series, u[-1] - u[0]


def relax_ensemble(barrier_kT, side, t_total, dt, n_traj, seed, *, worker_count=1):
    """Free thermalization of an ensemble written to one side.

    All trajectories start from the conditional-equilibrium law of the
    chosen well and relax at ambient temperature; p1 and mean potential
    energy are recorded on a logarithmic time grid.
    """
    series, _ = _relax(barrier_kT, side, t_total, dt, n_traj, seed, 1.0, worker_count)
    return series


def heated_erase(barrier_kT, T_hot, t_total, dt, n_traj, seed, side=1, *, worker_count=1):
    """Erase by heating: evolve at T_hot (a ratio to ambient) from an ambient-equilibrated well.

    Returns (series, mean_dU, se_dU) where dU is the per-trajectory
    potential-energy change; the hot bath injects energy, so the mean is
    positive for T_hot > 1.  T_hot == 1 reduces exactly to relax_ensemble
    with the same seed.
    """
    if not 1.0 <= T_hot < math.inf:
        raise ValueError(f"T_hot must be finite and >= the ambient temperature, got {T_hot!r}")
    series, du = _relax(barrier_kT, side, t_total, dt, n_traj, seed, T_hot, worker_count)
    return series, float(du.mean()), float(standard_error(du))


def measure_escape_time(barrier_kT, n_traj, dt, seed, *, worker_count=1):
    """Mean first time a trajectory started at +1 crosses x = 0.

    A trajectory's expected steps are the exact mean first-passage time
    (oracles.escape_mfpt) over dt.  The retention time grows like
    exp(E/kT), so a high barrier's run is refused past the draw budget
    before any block.  A trajectory still in its well after oracles.CAP
    times the mean from the far edge (U = 60 kT) raises EscapeInfeasibleError.
    That mean bounds the mean from every point a walk reaches, so Markov's
    inequality, applied once per two such means, leaves a correct walk at
    most a 2^-50 chance of reaching the cap.
    """
    max_stable_dt(barrier_kT)  # refuses a bad barrier before the oracle reads it
    _, walk = _walk(barrier_kT, 1.0, dt, n_traj, oracles.escape_mfpt(barrier_kT))
    max_steps = math.ceil(oracles.CAP * oracles.escape_mfpt(barrier_kT, math.inf) / dt)
    task = partial(_escape_block, walk=walk, max_steps=max_steps)
    (steps,) = run_blocks(task, n_traj, BLOCK, seed, worker_count=worker_count)
    stuck = np.count_nonzero(steps < 0)
    if stuck:
        raise EscapeInfeasibleError(f"{stuck} of {n_traj} trajectories did not escape within "
                                    f"{max_steps} steps, {oracles.CAP}x the mean from the far edge")
    t = steps * dt
    return float(t.mean()), float(standard_error(t))
