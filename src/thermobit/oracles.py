"""Exact first-passage oracles, and the one draw budget every ensemble is held to.

numpy only; nothing here imports a simulator.  A guard reads an oracle
only to refuse a run before it starts, or to stop a walk at CAP times its
expected length; no draw and no output depends on it.  So a wrong oracle
can refuse a good run, but it cannot make a bad run pass.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = ["DRAW_BUDGET", "MIN_ROWS", "CAP", "check_budget", "escape_mfpt", "write_mfpt"]

DRAW_BUDGET = 10 ** 10  # expected draws of one ensemble: 200-400 s at 20-40 ns a draw
# A step of a per-step kernel costs its block about 2.4 us whatever its rows:
# 128 rows at 19 ns a row-step with a normal draw (numpy 2.4, 2-core x86-64),
# and a 128-row double-well step on signs 2.4-2.6 us; a lone row costs about
# 4 us, as numpy's in-place ufuncs are slower on 1-element arrays.  A row-step
# of relax or heated, whose noise is a sign, costs about 3.3 ns, so the budget
# is conservative for them.
MIN_ROWS = 128
CAP = 100  # an in-run cap stops a walk at CAP times its expected steps
# -zeta(1/2)/sqrt(2 pi): sampling every dt shifts a level by _BETA times the
# step's noise std (Siegmund 1985; Broadie, Glasserman and Kou 1997).
_BETA = 0.5825971579390106


def check_budget(rows, steps, blocks=0):
    """Refuse rows*steps draws, plus MIN_ROWS per step of each of `blocks`, past the budget."""
    draws = steps * (rows + MIN_ROWS * blocks)
    if not draws <= DRAW_BUDGET:  # nan and inf too
        raise ValueError(f"the run expects {draws:.3g} draws ({rows} rows x {steps:.3g} steps), "
                         f"above the budget of {DRAW_BUDGET:.0e}")


def _trapezoid(f, x):
    return np.diff(x) * (f[1:] + f[:-1]) / 2.0


@lru_cache(maxsize=64)  # about 1 ms a call
def escape_mfpt(barrier_kT, start=1.0):
    """Mean first-passage time of the double well from +start (in x0) to 0, in gamma*x0^2/kT.

    T = int_0^start e^{U(y)} int_y^inf e^{-U(z)} dz dy, U(x) = E (x^2 - 1)^2
    in kT (Gardiner, Handbook of Stochastic Methods), by the trapezoid rule with
    the inner limit cut where U = U(start) + 60 kT; a start past the far edge,
    where U = 60 kT, counts as the edge.  inf past float range (E > 700 kT).
    """
    start = min(start, math.sqrt(1.0 + math.sqrt(60.0 / barrier_kT)))
    y = np.linspace(0.0, start, 20_001)
    z = np.linspace(start, math.sqrt(1.0 + math.sqrt(60.0 / barrier_kT
                                                     + (start * start - 1.0) ** 2)), 20_001)
    u_y, u_z = (barrier_kT * (x * x - 1.0) ** 2 for x in (y, z))
    # Summed from the start inward, so that a tail far below its total keeps its digits.
    tail = np.append(np.cumsum(_trapezoid(np.exp(-u_y), y)[::-1])[::-1], 0.0)
    tail += np.sum(_trapezoid(np.exp(-u_z), z))
    with np.errstate(over="ignore"):
        return float(np.sum(_trapezoid(np.exp(u_y) * tail, y)))


@lru_cache(maxsize=64)  # write_bit asks once per write
def write_mfpt(u0_sigma, dt_tau):
    """Mean time, in tau, of a write from a stationary start that samples every dt.

    The continuous first passage to b has mean int_{-inf}^b Phi^2/phi dy
    in sigma and tau units (Gardiner), a start at or past b taking none;
    sampling every dt is, asymptotically in dt, the level b = u0 + _BETA*s
    with s = sqrt(1 - e^{-2dt}).  Trapezoid rule from -8, Phi integrated on
    the same grid; inf past float range (b > 37).
    """
    b = u0_sigma + _BETA * math.sqrt(-math.expm1(-2.0 * dt_tau))
    if b > 37.0:
        return math.inf
    y = np.linspace(-8.0, b, 4001)
    cdf = np.concatenate(([0.0], np.cumsum(_trapezoid(np.exp(-0.5 * y * y), y))))  # sqrt(2 pi) Phi
    return float(np.sum(_trapezoid(cdf * cdf * np.exp(0.5 * y * y), y))) / math.sqrt(2.0 * math.pi)
