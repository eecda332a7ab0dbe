"""Exact Ornstein-Uhlenbeck dynamics for the parallel-RC memory cell.

The capacitor voltage of a resistor-capacitor cell driven by Johnson
noise is an OU process with relaxation time tau = R*C and stationary
standard deviation sigma = sqrt(kT/C).  Voltages here are in sigma, times
in tau and energies in kT, so the stationary law is N(0, 1), one standard
normal.  The one-step transition law is Gaussian and known in closed form,
so the integrator here is exact in distribution for any step size: there
is no discretization error to argue about when checking energy balances.
"""

import math

import numpy as np

from .streams import RngStream

__all__ = ["CellParams", "ou_step"]


class CellParams:
    """Placeholder: the capacitor reads no cell object.  Its only user, the benchmark's
    pool probe (perfbench/layers.py), passes CellParams.reduced() to write_bit and
    erase, which ignore it; ROADMAP item 6 deletes it along with write_bit and erase."""

    @classmethod
    def reduced(cls):
        return cls()


def _transition(t):
    """(mu, s) of the exact OU law over time t: v(t) ~ N(v(0)*mu, s^2).

    mu = exp(-t) and s = sqrt(1 - mu^2), the latter via expm1 so that
    short steps keep their relative precision.
    """
    return math.exp(-t), math.sqrt(-math.expm1(-2.0 * t))


def _advance(v, t, z):
    """v(t) of the exact OU law from v(0) = v, given standard normals z: v*mu + s*z."""
    mu, s = _transition(t)
    return v * mu + s * z


def ou_step(v, dt, rng: RngStream):
    """Advance the voltage by `dt` using the exact OU transition.

    Returns v*mu + s*Z with (mu, s) from `_transition`.  `v` may be a
    scalar or an array; one standard normal is drawn per element.
    """
    if not np.all(np.isfinite(v)):
        raise ValueError("state must be finite")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return _advance(v, dt, rng.standard_normal(np.shape(v) or None))
