"""Exact Ornstein-Uhlenbeck dynamics for the parallel-RC memory cell.

The capacitor voltage of a resistor-capacitor cell driven by Johnson
noise is an OU process with relaxation time tau = R*C and stationary
standard deviation sigma_st = sqrt(kT/C).  The one-step transition law
is Gaussian and known in closed form, so the integrator here is exact
in distribution for any step size: there is no discretization error to
argue about when checking energy balances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .streams import RngStream

__all__ = [
    "BOLTZMANN",
    "CellParams",
    "ou_step",
    "ou_sample_stationary",
]

# SI defining value of the Boltzmann constant, J/K.
BOLTZMANN = 1.380649e-23


def _check_positive(**values):
    for name, x in values.items():
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {x!r}")


@dataclass(frozen=True)
class CellParams:
    """Physical parameters of the RC memory cell.

    `boltzmann` defaults to the SI value; the reduced-unit constructor
    sets it to 1 so that kT = 1 and sigma_st = 1, which makes every
    test tolerance parameter-free.
    """

    temperature: float  # K
    resistance: float  # ohm
    capacitance: float  # F
    boltzmann: float = BOLTZMANN  # J/K

    def __post_init__(self):
        _check_positive(**vars(self))

    @classmethod
    def reduced(cls):
        """Reduced-unit cell: kT = 1, C = 1, R = 1, so sigma_st = 1 and tau = 1."""
        return cls(temperature=1.0, resistance=1.0, capacitance=1.0, boltzmann=1.0)

    @property
    def tau(self):
        """Relaxation time R*C, seconds."""
        return self.resistance * self.capacitance

    @property
    def kT(self):
        """Thermal energy scale, joules."""
        return self.boltzmann * self.temperature

    @property
    def sigma_st(self):
        """Stationary voltage standard deviation sqrt(kT/C), volts."""
        return math.sqrt(self.kT / self.capacitance)


def _check_step_args(v, dt):
    if not np.all(np.isfinite(v)):
        raise ValueError("state must be finite")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")


def _transition(t, p: CellParams):
    """(mu, s) of the exact OU law over time t: v(t) ~ N(v(0)*mu, s^2).

    mu = exp(-t/tau) and s = sigma_st*sqrt(1 - mu^2), the latter via expm1
    so that short steps keep their relative precision.
    """
    return math.exp(-t / p.tau), p.sigma_st * math.sqrt(-math.expm1(-2.0 * t / p.tau))


def _advance(v, t, p: CellParams, z):
    """v(t) of the exact OU law from v(0) = v, given standard normals z: v*mu + s*z."""
    mu, s = _transition(t, p)
    return v * mu + s * z


def ou_step(v, dt, p: CellParams, rng: RngStream):
    """Advance the voltage by `dt` using the exact OU transition.

    Returns v*mu + s*Z with (mu, s) from `_transition`.  `v` may be a
    scalar or an array; one standard normal is drawn per element.
    """
    _check_step_args(v, dt)
    return _advance(v, dt, p, rng.standard_normal(np.shape(v) or None))


def ou_sample_stationary(p: CellParams, rng: RngStream, size=None):
    """Draw from the stationary law N(0, kT/C)."""
    return p.sigma_st * rng.standard_normal(size)
