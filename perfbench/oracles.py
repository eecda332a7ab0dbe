"""Analytic oracles and tolerances for the benchmark's correctness checks.

Everything here is derived from the physics in reduced units (kT = 1,
C = 1, tau = 1, gamma = 1, x0 = 1) and uses only `math` and numpy; no
theory function of `thermobit` is called, so a bug there cannot hide a
bug in the simulation.

Tolerance policy.  A run makes at most about 1000 checks.  For a
correct program to fail a run less than once in 10^4 runs, each check
may fail spuriously with probability below 1e-7:

* Binomial counts (read errors, residence in a well) are tested with
  exact binomial tail probabilities, each tail at ALPHA = 2e-8, so a
  two-sided test rejects a correct count with probability < 4e-8.
* Sample means (heats, energy drift, escape times) are tested as
  |mean - expected| <= Z * SE with Z = 6.  The normal two-sided tail at
  6 sigma is 2e-9.  The samples are chi-square-like or exponential-like
  (skewness <= 3), and every mean is over n >= 500 draws; for the mean
  of 500 chi-square(1) draws the Wilson-Hilferty tail beyond 6 SE is
  3.5e-8, and estimating SE from the sample moves the limit by less
  than 10%, so the per-check false-failure rate stays below 1e-7.
* Where the program's time discretisation has a known, systematic bias,
  a one-sided allowance is added, with its measured size stated.  The
  bias itself is reported as a metric, so the allowance does not hide it.
"""

import functools
import math

import numpy as np

ALPHA = 2e-8
Z = 6.0

# Erase advances on a dt grid, so a requested duration t is simulated
# as some duration in [t, t + dt]; checks accept any value in between.
DT_TAU = 0.01

# Euler-Maruyama with step dt = max_stable_dt / 2 inflates the
# stationary spread in a well (harmonic estimate: variance x 1/(1 -
# kappa*dt/2), mean U up by ~0.013 kT).  The mean-U drift of a relax run
# was measured at +0.024 +- 0.006 kT (2 kT barrier, n = 20000); the
# allowance is twice that.
RELAX_DRIFT_ALLOWANCE_KT = 0.05

# Between p(t) and 1/2 after 20 time units: the two-state relaxation
# time at 2 kT is about the 2.3-unit MFPT, so the residue is
# 0.5 * exp(-20/2.3) ~ 1e-4; allow 1e-3.
RELAX_P1_ALLOWANCE = 1e-3

# Escape is detected only at sample times, so excursions past x = 0
# between samples are missed and the mean first-passage time comes out
# high by O(sqrt(dt)).  Measured at the default dt: +9.9% +- 0.7% at
# 2 kT and +9.7% +- 0.7% at 3 kT (n = 20000).  One-sided allowance 15%.
ESCAPE_BIAS_ALLOWANCE = 0.15


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ou_read_error(u0, t):
    """Read-error probability after thermalizing from +-u0 for time t.

    The OU voltage at t is Gaussian with mean u0*mu, mu = exp(-t), and
    variance 1 - mu^2; the sign read errs with Phi(-u0*mu/sqrt(1-mu^2)).
    """
    if t <= 0.0:
        return 0.0
    mu = math.exp(-t)
    return normal_cdf(-u0 * mu / math.sqrt(-math.expm1(-2.0 * t)))


def erase_heat(u0, t):
    """Mean bath heat of thermalizing from +-u0 for time t.

    Q = -(E[v_t^2] - u0^2)/2 with E[v_t^2] = u0^2 mu^2 + (1 - mu^2), so
    Q = (u0^2 - 1)(1 - mu^2)/2; at t -> infinity this is (u0^2 - 1)/2.
    """
    return 0.5 * (u0 * u0 - 1.0) * -math.expm1(-2.0 * t)


def write_heat(u0):
    """Mean bath heat of a write: the cell starts stationary (E v^2 = 1)
    and ends at +-u0, so Q = (1 - u0^2)/2."""
    return 0.5 * (1.0 - u0 * u0)


@functools.cache
def quadrature_mfpt(barrier_kt, n=200_001):
    """Mean first-passage time from x0 = 1 to 0 in U = E (x^2 - 1)^2.

    T = int_0^1 dy exp(U(y)) int_y^inf dz exp(-U(z))  (gamma = kT = 1),
    by the trapezoid rule; the upper limit is cut where U = 60 kT.
    """
    top = math.sqrt(1.0 + math.sqrt(60.0 / barrier_kt))
    z = np.linspace(0.0, top, n)
    u = barrier_kt * (z * z - 1.0) ** 2
    w = np.exp(-u)
    h = z[1] - z[0]
    cum = np.concatenate(([0.0], np.cumsum(0.5 * h * (w[1:] + w[:-1]))))
    inside = z <= 1.0
    g = np.exp(u[inside]) * (cum[-1] - cum[inside])
    return float(0.5 * h * np.sum(g[1:] + g[:-1]))


def _log_binom_pmf(n, p):
    k = np.arange(n + 1)
    lg = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    return lg[n] - lg - lg[::-1] + k * math.log(p) + (n - k) * math.log1p(-p)


def binom_tails(k, n, p):
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, p), exactly."""
    if p <= 0.0:
        return 1.0, float(k == 0)
    if p >= 1.0:
        return float(k == n), 1.0
    logp = _log_binom_pmf(n, p)
    top = logp.max()
    pmf = np.exp(logp - top)
    total = pmf.sum()
    return (float(pmf[:k + 1].sum() / total), float(pmf[k:].sum() / total))


def binomial_consistent(k, n, p_lo, p_hi):
    """True unless k errors in n is implausible for every p in [p_lo, p_hi]."""
    below, _ = binom_tails(k, n, p_hi)
    _, above = binom_tails(k, n, p_lo)
    return below >= ALPHA and above >= ALPHA


def mean_consistent(mean, se, lo, hi):
    """True when `mean` lies within Z standard errors of [lo, hi]."""
    gap = max(lo - mean, mean - hi, 0.0)
    return gap <= Z * se
