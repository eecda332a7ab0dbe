"""Binary-channel information measures and error-rate estimation.

A one-bit memory read through a noisy channel with error probability
p_e retains at most 1 - h2(p_e) bits, where h2 is the binary entropy.
These helpers evaluate that measure, the binary entropy itself, and
Wilson-interval error-rate estimates from simulated read-outs.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BitChannelStats",
    "bit_information",
    "binary_entropy",
    "wilson_interval",
    "estimate_error_prob",
]

# Two-sided 95% standard-normal quantile.
_Z95 = 1.959963984540054

# Below this |1/2 - p_e| bit_information sums a series, not 1 + p log p + ...
# An mi-curve's p_e_hat = k/n lies at 1/(2n) from 1/2 or more unless it is
# 1/2, so no curve at n < 5000 takes the series' path.
_SERIES_BELOW = 1e-4


@dataclass(frozen=True)
class BitChannelStats:
    """Observed error statistics of a binary channel."""

    trials: int
    errors: int
    p_e_hat: float
    ci_low: float
    ci_high: float


def _xlog2x(x):
    return 0.0 if x == 0.0 else x * math.log2(x)


def _probability(p, name):
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return p


def _information_near_half(d):
    """1 - h2(1/2 - d) = sum_k (2d)^(2k) / (2 ln 2 k (2k - 1)), to three terms.

    For |d| < _SERIES_BELOW the third term is about 1e-16 of the sum and the
    fourth below 6e-17, half an ulp.
    """
    s = 4.0 * d * d
    return s * (1.0 + s / 6.0 + s * s / 15.0) / (2.0 * math.log(2.0))


def bit_information(p_e):
    """Maximum retrievable information (bits) of one bit read with error p_e.

    Evaluates 1 + p_e*log2(p_e) + (1-p_e)*log2(1-p_e), with the p*log p
    limits at 0 and 1 handled explicitly.  Near p_e = 1/2 that sum cancels
    to rounding noise (1.1e-16 for 2.9e-18 at 1/2 - 1e-9), so within
    _SERIES_BELOW of 1/2 it takes the series in d = 1/2 - p_e, exact in
    the float d and symmetric in p_e <-> 1 - p_e.
    """
    p_e = _probability(p_e, "p_e")
    d = 0.5 - p_e
    if abs(d) < _SERIES_BELOW:
        return _information_near_half(d)
    return 1.0 + _xlog2x(p_e) + _xlog2x(1.0 - p_e)


def binary_entropy(p):
    """Binary entropy h2(p), bits: exactly 0 at p = 0 and 1, and 1 at p = 1/2.

    min(p, 1 - p) enters through log1p, so h2 stays within 2 ulp down to p = 1e-300;
    1 - bit_information(p) keeps only about 8 significant digits at p = 1e-9.
    """
    p = _probability(p, "p")
    q = min(p, 1.0 - p)
    return -_xlog2x(q) - (1.0 - q) * math.log1p(-q) / math.log(2.0)


def wilson_interval(errors, trials, z=_Z95):
    """Wilson score interval for a binomial proportion.

    Preferred over the Wald interval because it behaves correctly when
    the estimate sits near 0 or near 0.5, the two regimes the erasure
    experiments live in.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    # Clamp away the last-ulp rounding of center +- half so the interval
    # always contains the point estimate and stays inside [0, 1].
    return max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat))


def estimate_error_prob(sent: Sequence[int], received: Sequence[int]) -> BitChannelStats:
    """Error-rate estimate from paired sent/received bit lists."""
    sent = np.asarray(sent)
    received = np.asarray(received)
    if sent.size == 0 or sent.shape != received.shape:
        raise ValueError("sent and received must be equally sized and non-empty")
    errors = int(np.count_nonzero(sent != received))
    trials = int(sent.size)
    lo, hi = wilson_interval(errors, trials)
    return BitChannelStats(trials=trials, errors=errors,
                           p_e_hat=errors / trials, ci_low=lo, ci_high=hi)

