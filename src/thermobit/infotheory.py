"""Binary-channel information measures and error-rate estimation.

A one-bit memory read through a noisy channel with error probability
p_e retains at most 1 - h2(p_e) bits, where h2 is the binary entropy.
These helpers evaluate that measure, the single-bit memory entropy, and
Wilson-interval error-rate estimates from simulated read-outs.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BitChannelStats",
    "bit_information",
    "memory_entropy",
    "nats_to_bits",
    "wilson_interval",
    "estimate_error_prob",
]

# Two-sided 95% standard-normal quantile.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class BitChannelStats:
    """Observed error statistics of a binary channel."""

    trials: int
    errors: int
    p_e_hat: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not 0 <= self.errors <= self.trials:
            raise ValueError("errors must lie in [0, trials]")
        if not (0.0 <= self.ci_low <= self.p_e_hat <= self.ci_high <= 1.0):
            raise ValueError("interval must satisfy 0 <= ci_low <= p_e_hat <= ci_high <= 1")


def _xlog2x(x):
    return 0.0 if x == 0.0 else x * math.log2(x)


def bit_information(p_e):
    """Maximum retrievable information (bits) of one bit read with error p_e.

    Evaluates 1 + p_e*log2(p_e) + (1-p_e)*log2(1-p_e), with the p*log p
    limits at 0 and 1 handled explicitly.
    """
    p_e = float(p_e)
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"p_e must lie in [0, 1], got {p_e!r}")
    return 1.0 + _xlog2x(p_e) + _xlog2x(1.0 - p_e)


def memory_entropy(p0):
    """Entropy of a one-bit memory in units of k (nats).

    p0 is the probability of bit value 0; uses the 0*ln(0) -> 0
    convention so deterministic states have exactly zero entropy.
    """
    p0 = float(p0)
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must lie in [0, 1], got {p0!r}")
    p1 = 1.0 - p0
    out = 0.0
    if p0 > 0.0:
        out -= p0 * math.log(p0)
    if p1 > 0.0:
        out -= p1 * math.log(p1)
    return out


def nats_to_bits(entropy_nats):
    return entropy_nats / math.log(2.0)


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

