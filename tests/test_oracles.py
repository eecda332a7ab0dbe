import math
import warnings

import pytest
from scipy.integrate import quad
from scipy.special import zeta

from thermobit import oracles

BETA = -zeta(0.5) / math.sqrt(2.0 * math.pi)


def nested_write_mfpt(u0, dt):
    """E[T] = int_{-inf}^b phi(x) int_x^b Phi(y)/phi(y) dy dx at the shifted b, by nested quad.

    The stationary average of the mean first-passage time from x up to b
    (Gardiner), cut at x = -12, where phi is 1e-32.
    """
    b = u0 + BETA * math.sqrt(1.0 - math.exp(-2.0 * dt))

    def pdf(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def from_x(x):
        return quad(lambda y: 0.5 * math.erfc(-y / math.sqrt(2.0)) / pdf(y), x, b,
                    epsabs=0.0, epsrel=1e-11)[0]

    return quad(lambda x: pdf(x) * from_x(x), -12.0, b, epsabs=0.0, epsrel=1e-10)[0]


@pytest.mark.parametrize("u0, dt", [(0.5, 0.01), (1.0, 0.01), (1.0, 0.04), (2.0, 0.01)])
def test_write_mfpt_matches_nested_quad(u0, dt):
    assert oracles.write_mfpt(u0, dt) == pytest.approx(nested_write_mfpt(u0, dt), rel=1e-5)


def test_write_mfpt_reproduces_the_simulated_means():
    # Simulated mean durations at n = 2e5 and dt = 0.01 tau: 0.9379 +- 0.0033
    # at 0.5 sigma, 2.0988 +- 0.0061 at sigma, 11.308 +- 0.027 at 2 sigma.
    for u0, mean, se in ((0.5, 0.9379, 0.0033), (1.0, 2.0988, 0.0061), (2.0, 11.308, 0.027)):
        assert abs(oracles.write_mfpt(u0, 0.01) - mean) < 3.0 * se


def nested_escape_mfpt(barrier_kT, start):
    """T = int_0^start e^{U(y)} int_y^inf e^{-U(z)} dz dy by nested quad (Gardiner)."""
    def u(x):
        return barrier_kT * (x * x - 1.0) ** 2

    def tail(y):
        return quad(lambda z: math.exp(-u(z)), y, math.inf, epsabs=0.0, epsrel=1e-11,
                    limit=200)[0]

    return quad(lambda y: math.exp(u(y)) * tail(y), 0.0, start, epsabs=0.0, epsrel=1e-10,
                limit=200)[0]


@pytest.mark.parametrize("barrier", [1e-3, 2.0])
def test_escape_mfpt_from_the_far_edge_matches_nested_quad(barrier):
    # From the far edge, where U = 60 kT: 18.2648 at 1e-3 kT against 4.71
    # from +1, and 2.39287 at 2 kT against 2.30327.  A start past the edge
    # counts as the edge.
    edge = math.sqrt(1.0 + math.sqrt(60.0 / barrier))
    expected = nested_escape_mfpt(barrier, edge)
    assert oracles.escape_mfpt(barrier, edge) == pytest.approx(expected, rel=1e-5)
    assert oracles.escape_mfpt(barrier, math.inf) == oracles.escape_mfpt(barrier, edge)


def test_oracles_past_float_range_are_inf_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracles.write_mfpt(40.0, 0.01) == math.inf
        assert oracles.write_mfpt(1e300, 1e300) == math.inf
        assert oracles.escape_mfpt(800.0) == math.inf
        assert 1e12 < oracles.write_mfpt(7.5, 0.01) < 1.1e12


def test_budget_counts_rows_steps_and_a_floor_per_block_step():
    oracles.check_budget(10 ** 5, 10 ** 5)
    oracles.check_budget(1, 7e7, blocks=1)  # 129 rows' worth: 9.0e9
    for rows, steps, blocks in ((10 ** 5 + 1, 10 ** 5, 0), (1, 8e7, 1), (1, math.inf, 0),
                                (1, math.nan, 0)):
        with pytest.raises(ValueError, match="above the budget"):
            oracles.check_budget(rows, steps, blocks)
