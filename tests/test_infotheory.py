import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobit import infotheory
from thermobit.infotheory import (binary_entropy, bit_information, estimate_error_prob,
                                  wilson_interval)
from thermobit.streams import make_stream

LN2 = math.log(2.0)


class TestBitInformation:
    def test_endpoints_exact(self):
        assert bit_information(0.0) == 1.0
        assert bit_information(1.0) == 1.0
        assert bit_information(0.5) == 0.0

    def test_frozen_reference_value(self):
        # 1 - h2(0.11) evaluated independently with mpmath-checked digits.
        assert bit_information(0.11) == pytest.approx(0.500084041835472, abs=1e-14)

    def test_partial_erase_operating_point(self):
        # p_e after one relaxation time of a u0 = sigma cell.
        assert bit_information(0.3461915440836959) == \
            pytest.approx(0.0693792861201491, abs=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bit_information(-0.01)
        with pytest.raises(ValueError):
            bit_information(1.01)

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0))
    def test_symmetry_and_range(self, p):
        i = bit_information(p)
        assert 0.0 <= i <= 1.0
        assert i == pytest.approx(bit_information(1.0 - p), abs=1e-12)

    @pytest.mark.parametrize("p, exact", [(0.499999999, 2.8853902389117702613e-18),
                                          (0.5 - 0.9999e-4, 2.8848130518433812355e-8)])
    def test_near_half_to_twelve_digits(self, p, exact):
        # 1 - h2 at the float p, by mpmath at 50 digits.  At 0.499999999 the
        # direct sum returns 1.1e-16; near the switch the series' second term
        # moves the value by 7e-9 of itself.
        assert bit_information(p) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q", [0.5, 0.5 + 1e-300, 0.500000001, 0.5 + 3e-5, 0.5 + 0.9999e-4])
    def test_symmetric_about_half(self, q):
        # 1 - q is exact for q in [1/2, 1], and then 1/2 - p is -(1/2 - q) exactly.
        assert bit_information(1.0 - q) == bit_information(q)

    @pytest.mark.parametrize("d", [-infotheory._SERIES_BELOW, infotheory._SERIES_BELOW])
    def test_series_meets_the_direct_sum(self, d):
        p = 0.5 - d
        direct = 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)
        assert abs(infotheory._information_near_half(d) - direct) < 1e-15
        # Across the switch the value moves by no more than its slope allows.
        inside = bit_information(math.nextafter(p, 0.5))
        assert 0.0 <= bit_information(p) - inside < 1e-15

    def test_strictly_decreasing_on_left_half(self):
        grid = np.linspace(0.0, 0.5, 201)
        vals = [bit_information(p) for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestBinaryEntropy:
    def test_exact_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        # +0.0, not -0.0: the CSV of `info eval --p-e 0` reads 0.0.
        assert math.copysign(1.0, binary_entropy(0.0)) == 1.0

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4, 2.0 ** -40):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), rel=1e-15)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)

    def test_within_4_ulp_of_log1p_reference(self):
        # 1 - bit_information(p) fails this: at p = 1e-9 it keeps about 8 digits.
        for p in np.logspace(-300, -1, 300):
            p = float(p)
            ref = -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / LN2)
            assert abs(binary_entropy(p) - ref) <= 4.0 * math.ulp(ref), p


class TestWilsonInterval:
    def test_frozen_reference_value(self):
        # 346 errors in 1000 trials; digits from an independent evaluation
        # of the score-interval formula at z = 1.959963984540054.
        lo, hi = wilson_interval(346, 1000)
        assert lo == pytest.approx(0.3171566601020642, abs=1e-13)
        assert hi == pytest.approx(0.3760219815114867, abs=1e-13)

    def test_zero_errors_lower_edge(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0.0 < hi < 0.05

    def test_contains_point_estimate(self):
        for errors, trials in ((0, 10), (3, 10), (10, 10), (500, 1000)):
            lo, hi = wilson_interval(errors, trials)
            assert lo <= errors / trials <= hi

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_coverage_at_95(self):
        # Frequentist check: the interval should cover the true p in
        # roughly 95% of repetitions (score intervals oscillate a little,
        # so accept [0.93, 0.975]).
        p_true, trials, reps = 0.3, 400, 1000
        rng = make_stream(50, 0)
        covered = 0
        for _ in range(reps):
            errors = int((rng.uniform(size=trials) < p_true).sum())
            lo, hi = wilson_interval(errors, trials)
            covered += lo <= p_true <= hi
        assert 0.93 <= covered / reps <= 0.975


class TestEstimateErrorProb:
    def test_identical_bits(self):
        stats = estimate_error_prob([0, 1, 1, 0], [0, 1, 1, 0])
        assert stats.errors == 0
        assert stats.p_e_hat == 0.0
        assert stats.ci_low == 0.0

    def test_inverted_bits(self):
        stats = estimate_error_prob([0, 1] * 50, [1, 0] * 50)
        assert stats.errors == 100
        assert stats.p_e_hat == 1.0

    def test_matches_wilson(self):
        sent = [1] * 1000
        received = [0] * 346 + [1] * 654
        stats = estimate_error_prob(sent, received)
        lo, hi = wilson_interval(346, 1000)
        assert (stats.ci_low, stats.ci_high) == (lo, hi)

    def test_rejects_mismatched_input(self):
        with pytest.raises(ValueError):
            estimate_error_prob([0, 1], [0])
        with pytest.raises(ValueError):
            estimate_error_prob([], [])

