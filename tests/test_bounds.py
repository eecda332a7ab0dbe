import math

import pytest

from thermobit.bounds import (BOLTZMANN, BoundComparison, NoErasureError, anderson_bound,
                              brillouin_min_dissipation, ice_cube_erasure_energy)

LN2 = math.log(2.0)


class TestBrillouinBound:
    def test_landauer_point(self):
        # The completely inefficient limit p_e = 0.5 gives exactly kT ln 2.
        assert brillouin_min_dissipation(0.5, 300.0) == \
            pytest.approx(BOLTZMANN * 300.0 * LN2, rel=1e-15)

    def test_reliable_bits_cost_more(self):
        vals = [brillouin_min_dissipation(p, 300.0) for p in (0.5, 0.1, 0.01, 1e-6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(BOLTZMANN * 300.0 * math.log(1e6), rel=1e-12)

    def test_linear_in_temperature(self):
        assert brillouin_min_dissipation(0.1, 600.0) == \
            pytest.approx(2.0 * brillouin_min_dissipation(0.1, 300.0), rel=1e-15)

    def test_subnormal_p_e(self):
        # 1/p_e overflows here; -ln(p_e) does not.
        for p_e in (1e-320, 5e-324):
            assert brillouin_min_dissipation(p_e, 300.0) == \
                pytest.approx(-math.log(p_e) * BOLTZMANN * 300.0, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            brillouin_min_dissipation(0.0, 300.0)
        with pytest.raises(ValueError):
            brillouin_min_dissipation(0.6, 300.0)
        with pytest.raises(ValueError):
            brillouin_min_dissipation(0.1, 0.0)


class TestAndersonBound:
    def test_one_bit(self):
        assert anderson_bound(1.0, 300.0) == pytest.approx(-BOLTZMANN * 300.0 * LN2, rel=1e-15)

    def test_zero_entropy_change(self):
        assert anderson_bound(0.0, 300.0) == 0.0

    def test_scaling(self):
        assert anderson_bound(2.0, 300.0) == pytest.approx(2.0 * anderson_bound(1.0, 300.0),
                                                           rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            anderson_bound(-0.1, 300.0)
        with pytest.raises(ValueError):
            anderson_bound(1.0, -10.0)


class TestIceCube:
    def test_frozen_reference_values(self):
        # Oracle: 10 cm^3 * 0.917 g/cm^3 * 333.55 J/g = 3058.6535 J;
        # at 300 K that is 3058.6535 / (k * 300) = 7.3846e23 kT.
        cmp_ = ice_cube_erasure_energy(10.0)
        assert cmp_.cooling_joule == pytest.approx(3058.6535, rel=1e-12)
        assert cmp_.cooling_kT == pytest.approx(3058.6535 / (BOLTZMANN * 300.0), rel=1e-12)
        assert cmp_.cooling_kT == pytest.approx(7.3846e23, rel=1e-4)

    def test_violates_self_entropy_limit(self):
        cmp_ = ice_cube_erasure_energy(10.0)
        assert cmp_.anderson_kT == pytest.approx(-LN2, rel=1e-12)
        assert cmp_.violation_factor > 1e23
        assert 23.5 <= math.log10(cmp_.violation_factor) < 24.5

    def test_linear_in_volume(self):
        one = ice_cube_erasure_energy(1.0)
        five = ice_cube_erasure_energy(5.0)
        assert five.cooling_joule == pytest.approx(5.0 * one.cooling_joule, rel=1e-12)

    def test_no_melting_below_freezing(self):
        with pytest.raises(NoErasureError):
            ice_cube_erasure_energy(10.0, 260.0)
        with pytest.raises(NoErasureError):
            ice_cube_erasure_energy(10.0, 273.15)

    def test_sensible_heat_only_adds(self):
        latent = ice_cube_erasure_energy(10.0)
        full = ice_cube_erasure_energy(10.0, include_sensible_heat=True)
        assert full.cooling_joule > latent.cooling_joule
        # Hand-computed sensible terms: warm 9.17 g of ice by 18 K at
        # 2.1 J/(g K), then 9.17 g of water by 26.85 K at 4.18 J/(g K).
        mass = 9.17
        expected = 3058.6535 + mass * 2.1 * 18.0 + mass * 4.18 * 26.85
        assert full.cooling_joule == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["volume_cm3", "ambient_K", "ice_density", "latent_heat"])
    def test_refuses_a_quantity_not_positive_and_finite(self, name, value):
        kwargs = {"volume_cm3": 10.0, "ambient_K": 300.0, name: value}
        with pytest.raises(ValueError) as exc:
            ice_cube_erasure_energy(**kwargs)
        assert str(exc.value).startswith(f"{name} must be positive and finite")

    def test_positivity_is_checked_before_freezing(self):
        # A negative ambient is an invalid input, not an ambient too cold to melt.
        with pytest.raises(ValueError) as exc:
            ice_cube_erasure_energy(10.0, -5.0)
        assert not isinstance(exc.value, NoErasureError)

    def test_result_is_value_object(self):
        cmp_ = ice_cube_erasure_energy(10.0)
        assert isinstance(cmp_, BoundComparison)
        with pytest.raises(AttributeError):
            cmp_.cooling_joule = 0.0

