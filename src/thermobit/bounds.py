"""Dissipation bounds and the ice-cube counterexample.

Two closed-form limits are implemented: the control-theoretic minimum
dissipation kT*ln(1/p_e) for a bit-value change with error probability
p_e, and the literature's self-entropy cooling limit
E_diss >= -kT*ln2*dS (at most ~0.69 kT of cooling per erased bit).

The ice-cube-tray memory shows the latter limit failing by ~24 orders
of magnitude: melting a frozen "high" cube at above-freezing ambient
draws the latent heat from the environment, ~7e23 kT for 10 cm^3 at
300 K, while the information change is at most one bit.
"""

import math
from dataclasses import dataclass

__all__ = [
    "BOLTZMANN",
    "BoundComparison",
    "NoErasureError",
    "brillouin_min_dissipation",
    "anderson_bound",
    "ice_cube_erasure_energy",
]

# SI defining value of the Boltzmann constant, J/K.
BOLTZMANN = 1.380649e-23

FREEZING_POINT = 273.15  # K
INITIAL_ICE_TEMPERATURE = 255.15  # K, a freezer; the meltwater ends at ambient

# Cited defaults; the density and the latent heat are ice_cube_erasure_energy's keywords.
ICE_DENSITY = 0.917  # g/cm^3
LATENT_HEAT_FUSION = 333.55  # J/g
SPECIFIC_HEAT_ICE = 2.1  # J/(g K)
SPECIFIC_HEAT_WATER = 4.18  # J/(g K)


class NoErasureError(ValueError):
    """Ambient at or below freezing: the cube does not melt, so nothing erases."""


def _check_positive(**values):
    for name, x in values.items():
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _kT(T):
    """BOLTZMANN*T, joules, for a temperature T whose kT is positive and finite."""
    if not (0.0 < BOLTZMANN * T and T < math.inf):
        raise ValueError(f"T must be positive and finite, with BOLTZMANN*T above 0, got {T!r}")
    return BOLTZMANN * T


def _check_finite(what, values, **inputs):
    """Refuse the inputs if `what`, the numbers `values` made from them, is not finite."""
    if not all(math.isfinite(x) for x in values):
        given = ", ".join(f"{name}={x!r}" for name, x in inputs.items())
        raise ValueError(f"{given} give a non-finite {what}")


def brillouin_min_dissipation(p_e, T):
    """Minimum dissipation kT*ln(1/p_e) of a bit-value change, joules.

    Valid for 0 < p_e <= 0.5; p_e = 0.5 is the completely inefficient
    boundary where the bound equals kT*ln 2.
    """
    p_e = float(p_e)
    if not 0.0 < p_e <= 0.5:
        raise ValueError(f"p_e must lie in (0, 0.5], got {p_e!r}")
    # kT > 0 and -ln(p_e) <= 745 keep the result finite; 1/p_e would overflow.
    return _kT(T) * -math.log(p_e)


def anderson_bound(delta_S_bits, T):
    """Most negative permitted dissipation -kT*ln2*dS, joules."""
    delta_S_bits = float(delta_S_bits)
    if not (math.isfinite(delta_S_bits) and delta_S_bits >= 0.0):
        raise ValueError(f"delta_S_bits must be finite and non-negative, got {delta_S_bits!r}")
    bound = -_kT(T) * math.log(2.0) * delta_S_bits
    _check_finite("bound", [bound], delta_S_bits=delta_S_bits, T=T)
    return bound


@dataclass(frozen=True)
class BoundComparison:
    """Computed erasure cooling against the self-entropy limit."""

    cooling_joule: float
    cooling_kT: float
    anderson_joule: float
    anderson_kT: float
    violation_factor: float


def ice_cube_erasure_energy(volume_cm3, ambient_K=300.0, *, ice_density=ICE_DENSITY,
                            latent_heat=LATENT_HEAT_FUSION, include_sensible_heat=False):
    """Cooling drawn from the environment when one frozen cube melts.

    One cube of the ice-cube-tray memory holds one bit (frozen = 1, melted
    = 0).  Latent heat dominates; sensible heat (warming the ice to 0 C and
    the meltwater up to ambient) can be added for sensitivity analysis and
    only increases the total.
    """
    quantities = {"volume_cm3": volume_cm3, "ambient_K": ambient_K,
                  "ice_density": ice_density, "latent_heat": latent_heat}
    _check_positive(**quantities)
    if ambient_K <= FREEZING_POINT:
        raise NoErasureError(
            f"ambient {ambient_K!r} K is at or below freezing: the frozen state is stable "
            "and melting-as-erasure does not proceed")
    mass = ice_density * volume_cm3  # g
    q = mass * latent_heat
    if include_sensible_heat:
        q += mass * SPECIFIC_HEAT_ICE * (FREEZING_POINT - INITIAL_ICE_TEMPERATURE)
        q += mass * SPECIFIC_HEAT_WATER * (ambient_K - FREEZING_POINT)
    kT = BOLTZMANN * ambient_K
    bound = anderson_bound(1.0, ambient_K)
    comp = BoundComparison(
        cooling_joule=q,
        cooling_kT=q / kT,
        anderson_joule=bound,
        anderson_kT=bound / kT,
        violation_factor=q / abs(bound),
    )
    _check_finite("cooling", vars(comp).values(), **quantities)
    return comp
