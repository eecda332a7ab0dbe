"""Closed-form dissipation bounds and the ice-cube counterexample.

Two candidate limits on the energetics of bit operations:

  * a control bound: changing a bit value with error probability p_e
    dissipates at least kT ln(1/p_e) (= kT ln2 at the useless p_e = 1/2);
  * a self-entropy cooling limit: erasure can draw at most
    kT ln2 * dS_bits from the environment.

The second one cannot be a law of nature.  A tray of ice-cube moulds is
a perfectly good one-bit-per-cube memory (frozen = 1, melted = 0), and
erasing a frozen cube by letting it melt at room temperature draws its
latent heat — about 7e23 kT for a 10 cm^3 cube — from the environment,
beating the supposed ~0.69 kT limit by 24 orders of magnitude.

Run: python demos/dissipation_bounds.py
"""

import math

from thermobit import (BOLTZMANN, NoErasureError, anderson_bound, binary_entropy,
                       brillouin_min_dissipation, ice_cube_erasure_energy)

T = 300.0
kT = BOLTZMANN * T

print("=== 1. Reliability is what costs energy ===")
print(f"{'p_e':>8} {'min dissipation':>16}")
for p_e in (0.5, 0.1, 0.01, 1e-6, 1e-12):
    e_d = brillouin_min_dissipation(p_e, T)
    print(f"{p_e:8.0e} {e_d / kT:13.2f} kT")
print("The kT ln2 figure is the floor for a *useless* operation (p_e = 1/2);")
print("every decade of reliability adds ~2.3 kT.\n")

print("=== 2. The self-entropy cooling limit ===")
b = anderson_bound(1.0, T)
print(f"claimed maximum cooling per erased bit: {abs(b) / kT:.4f} kT "
      f"({abs(b):.3e} J at {T:.0f} K)\n")

print("=== 3. The ice-cube tray memory breaks it ===")
comp = ice_cube_erasure_energy(10.0, T)
print(f"latent heat drawn from the room : {comp.cooling_joule:10.1f} J")
print(f"                               = {comp.cooling_kT:10.4g} kT")
print(f"claimed limit                   = {abs(comp.anderson_kT):10.4f} kT")
print(f"violation factor                = {comp.violation_factor:.3g} "
      f"(10^{math.log10(comp.violation_factor):.1f})\n")

print("Sensible heat only makes it worse:")
full = ice_cube_erasure_energy(10.0, T, include_sensible_heat=True)
print(f"with warming the ice and meltwater: {full.cooling_joule:.1f} J "
      f"(+{full.cooling_joule - comp.cooling_joule:.1f} J)\n")

print("Below freezing nothing melts and nothing erases:")
try:
    ice_cube_erasure_energy(10.0, 260.0)
except NoErasureError as exc:
    print(f"  NoErasureError: {exc}\n")

print("=== 4. Entropy audit of a write/store/erase cycle ===")
# P(bit = 1) at each protocol step: write 1, store, thermalizing erase.
trace = [1.0, 1.0, 0.5]
labels = ["write 1", "store", "erase (thermalize)"]
for label, p1 in zip(labels, trace):
    print(f"  {label:<20} entropy = {binary_entropy(p1):.3f} bit")
print("Only the erase step creates entropy, exactly one bit's worth --")
print("and the ice cube shows that paying kT ln2 for it is not mandatory.")
