"""Energetics of writing and erasing a Johnson-noise capacitor bit.

A one-bit memory is a capacitor C in contact with a resistor at
temperature T.  The stored voltage fluctuates as an Ornstein-Uhlenbeck
process with relaxation time tau = RC and stationary spread
sigma = sqrt(kT/C).  Writing waits for a thermal fluctuation to reach
+-u0 and latches it; erasing simply disconnects the control and lets
the cell thermalize.

This script reproduces three headline numbers in reduced units
(kT = 1, C = 1, tau = 1):

  1. the mean heat released by a full erase, (C u0^2 - kT)/2,
     which is *negative* for u0 < sigma (the bath pays);
  2. the error probability left by an incomplete erase of duration t,
     Phi(-u0 e^{-t/tau} / sqrt(sigma^2 (1 - e^{-2t/tau})));
  3. the retrievable information 1 - h2(p_e) as the erase proceeds.

Run: python demos/capacitor_erasure.py
"""

from thermobit import (CellParams, bit_information, erase_dissipation_theory,
                       partial_erase_error_prob, run_erasure_experiment)
from thermobit.capacitor import erase_ensemble, write_ensemble

cell = CellParams.reduced()
n = 20_000

print("=== 1. Erase heat vs written level ===")
print(f"{'u0/sigma':>9} {'<Q_env> sim':>12} {'theory':>9}")
for u0 in (0.5, 1.0, 2.0):
    q = erase_ensemble(u0, 20.0, cell, n, master_seed=100)
    theory = erase_dissipation_theory(u0, 20.0, cell)
    print(f"{u0:9.1f} {q.mean():12.4f} {theory:9.4f}")
print("Note the sign change at u0 = sigma: below it, erasing a bit *cools*")
print("the memory cell and heats nothing.\n")

print("=== 2. Writing costs what erasing released ===")
qw, _, _ = write_ensemble(1, 0.5, cell, 0.01, n, master_seed=101)
print(f"mean write heat at u0 = 0.5 sigma: {qw.mean():+.4f} kT "
      f"(theory {-erase_dissipation_theory(0.5, 20.0, cell):+.4f})")
print("The write is powered by the bath; the books balance only once the")
print("control cost of the latch (>= kT ln2 per timing decision) is counted.\n")

print("=== 3. Information decay during an incomplete erase ===")
durations = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
print(f"{'t/tau':>6} {'p_e sim':>8} {'p_e theory':>11} {'bits left':>10}")
for rep in run_erasure_experiment(1.0, durations, cell, n, master_seed=102):
    p_theory = partial_erase_error_prob(1.0, rep.duration, cell)
    print(f"{rep.duration:6.2f} {rep.channel.p_e_hat:8.4f} {p_theory:11.4f} "
          f"{rep.info_bits:10.4f}")
print(f"\nAfter one tau the bit still holds {bit_information(0.3462):.3f} bits;")
print("a few tau later the record is gone without any mandatory dissipation.")
