"""Erasure by pure thermalization in a bistable double-well bit.

The bit is the sign of an overdamped Langevin coordinate in the quartic
potential U(x) = E ((x/x0)^2 - 1)^2.  Left alone, thermal activation
over the barrier drives the residence probability from 1 to 1/2 on the
Kramers timescale — the stored bit evaporates while the *mean* energy
of the ensemble never changes, so this erasure dissipates nothing on
average.  Heating the cell trades absorbed energy for speed.

Run: python demos/doublewell_thermalization.py
"""

from thermobit import DoubleWellParams, heated_erase, measure_escape_time, relax_ensemble
from thermobit.oracles import escape_mfpt

print("=== 1. Passive erasure: the bit forgets itself ===")
p = DoubleWellParams.reduced(2.0)  # 2 kT barrier
dt = 0.5 * p.max_stable_dt
series = relax_ensemble(p, side=1, t_total=20.0, dt=dt, n_traj=4000, seed=200)
print(f"{'t':>8} {'P(bit=1)':>9} {'<U>/kT':>8}")
for k in range(0, series.times.size, max(1, series.times.size // 10)):
    print(f"{series.times[k]:8.3f} {series.p1[k]:9.3f} {series.mean_U[k]:8.3f}")
print(f"{series.times[-1]:8.3f} {series.p1[-1]:9.3f} {series.mean_U[-1]:8.3f}")
drift = series.mean_U[-1] - series.mean_U[0]
print(f"\nP(1) relaxes to 1/2 while <U> stays flat (drift {drift:+.3f} kT):")
print("one bit of information is destroyed with zero mean dissipation.\n")

print("=== 2. The price of stability: exponential retention time ===")
print(f"{'E/kT':>5} {'mean escape time':>17} {'exact MFPT':>11}")
for barrier in (1.0, 2.0, 3.0):
    pb = DoubleWellParams.reduced(barrier)
    t_mean, t_se = measure_escape_time(pb, 1000, 0.5 * pb.max_stable_dt, seed=201)
    print(f"{barrier:5.1f} {t_mean:12.2f} +- {t_se:4.2f} {escape_mfpt(barrier):11.2f}")
print("Euler-Maruyama sees a crossing only at sample times, so the simulated")
print("means run 10-15% above the exact mean first-passage time.")
print("Retention grows like exp(E/kT); a reliable memory needs a barrier of")
print("tens of kT, which makes passive erasure impossibly slow...\n")

print("=== 3. ...unless you heat the cell ===")
p4 = DoubleWellParams.reduced(4.0)
dt4 = 0.5 * p4.max_stable_dt
cold = relax_ensemble(p4, side=1, t_total=5.0, dt=dt4, n_traj=2000, seed=202)
hot, mean_du, se_du = heated_erase(p4, T_hot=4.0, t_total=5.0, dt=dt4,
                                   n_traj=2000, seed=202)
print(f"4 kT barrier, t = 5:  ambient P(1) = {cold.p1[-1]:.3f}   "
      f"heated (kT_hot = E) P(1) = {hot.p1[-1]:.3f}")
print(f"energy absorbed from the hot bath: {mean_du:.3f} +- {se_du:.3f} kT per bit")
print("Heating erases quickly, but now the cell *absorbs* energy -- the")
print("dissipation-free result holds only for the patient, passive protocol.")
