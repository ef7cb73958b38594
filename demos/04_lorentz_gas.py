"""Thermostatted Lorentz gas: exponents, convexity threshold, straightening.

Scatterer images under F(z) = e^{|E| z} stay strictly convex while
r |E| < 1; past that threshold the dispersing mechanism can fail and elliptic
period-2 orbits appear (found here between a scatterer and its perpendicular
translate).
"""
import numpy as np

from weylflow import billiards as bl
from weylflow import presets

q0 = np.array([0.7, 0.25])
v0 = np.array([np.cos(0.6), np.sin(0.6)])

print("top exponent per unit time on the finite-horizon table:")
for re_product in (0.0, 0.1, 0.2, 0.4):
    table = presets.sinai_thermostat(re_product=re_product)
    run = bl.run_billiard(table, q0, v0, 3000)
    conv = bl.weyl_convexity(table)
    print(f"  r|E| = {re_product:.1f}: lambda1 = {run.lambda1:6.3f}, "
          f"convexity margin = {conv.margin:6.3f}, grazing skipped = {run.grazing_count}")

# straightening: the exponential map sends flight curves to straight lines
table = presets.sinai_thermostat(re_product=0.2)
ev = bl.free_flight(table, q0, v0)
fl = bl.ThermostatFlight(table.to_aligned(q0), table.to_aligned(v0), table.a)
ts = np.linspace(0, ev.time_of_flight, 40)
resid = bl.exp_map_check(fl.pos(ts), table.a)
print(f"\nstraightening residual of one flight: {resid:.2e}")

# two-disk bouncing orbit stability across the threshold
print("\naxis-aligned two-disk orbit (always hyperbolic):")
for re_val in (0.0, 0.5, 1.0, 1.5, 2.0):
    st = bl.periodic_orbit_stability(presets.two_disk_orbit(re_val))
    print(f"  r|E| = {re_val:.1f}: trace = {st.trace:9.3f} -> {st.classification}")

re_first, d, orb, _, _ = bl.find_first_elliptic(0.35, np.linspace(1.05, 2.0, 20))
st = orb.stability
print(f"\nfirst elliptic period-2 orbit found at r|E| = {re_first} "
      f"(perpendicular pair, spacing {d:.3f}):")
print(f"  trace = {st.trace:.6f}, eigenvalues on the unit circle "
      f"(|ev| - 1 = {np.abs(np.abs(st.eigenvalues) - 1).max():.1e})")
