"""Quotient Lyapunov spectra of thermostat flows.

The linearized flow in the normalized parallel frame has system matrix
[[-phi(v) I, I], [-R, 0]], so the exponents sum to (n-1) times the mean of
-phi(v), and for locally potential fields they pair up with that common sum
(the shifted symmetry of the spectrum).
"""
import numpy as np

from weylflow import tangent
from weylflow.fields import ClosedOneFormField, ConstantField
from weylflow.flows import PhaseState
from weylflow.scenario import constant_curvature_scenario, flat_torus_scenario

# 1. geodesic flow at curvature -1: the classical exponents +-1
sc = constant_curvature_scenario(-1.0, 2)
rep = tangent.lyapunov_spectrum(sc, PhaseState([0.0, 0.0], [1.0, 0.0]),
                                T=120.0, dt=5e-3)
print("curvature -1 geodesic flow:", np.round(rep.exponents, 4),
      " (finite-time run on the chart)")

# 2. the attractor of the constant-field 2-torus: {0, -a}
sc12 = flat_torus_scenario((1, 1), ConstantField([1.0, 0.0]))
rep12 = tangent.lyapunov_spectrum(sc12, PhaseState([0.1, 0.3],
                                                   [np.cos(2.0), np.sin(2.0)]),
                                  T=80.0, dt=2e-3, burn_in=20.0)
print("constant-field 2-torus attractor:", np.round(rep12.exponents, 4),
      f" sbar = {rep12.sbar:.4f}")

# 3. 3-torus with a constant closed 1-form: two exponent pairs with equal sums
a = 0.8
sc3 = flat_torus_scenario((1, 1, 1), ClosedOneFormField([a, 0.0, 0.0]))
rep3 = tangent.lyapunov_spectrum(sc3, PhaseState([0.1, 0.2, 0.3], [1.0, 0, 0]),
                                 T=60.0, dt=2e-3)
e = rep3.exponents
print("3-torus attractor:", np.round(e, 4))
print(f"  pair sums {e[0] + e[3]:+.5f} and {e[1] + e[2]:+.5f}"
      f"  vs sbar = {rep3.sbar:+.5f}"
      f"  (pairing residual {rep3.pairing_residual:.1e})")
print(f"  volume rates on the split subspaces: {(rep3.volume_growth, rep3.volume_decay)}")
print(f"  trace identity residual: {rep3.trace_residual:.2e}")
