"""Isoenergetic dynamics as a unit-speed flow of a reduced field.

On the level  H = v^2/2 + W = h  the thermostatted system with field E,
reparametrized by arc length, coincides with the isokinetic flow of
E_tilde = (-grad W + E) / (2 (h - W)).  With E = 0 the reduced field is a
gradient and the orbits are geodesics of the rescaled metric (h - W) g.
For locally potential fields the isokinetic flow also admits conserved
hamiltonian coordinates p = e^{-U} v with rescaled time.
"""
import numpy as np
from scipy.interpolate import CubicSpline

from weylflow import flows
from weylflow.fields import ConstantField, FourierField, GradientField, HalfLogField
from weylflow.flows import IsoenergeticSpec, PhaseState
from weylflow.metrics import ConformalTorus, FlatTorus
from weylflow.scenario import WeylScenario

W = FourierField(2, [((1, 0), 0.2, 0.0)])
flat = WeylScenario(FlatTorus((1, 1)))
spec = IsoenergeticSpec(potential=W, field=ConstantField([0.3, 0.2]), h=1.0)
q0 = np.array([0.15, 0.4])
v_dir = np.array([np.cos(0.9), np.sin(0.9)])

iso = flows.integrate(flat, PhaseState(q0, np.sqrt(2 * (1 - W.value(q0))) * v_dir),
                      T=8.5, dt=1e-3, kind="isoenergetic", spec=spec)
reduced = flows.reduce_to_wflow(flat, spec)
wflow = flows.integrate(WeylScenario(FlatTorus((1, 1)), reduced),
                        PhaseState(q0, v_dir), T=10.0, dt=1e-3)
s = np.arange(0.0, 10.0, 1e-2)
gap = np.abs(flows.reparametrize_by_arclength(iso, s)
             - flows.reparametrize_by_arclength(wflow, s)).max()
print(f"reduction: pointwise gap over arc length 10 = {gap:.2e}")
print(f"energy drift of the isoenergetic run: {np.abs(iso.energy_residual).max():.2e}")

# zero-field case: geodesics of the rescaled metric
spec0 = IsoenergeticSpec(potential=W, field=ConstantField([0.0, 0.0]), h=1.0)
w0 = flows.integrate(WeylScenario(FlatTorus((1, 1)), flows.reduce_to_wflow(flat, spec0)),
                     PhaseState(q0, v_dir), T=10.0, dt=1e-3)
metric_m = ConformalTorus(HalfLogField(1.0, W))
sc_m = WeylScenario(metric_m)
geo = flows.integrate(sc_m, PhaseState(q0, v_dir / sc_m.norm(q0, v_dir)),
                      T=12.0, dt=1e-3)
s_flat = flows.cumulative_simpson(np.linalg.norm(geo.v, axis=1), geo.times)
gap0 = np.abs(flows.reparametrize_by_arclength(w0, s)
              - CubicSpline(s_flat, geo.q, axis=0)(s)).max()
print(f"zero-field case vs rescaled-metric geodesic: gap = {gap0:.2e}")

# hamiltonian coordinates for a potential field
U = FourierField(2, [((1, 0), 0.3, 0.0)])
scU = WeylScenario(FlatTorus((1, 1)), GradientField(U))
traj = flows.integrate(scU, PhaseState([0.15, 0.3], [np.cos(1.1), np.sin(1.1)]),
                       T=30.0, dt=1e-3)
rec = flows.dettmann_morriss(traj, U)
print(f"transformed coordinates: H drift = {rec.H_drift:.2e}, "
      f"Hamilton residual = {rec.hamilton_residual:.2e}")

# the 2-form pairing contracts at the exact conformal rate exp(-int phi)
rng = np.random.default_rng(3)
pairs = []
st0 = PhaseState([0.15, 0.3], [np.cos(1.1), np.sin(1.1)])
for _ in range(2):
    xi = rng.standard_normal(2)
    eta = rng.standard_normal(2)
    eta -= (eta @ st0.v) * st0.v
    pairs.append((xi, eta))
run = flows.transport_tangent_pairs(scU, st0, pairs, T=10.0, dt=1e-3)
om = np.array([flows.omega_form(PhaseState(run.q[i], run.v[i]),
                                (run.xi[i, 0], run.eta[i, 0]),
                                (run.xi[i, 1], run.eta[i, 1]), U)
               for i in (0, len(run.times) - 1)])
print(f"2-form conformal rate: omega(T) e^{{int phi}} / omega(0) - 1 = "
      f"{om[1] * np.exp(run.int_phi[-1]) / om[0] - 1:.2e}")
