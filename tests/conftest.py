import numpy as np

from weylflow.fields import ConstantField, FourierField, GradientField
from weylflow.metrics import ConformalTorus, ConstantCurvatureChart
from weylflow.scenario import WeylScenario, flat_torus_scenario, product_scenario


def default_initial_state(scenario, seed=0):
    """Deterministic generic initial condition (q, v) on the unit tangent bundle."""
    rng = np.random.default_rng(np.random.Philox(seed))
    q = scenario.sample_point(rng)
    v = rng.standard_normal(scenario.dim)
    v = v / scenario.norm(q, v)
    return q, v


def one_form_d1(scenario, q):
    """dphi[m, j] = d_m phi_j of phi = g E at q: d_m g_jl E^l + g_jl d_m E^l."""
    pt = scenario.point(q)
    dE = scenario.field_derivative(q, pt)[0]       # dE[l, m] = d_m E^l
    return np.einsum("mjl,l->mj", pt.dg, pt.E) + np.einsum("jl,lm->mj", pt.g, dE)


# Two scenarios with no closed-form Riemann tensor, so their Levi-Civita curvature
# is assembled from the Christoffels; no preset takes that route.

def hyperbolic_times_flat():
    """K = -1 chart with a gradient field, times a flat 2-torus with a constant field."""
    U = FourierField(2, [((1, 0), 0.3, 0.1), ((2, 1), -0.2, 0.05)])
    return product_scenario(
        WeylScenario(ConstantCurvatureChart(-1.0, 2), GradientField(U)),
        flat_torus_scenario((1.0, 1.0), ConstantField([0.4, -0.3])),
        name="hyperbolic_times_flat")


def conformal_torus3():
    """Conformal 3-torus with a gradient field."""
    sigma = FourierField(3, [((1, 0, 0), 0.1, 0.0), ((0, 1, 1), 0.0, 0.05)])
    U = FourierField(3, [((0, 1, 0), 0.3, 0.0)])
    return WeylScenario(ConformalTorus(sigma), GradientField(U), name="conformal_torus3")
