"""Named scenario presets used by the command line and the acceptance suite."""
from __future__ import annotations

from .billiards import BilliardTable
from .fields import (
    ClosedOneFormField,
    ConstantField,
    FourierComponentsField,
    FourierField,
    GradientField,
    SolLeftInvariantField,
)
from .metrics import ConformalTorus, ConstantCurvatureChart, FlatTorus, SolGroup
from .scenario import WeylScenario, product_scenario

SINAI_RADII = (0.36, 0.2)
SINAI_CENTERS = ((0.25, 0.25), (0.75, 0.75))
TWO_DISK_RADIUS = 0.2
TWO_DISK_GAP = 0.5


def example_1_2():
    """Flat 2-torus with constant E = (1, 0): closed-form thermostat curves."""
    return WeylScenario(FlatTorus((1.0, 1.0)), ConstantField([1.0, 0.0]),
                        name="example_1_2")


def torus3_constant():
    """Flat 3-torus with a constant field: nonpositive Weyl curvature."""
    return WeylScenario(FlatTorus((1.0, 1.0, 1.0)),
                        ConstantField([0.8, 0.0, 0.0]),
                        name="torus3_constant")


def torus3_closed_form():
    """Same field presented as a constant closed 1-form (locally potential)."""
    return WeylScenario(FlatTorus((1.0, 1.0, 1.0)),
                        ClosedOneFormField([0.8, 0.0, 0.0]),
                        name="torus3_closed_form")


def hyperbolic_geodesic():
    """Curvature -1 chart with zero field: the classical geodesic flow."""
    return WeylScenario(ConstantCurvatureChart(-1.0, 2), name="hyperbolic_geodesic")


def hyperbolic_potential():
    """Curvature -1 chart with a small gradient field E = -grad U.

    The amplitude 0.01 keeps |div E| = |laplacian U| < 1, so the Weyl
    curvature K - div E stays negative on the whole chart.
    """
    U = FourierField(2, [((1, 0), 0.01, 0.0), ((0, 1), 0.0, 0.006)])
    return WeylScenario(ConstantCurvatureChart(-1.0, 2), GradientField(U),
                        name="hyperbolic_potential")


def sol_scan():
    """SOL group with the distinguished left-invariant field (the frame's dz)."""
    return WeylScenario(SolGroup(), SolLeftInvariantField(0.0, 0.0, 1.0),
                        name="sol_scan")


def flat2_gradient():
    """Flat 2-torus with E = -grad U for a nonconstant potential."""
    U = FourierField(2, [((1, 0), 0.4, 0.0), ((0, 1), 0.0, 0.2)])
    return WeylScenario(FlatTorus((1.0, 1.0)), GradientField(U),
                        name="flat2_gradient")


def conformal_gradient():
    """Conformal torus metric with a gradient thermostat field."""
    sigma = FourierField(2, [((1, 0), 0.15, 0.0), ((1, 1), 0.0, 0.06)])
    U = FourierField(2, [((0, 1), 0.3, 0.0)])
    return WeylScenario(ConformalTorus(sigma), GradientField(U),
                        name="conformal_gradient")


def product_mixed():
    """Product of two flat 2-tori; |E1| nonconstant so the mixed-plane
    curvature takes both signs."""
    e1 = FourierComponentsField([
        FourierField(2, [((0, 0), 1.0, 0.0), ((1, 0), 0.5, 0.0)]),
        FourierField(2),
    ])
    s1 = WeylScenario(FlatTorus((1.0, 1.0)), e1, name="factor1")
    s2 = WeylScenario(FlatTorus((1.0, 1.0)), ConstantField([0.7, 0.0]), name="factor2")
    return product_scenario(s1, s2, name="product_mixed")


def product_constant():
    """Product of two flat 2-tori with constant fields: mixed-plane curvature 0."""
    s1 = WeylScenario(FlatTorus((1.0, 1.0)), ConstantField([0.8, 0.0]), name="factor1")
    s2 = WeylScenario(FlatTorus((1.0, 1.0)), ConstantField([0.0, 0.5]), name="factor2")
    return product_scenario(s1, s2, name="product_constant")


def sinai_thermostat(re_product=0.2):
    """Finite-horizon two-scatterer table; field magnitude set by r|E|."""
    return BilliardTable((1.0, 1.0),
                         list(zip(SINAI_CENTERS, SINAI_RADII)),
                         field_magnitude=re_product / SINAI_RADII[0])


def two_disk_orbit(re_product=0.0, radius=TWO_DISK_RADIUS, gap=TWO_DISK_GAP):
    """Two scatterers with the axis along E, for the bouncing-orbit monodromy."""
    d = gap + 2 * radius
    periods = (max(1.0, 2 * d), 1.0)
    return BilliardTable(periods,
                         [((0.3, 0.5), radius), ((0.3 + d, 0.5), radius)],
                         field_magnitude=re_product / radius)


GEOMETRY_PRESETS = {
    "example_1_2": example_1_2,
    "torus3_constant": torus3_constant,
    "hyperbolic_geodesic": hyperbolic_geodesic,
    "hyperbolic_potential": hyperbolic_potential,
    "sol_scan": sol_scan,
    "flat2_gradient": flat2_gradient,
    "conformal_gradient": conformal_gradient,
    "product_mixed": product_mixed,
    "product_constant": product_constant,
}

BILLIARD_PRESETS = {
    "sinai_thermostat": sinai_thermostat,
    "two_disk_orbit": two_disk_orbit,
}


def scenario_preset(name):
    if name not in GEOMETRY_PRESETS:
        raise KeyError(f"unknown scenario preset {name!r}")
    return GEOMETRY_PRESETS[name]()

