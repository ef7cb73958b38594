"""The leading stack axis of the point formulas: a call on a stack of points
gives, row by row, the single-point calls, and the co-integration builds the
Jacobi point data once per block, in pass 2 only."""
import numpy as np
import pytest
from conftest import conformal_torus3, default_initial_state, hyperbolic_times_flat
from hypothesis import given, settings
from hypothesis import strategies as st

from weylflow import presets, tangent
from weylflow.fields import (
    ClosedOneFormField,
    ConstantField,
    FourierComponentsField,
    FourierField,
    GradientField,
    HalfLogField,
    ReducedField,
    RotationalField,
    SolLeftInvariantField,
)
from weylflow.flows import PhaseState
from weylflow.metrics import (
    ConformalTorus,
    ConstantCurvatureChart,
    FlatTorus,
    MetricJet,
    SolGroup,
)

SIGMA = FourierField(2, [((1, 0), 0.15, 0.0), ((1, 1), 0.0, 0.06)])
U = FourierField(2, [((1, 0), 0.3, 0.1), ((2, 1), -0.2, 0.05)])

FAMILIES = {
    "flat_torus": lambda: FlatTorus((1.0, 2.0)),
    "chart_K-1": lambda: ConstantCurvatureChart(-1.0, 2),
    "chart_K0.5_dim3": lambda: ConstantCurvatureChart(0.5, 3),
    "sol": SolGroup,
    "conformal_torus": lambda: ConformalTorus(SIGMA),
    "conformal_torus3": lambda: conformal_torus3().metric_family,
    "maupertuis": lambda: ConformalTorus(HalfLogField(2.0, U)),
    "product": lambda: hyperbolic_times_flat().metric_family,
}

# (metric family, field) pairs
FIELDS = {
    "constant": (lambda: ConstantCurvatureChart(-1.0, 2), lambda: ConstantField([0.3, -0.2])),
    "fourier_components": (lambda: FlatTorus((1.0, 1.0)),
                           lambda: FourierComponentsField([U, FourierField(2)])),
    "gradient": (lambda: ConformalTorus(SIGMA), lambda: GradientField(U)),
    "closed_one_form": (SolGroup, lambda: ClosedOneFormField([0.2, -0.1, 0.5])),
    "sol_left_invariant": (SolGroup, lambda: SolLeftInvariantField(0.3, -0.4, 0.8)),
    "rotational": (lambda: ConstantCurvatureChart(-1.0, 2), lambda: RotationalField(0.6)),
    "product": (lambda: hyperbolic_times_flat().metric_family,
                lambda: hyperbolic_times_flat().field_spec),
    "reduced": (lambda: ConstantCurvatureChart(-1.0, 2),
                lambda: ReducedField(U, ConstantField([0.3, 0.2]), 2.0)),
}

# 1 to 6 points in [-1.3, 1.3]^4, away from the axis q1 = q2 = 0 (the rotational
# field's singularity); each family reads the first dim coordinates
_points = st.lists(
    st.tuples(*[st.floats(-1.3, 1.3, allow_nan=False)] * 4).filter(
        lambda p: np.hypot(p[0], p[1]) > 0.05),
    min_size=1, max_size=6).map(np.array)


def _rows_match(stacked, singles, rel=1e-14):
    for s, single in enumerate(singles):
        single = np.asarray(single)
        assert stacked[s].shape == single.shape
        assert np.abs(stacked[s] - single).max() <= rel * np.abs(single).max()


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(points=_points)
def test_family_stacks_match_single_points(name, points):
    fam = FAMILIES[name]()
    q = points[:, :fam.dim]
    _rows_match(fam.christoffel_d1(q), [fam.christoffel_d1(p) for p in q])
    closed = fam.riemann_tensor(q)
    if closed is None:
        assert all(fam.riemann_tensor(p) is None for p in q)
    else:
        _rows_match(closed, [fam.riemann_tensor(p) for p in q])


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(points=_points)
def test_field_jacobian_stacks_match_single_points(name, points):
    make_family, make_field = FIELDS[name]
    fam, field = make_family(), make_field()
    q = points[:, :fam.dim]
    jets = [fam.jet(p) for p in q]
    E = np.array([field.value(p, jet) for p, jet in zip(q, jets)])
    stacked = MetricJet(*(np.stack(parts) for parts in zip(*jets)))
    dE = field.jacobian(q, stacked, E)
    singles = [field.jacobian(p, jet, e) for p, jet, e in zip(q, jets, E)]
    _rows_match(np.broadcast_to(dE, q.shape + (fam.dim,)), singles)


@pytest.mark.parametrize("make", [hyperbolic_times_flat, conformal_torus3])
def test_generic_curvature_scenarios_assemble_R(make):
    # the oracle test's scenarios for the assembly route have no closed form
    sc = make()
    q = sc.sample_point(np.random.default_rng(2))
    assert sc.metric_family.riemann_tensor(q) is None
    assert not sc.metric_family.is_flat and not sc.is_homogeneous


@pytest.mark.parametrize("make", [presets.hyperbolic_potential, presets.sol_scan,
                                  presets.conformal_gradient, presets.flat2_gradient,
                                  hyperbolic_times_flat])
def test_jacobi_point_data_is_built_once_per_block_in_pass_2(monkeypatch, make):
    # two full blocks and a remainder: pass 1 (4 stage points a step) builds no field
    # Jacobian and no curvature; pass 2 builds each once per block over its stage rows
    sc = make()
    fam = sc.metric_family
    closed = fam.riemann_tensor(sc.sample_point(np.random.default_rng(0))) is not None
    calls = {"jacobian": [], "riemann_tensor": [], "christoffel_d1": [], "_jacobi": []}

    def counting(key, fn):
        def wrapper(scenario_or_q, *args):
            q = args[0] if key == "_jacobi" else scenario_or_q
            calls[key].append(np.shape(q)[:-1])
            return fn(scenario_or_q, *args)
        return wrapper

    monkeypatch.setattr(sc.field_spec, "jacobian", counting("jacobian", sc.field_spec.jacobian))
    for key in ("riemann_tensor", "christoffel_d1"):
        monkeypatch.setattr(fam, key, counting(key, getattr(fam, key)))
    monkeypatch.setattr(tangent, "_jacobi", counting("_jacobi", tangent._jacobi))
    dt = 5e-3
    T = (2 * tangent.BLOCK + 3) * dt
    tangent.lyapunov_spectrum(sc, PhaseState(*default_initial_state(sc)), T=T, dt=dt)
    blocks = [(4 * tangent.BLOCK + 1,), (4 * tangent.BLOCK,), (4 * 3,)]
    assert calls["_jacobi"] == blocks
    assert calls["jacobian"] == blocks
    assert calls["riemann_tensor"] == ([] if fam.is_flat else blocks)
    assert calls["christoffel_d1"] == ([] if fam.is_flat or closed else blocks)
