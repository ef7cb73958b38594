import numpy as np
import pytest
from conftest import one_form_d1

from weylflow.errors import DegenerateMetricError, InvalidStateError
from weylflow.fields import (
    ClosedOneFormField,
    ConstantField,
    FourierField,
    GradientField,
    HalfLogField,
    ReducedField,
    RotationalField,
)
from weylflow.metrics import ConformalTorus, ConstantCurvatureChart, FlatTorus
from weylflow.scenario import WeylScenario


def fd_grad(f, q, h=1e-5):
    g = np.zeros(len(q))
    for i in range(len(q)):
        e = np.zeros(len(q))
        e[i] = h
        g[i] = (f(q + e) - f(q - e)) / (2 * h)
    return g


@pytest.fixture
def fourier():
    return FourierField(2, [((1, 0), 0.3, 0.1), ((2, 1), -0.2, 0.05), ((0, 3), 0.0, 0.4)])


def test_fourier_gradient_matches_finite_differences(fourier):
    rng = np.random.default_rng(0)
    for _ in range(30):
        q = rng.uniform(0, 1, 2)
        grad = fourier.grad(q)
        ref = fd_grad(fourier.value, q)
        scale = max(np.abs(ref).max(), 1.0)
        assert np.abs(grad - ref).max() / scale < 1e-6


def test_fourier_hessian_matches_finite_differences(fourier):
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = rng.uniform(0, 1, 2)
        hess = fourier.hess(q)
        for i in range(2):
            ref = fd_grad(lambda x: fourier.grad(x)[i], q)
            assert np.abs(hess[i] - ref).max() / max(np.abs(ref).max(), 1.0) < 1e-6


def test_fourier_evaluation_deterministic(fourier):
    q = np.array([0.37, 0.92])
    vals = {fourier.value(q) for _ in range(10)}
    assert len(vals) == 1


def test_fourier_periods():
    f = FourierField(2, [((1, 0), 1.0, 0.0)], periods=(2.0, 1.0))
    assert f.value([0.0, 0.3]) == pytest.approx(f.value([2.0, 0.3]), abs=1e-14)
    assert f.value([0.5, 0.0]) == pytest.approx(np.cos(np.pi / 2), abs=1e-14)


def test_gradient_field_one_form_is_closed():
    # d phi = 0 for phi = -dU: the lowered jacobian must be symmetric
    U = FourierField(2, [((1, 0), 0.3, 0.0), ((1, 1), 0.0, 0.2)])
    sc = WeylScenario(ConformalTorus(FourierField(2, [((0, 1), 0.1, 0.0)])),
                      GradientField(U))
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = sc.sample_point(rng)
        dphi = one_form_d1(sc, q)
        assert np.abs(dphi - dphi.T).max() < 1e-10


def test_closed_one_form_is_closed_but_not_gradient_of_fourier():
    sc = WeylScenario(ConformalTorus(FourierField(2, [((1, 0), 0.15, 0.0)])),
                      ClosedOneFormField([0.7, 0.0]))
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = sc.sample_point(rng)
        dphi = one_form_d1(sc, q)
        assert np.abs(dphi - dphi.T).max() < 1e-12


def test_field_jacobians_match_finite_differences():
    U = FourierField(2, [((1, 0), 0.25, 0.0), ((0, 1), 0.0, 0.3)])
    scenarios = [
        (WeylScenario(FlatTorus((1, 1)), GradientField(U)), "flat gradient"),
        (WeylScenario(ConformalTorus(FourierField(2, [((1, 1), 0.1, 0.0)])),
                      GradientField(U)), "conformal gradient"),
        (WeylScenario(ConstantCurvatureChart(-1.0, 2),
                      ClosedOneFormField([0.4, -0.2])), "chart one-form"),
        (WeylScenario(ConstantCurvatureChart(-1.0, 2),
                      RotationalField(0.5)), "chart rotational"),
    ]
    rng = np.random.default_rng(4)
    for sc, label in scenarios:
        for _ in range(10):
            q = sc.sample_point(rng)
            if label == "chart rotational" and np.linalg.norm(q) < 0.2:
                continue
            jac = sc.field_derivative(q, sc.point(q))[0]
            for m in range(2):
                e = np.zeros(2)
                e[m] = 1e-6
                ref = (sc.field(q + e) - sc.field(q - e)) / 2e-6
                assert np.abs(jac[:, m] - ref).max() < 1e-5, label


def test_rotational_field_constant_norm_divergence_free():
    sc = WeylScenario(ConstantCurvatureChart(-1.0, 2), RotationalField(0.6))
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = sc.sample_point(rng)
        if np.linalg.norm(q) < 0.3:
            continue
        E = sc.field(q)
        assert sc.norm(q, E) == pytest.approx(0.6, abs=1e-12)
        gamma = sc.christoffel(q)
        dE = sc.field_derivative(q, sc.point(q))[0]
        div = np.trace(dE) + np.einsum("kkj,j->", gamma, E)
        assert abs(div) < 1e-10


def test_half_log_field_derivatives():
    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    sig = HalfLogField(1.0, W)
    rng = np.random.default_rng(6)
    for _ in range(10):
        q = rng.uniform(0, 1, 2)
        assert sig.value(q) == pytest.approx(0.5 * np.log(1.0 - W.value(q)), abs=1e-14)
        assert np.abs(sig.grad(q) - fd_grad(sig.value, q)).max() < 1e-8


def test_half_log_field_rejects_bad_level():
    W = FourierField(2, [((1, 0), 2.0, 0.0)])
    sig = HalfLogField(1.0, W)
    with pytest.raises(DegenerateMetricError):
        sig.value(np.array([0.0, 0.0]))


def test_reduced_field_formula():
    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    E = ConstantField([0.3, 0.2])
    red = ReducedField(W, E, h=1.0)
    sc = WeylScenario(FlatTorus((1, 1)), red)
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = rng.uniform(0, 1, 2)
        expected = (-W.grad(q) + np.array([0.3, 0.2])) / (2 * (1.0 - W.value(q)))
        assert np.abs(sc.field(q) - expected).max() < 1e-14
        jac = sc.field_derivative(q, sc.point(q))[0]
        for m in range(2):
            e = np.zeros(2)
            e[m] = 1e-6
            ref = (sc.field(q + e) - sc.field(q - e)) / 2e-6
            assert np.abs(jac[:, m] - ref).max() < 1e-6


@pytest.mark.parametrize("make", [
    lambda p: FlatTorus(p),
    lambda p: ConformalTorus(FourierField(2, [((1, 0), 0.1, 0.0)]), periods=p),
    lambda p: FourierField(2, [((1, 0), 0.1, 0.0)], periods=p),
], ids=["flat_torus", "conformal_torus", "fourier"])
@pytest.mark.parametrize("periods", [(1.0, 0.0), (1.0, -2.0), (np.inf, 1.0), (np.nan, 1.0)])
def test_periods_must_be_positive_and_finite(make, periods):
    with pytest.raises(InvalidStateError):
        make(periods)


@pytest.mark.parametrize("terms", [[], [((1, 0), 0.3, 0.0)],
                                   [((1, 0), 0.3, -0.2), ((2, 1), 0.0, 0.5), ((0, 3), 0.1, 0.0)]])
def test_fourier_stacked_value_and_grad_are_the_per_point_loop_bit_for_bit(terms):
    # dettmann_morriss and reduce_to_wflow evaluate a potential on a stack of points
    f = FourierField(2, terms, periods=(1.0, 2.5))
    Q = np.random.default_rng(7).uniform(-2.0, 2.0, (5001, 2))
    assert np.array_equal(f.value(Q), np.array([f.value(q) for q in Q]))
    assert np.array_equal(f.grad(Q), np.array([f.grad(q) for q in Q]))


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_coef = st.floats(-1.0, 1.0, allow_nan=False)
_terms = st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), _coef, _coef),
                  max_size=4)
_point = st.tuples(st.floats(-5.0, 5.0, allow_nan=False), st.floats(-5.0, 5.0, allow_nan=False))


@settings(max_examples=60, deadline=1000, derandomize=True)
@given(terms=_terms, period=st.floats(0.5, 3.0), q=_point)
def test_property_value_grad_is_value_and_grad_bit_for_bit(terms, period, q):
    f = FourierField(2, terms, periods=(1.0, period))
    q = np.array(q)
    value, grad = f.value_grad(q)
    assert value == f.value(q) and type(value) is type(f.value(q))
    assert np.array_equal(grad, f.grad(q))
    # the Maupertuis exponent reads its potential through the same evaluation
    sig = HalfLogField(10.0, f)
    value, grad = sig.value_grad(q)
    assert value == sig.value(q) and np.array_equal(grad, sig.grad(q))


def test_fields_that_do_not_read_the_metric_run_without_one():
    # a product hands such factors no block views of its jet, only None
    from weylflow import presets
    from weylflow.fields import FourierComponentsField, ProductField, SolLeftInvariantField
    U = FourierField(2, [((1, 0), 0.3, 0.1)])
    jet2 = ConformalTorus(U).jet(np.array([0.2, 0.7]))
    cases = [(ConstantField([0.4, -0.3]), jet2),
             (FourierComponentsField([U, FourierField(2)]), jet2),
             (SolLeftInvariantField(0.2, -0.1, 1.0),
              ConformalTorus(FourierField(3)).jet(np.zeros(3)))]
    for f, jet in cases:
        assert f.reads_metric is False
        q = np.linspace(0.1, 0.5, len(jet.g))
        E = f.value(q, None)
        assert np.array_equal(E, f.value(q, jet))
        assert np.array_equal(f.jacobian(q, None, E), f.jacobian(q, jet, E))
    assert ProductField(GradientField(U), 2, ConstantField([0.4, -0.3]), 2).reads_metric
    assert not ProductField(cases[0][0], 2, cases[1][0], 2).reads_metric
    sc = presets.product_mixed()
    q = np.array([0.3, 0.1, 0.6, 0.9])
    assert np.array_equal(sc.point(q).E, np.concatenate([sc.metric_family.s1.field(q[:2]),
                                                         sc.metric_family.s2.field(q[2:])]))
