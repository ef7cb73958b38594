import numpy as np
import pytest
from conftest import default_initial_state

from weylflow import geometry as geo
from weylflow import flows, presets, scenario, tangent
from weylflow.errors import DegenerateMetricError, DegeneratePlaneError
from weylflow.fields import (
    ConstantField,
    FourierComponentsField,
    FourierField,
    GradientField,
    HalfLogField,
    ReducedField,
    RotationalField,
)
from weylflow.flows import PhaseState
from weylflow.metrics import ConformalTorus, ConstantCurvatureChart, FlatTorus, SolGroup
from weylflow.scenario import WeylScenario, _riemann, product_scenario


def generic_christoffel(scenario, q):
    """Reference assembly straight from the metric derivatives."""
    g = scenario.metric(q)
    dg = scenario.point(q).dg
    ginv = np.linalg.inv(g)
    S = 0.5 * (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg)
    return np.einsum("kl,lij->kij", ginv, S)


def test_flat_torus_christoffel_vanishes():
    sc = WeylScenario(FlatTorus((1, 1)))
    assert not sc.christoffel(np.array([0.3, 0.8])).any()


def test_constant_curvature_christoffel_fixture():
    # hand computation for K = -1 at q = (0.3, -0.4):
    # h_i = -2c q_i / (1 + c |q|^2), c = -1/4  =>  h = (4/25, -16/75)
    sc = WeylScenario(ConstantCurvatureChart(-1.0, 2))
    q = np.array([0.3, -0.4])
    h1, h2 = 4.0 / 25.0, -16.0 / 75.0
    gamma = sc.christoffel(q)
    expected = np.array([
        [[h1, h2], [h2, -h1]],
        [[-h2, h1], [h1, h2]],
    ])
    assert np.abs(gamma - expected).max() < 1e-15


def test_closed_form_christoffels_match_generic_assembly():
    scenarios = [
        WeylScenario(ConstantCurvatureChart(-1.0, 3)),
        WeylScenario(SolGroup()),
        WeylScenario(ConformalTorus(FourierField(2, [((1, 0), 0.2, 0.1)]))),
    ]
    rng = np.random.default_rng(0)
    for sc in scenarios:
        for _ in range(10):
            q = sc.sample_point(rng)
            assert np.abs(sc.christoffel(q) - generic_christoffel(sc, q)).max() < 1e-12


def test_metric_inv_d1_matches_finite_differences():
    # d_m g^{kl} = -(g^-1 d_m g g^-1)^{kl} from the jet's dg, against a difference of g^-1
    scenarios = [
        WeylScenario(SolGroup()),
        WeylScenario(ConformalTorus(FourierField(2, [((1, 0), 0.2, 0.1)]))),
        product_scenario(WeylScenario(ConstantCurvatureChart(-1.0, 2)),
                         WeylScenario(FlatTorus((1, 1)))),
    ]
    rng = np.random.default_rng(2)
    h = 1e-5
    for sc in scenarios:
        q = sc.sample_point(rng)
        pt = sc.point(q)
        dginv = -(pt.ginv @ pt.dg @ pt.ginv)
        for m in range(sc.dim):
            e = np.zeros(sc.dim)
            e[m] = h
            ref = (sc.metric_inv(q + e) - sc.metric_inv(q - e)) / (2 * h)
            assert np.abs(dginv[m] - ref).max() < 1e-8


def test_conformal_christoffel_against_metric_finite_differences():
    sigma = FourierField(2, [((1, 0), 0.15, 0.0), ((0, 1), 0.0, 0.1)])
    sc = WeylScenario(ConformalTorus(sigma))
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(10):
        q = sc.sample_point(rng)
        dg = np.zeros((2, 2, 2))
        for m in range(2):
            e = np.zeros(2)
            e[m] = h
            dg[m] = (sc.metric(q + e) - sc.metric(q - e)) / (2 * h)
        ginv = np.linalg.inv(sc.metric(q))
        S = 0.5 * (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg)
        gamma_fd = np.einsum("kl,lij->kij", ginv, S)
        assert np.abs(sc.christoffel(q) - gamma_fd).max() < 1e-6


def test_weyl_connection_zero_field_reduces_bitwise():
    sc = WeylScenario(SolGroup())
    q = np.array([0.2, 0.5, -0.3])
    assert np.array_equal(sc.christoffel(q), sc.weyl_christoffel(q))


def test_weyl_correction_flat_torus_formula():
    a = 1.3
    sc = WeylScenario(FlatTorus((1, 1)), ConstantField([a, 0.0]))
    q = np.array([0.1, 0.9])
    eye = np.eye(2)
    phi = np.array([a, 0.0])
    expected = (np.einsum("ki,j->kij", eye, phi) + np.einsum("kj,i->kij", eye, phi)
                - np.einsum("ij,k->kij", eye, phi))
    assert np.abs((sc.weyl_christoffel(q) - sc.christoffel(q)) - expected).max() == 0.0


def test_weyl_connection_symmetric_lower_indices():
    sc = presets.scenario_preset("conformal_gradient")
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = sc.sample_point(rng)
        gh = sc.weyl_christoffel(q)
        assert np.array_equal(gh, gh.transpose(0, 2, 1))


def test_compatibility_identity_100_random_samples():
    # finite-difference covariant derivative of g equals -2 phi(X) g
    names = ["example_1_2", "torus3_constant", "hyperbolic_potential",
             "sol_scan", "conformal_gradient"]
    rng = np.random.default_rng(3)
    for name in names:
        sc = presets.scenario_preset(name)
        for _ in range(20):
            q = sc.sample_point(rng)
            X = rng.standard_normal(sc.dim)
            assert geo.compatibility_residual(sc, q, X) < 1e-8


def curvature_operator(sc, q, X, Y):
    """Matrix [d, c] = R^d_{cab} X^a Y^b of the Weyl curvature operator Rhat(X, Y) at q."""
    q, X, Y = (np.asarray(a, dtype=float) for a in (q, X, Y))
    return np.einsum("dcab,a,b->dc", sc.curvature_hat_tensor(q), X, Y)


def test_curvature_operator_flat_no_field_vanishes():
    sc = WeylScenario(FlatTorus((1, 1)))
    op = curvature_operator(sc, [0.2, 0.4], [1.0, 0.0], [0.0, 1.0])
    assert not op.any()


def test_curvature_operator_constant_curvature_closed_form():
    for K in (-1.0, 0.7):
        sc = WeylScenario(ConstantCurvatureChart(K, 3))
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = sc.sample_point(rng)
            X, Y, Z = rng.standard_normal((3, 3))
            op = curvature_operator(sc, q, X, Y)
            g = sc.metric(q)
            expected = K * ((Y @ g @ Z) * X - (X @ g @ Z) * Y)
            assert np.abs(op @ Z - expected).max() < 1e-6


def test_curvature_operator_antisymmetric_in_arguments():
    sc = presets.scenario_preset("sol_scan")
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = sc.sample_point(rng)
        X, Y = rng.standard_normal((2, 3))
        a = curvature_operator(sc, q, X, Y)
        b = curvature_operator(sc, q, Y, X)
        assert np.abs(a + b).max() < 1e-10


def test_sectional_weyl_flat3_constant_field():
    a = 0.8
    sc = WeylScenario(FlatTorus((1, 1, 1)), ConstantField([a, 0, 0]))
    q = np.array([0.15, 0.3, 0.7])
    s_in = geo.sectional_weyl(sc, q, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    assert abs(s_in.Khat) < 1e-10                       # plane containing E
    s_perp = geo.sectional_weyl(sc, q, np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
    assert s_perp.Khat == pytest.approx(-a * a, abs=1e-12)
    assert s_perp.Khat_tensor == pytest.approx(-a * a, abs=1e-12)


def test_sectional_weyl_dimension_two_is_K_minus_divergence():
    sc = presets.scenario_preset("flat2_gradient")
    rng = np.random.default_rng(6)
    for _ in range(10):
        q = sc.sample_point(rng)
        X, Y = geo.sample_plane(sc, q, rng)
        s = geo.sectional_weyl(sc, q, X, Y)
        gamma = sc.christoffel(q)
        dE = sc.field_derivative(q, sc.point(q))[0]
        E = sc.field(q)
        div = np.trace(dE) + np.einsum("kkj,j->", gamma, E)
        assert s.Khat == pytest.approx(s.K - div, abs=1e-10)
        assert s.E_perp_sq == pytest.approx(0.0, abs=1e-12)


def test_sectional_routes_agree_across_families():
    rng = np.random.default_rng(7)
    for name in ["example_1_2", "torus3_constant", "hyperbolic_geodesic",
                 "hyperbolic_potential", "sol_scan", "conformal_gradient",
                 "product_mixed"]:
        sc = presets.scenario_preset(name)
        for _ in range(25):
            q = sc.sample_point(rng)
            X, Y = geo.sample_plane(sc, q, rng)
            s = geo.sectional_weyl(sc, q, X, Y)
            assert s.route_discrepancy < 1e-6, name


def test_anosov_margin_zero_field_is_K():
    sc = WeylScenario(ConstantCurvatureChart(-1.0, 2))
    rng = np.random.default_rng(8)
    q = sc.sample_point(rng)
    X, Y = geo.sample_plane(sc, q, rng)
    assert geo.anosov_margin(sc, q, X, Y) == pytest.approx(-1.0, abs=1e-10)


def test_anosov_margin_plane_containing_field():
    a = 0.8
    sc = WeylScenario(FlatTorus((1, 1, 1)), ConstantField([a, 0, 0]))
    q = np.array([0.4, 0.1, 0.6])
    m = geo.anosov_margin(sc, q, np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))
    assert m == pytest.approx(0.25 * a * a, abs=1e-12)


def test_anosov_margin_constant_norm_rotational_field():
    # margin = K + |E|^2 / 4 exactly for a divergence-free field in dim 2
    c = 0.6
    sc = WeylScenario(ConstantCurvatureChart(-1.0, 2), RotationalField(c))
    rng = np.random.default_rng(9)
    count = 0
    while count < 20:
        q = sc.sample_point(rng)
        if np.linalg.norm(q) < 0.3:
            continue
        X, Y = geo.sample_plane(sc, q, rng)
        m = geo.anosov_margin(sc, q, X, Y)
        assert m == pytest.approx(-1.0 + c * c / 4.0, abs=1e-9)
        assert m < 0
        count += 1


def test_sign_scan_gradient_field_takes_both_signs():
    sc = presets.scenario_preset("flat2_gradient")
    census = geo.curvature_sign_scan(sc, n_points=60, n_planes=1, seed=11)
    assert census.count_positive > 0
    assert census.count_negative > 0


def test_sign_scan_torus3_constant_field():
    sc = presets.scenario_preset("torus3_constant")
    census = geo.curvature_sign_scan(sc, n_points=40, n_planes=10, seed=12,
                                     include_field_planes=True)
    assert census.count_positive == 0
    assert census.min < 0
    assert census.max == pytest.approx(0.0, abs=1e-9)
    assert census.count_zero >= 40  # one deliberate E-plane per point


def test_sign_scan_sol_distinguished_field():
    sc = presets.scenario_preset("sol_scan")
    census = geo.curvature_sign_scan(sc, n_points=25, n_planes=12, seed=13)
    assert census.count_positive == 0
    assert census.count_negative > 0


def test_sign_scan_deterministic():
    sc = presets.scenario_preset("sol_scan")
    a = geo.curvature_sign_scan(sc, 10, 6, seed=21)
    b = geo.curvature_sign_scan(sc, 10, 6, seed=21)
    assert (a.min, a.max, a.count_negative, a.count_zero, a.count_positive) == \
           (b.min, b.max, b.count_negative, b.count_zero, b.count_positive)


def _mixed_field_plane_curvatures(sc, n=40, seed=14):
    rng = np.random.default_rng(seed)
    vals = []
    n1 = sc.metric_family.n1
    for _ in range(n):
        q = sc.sample_point(rng)
        E = sc.field(q)
        X = np.concatenate([E[:n1], np.zeros(sc.dim - n1)])
        Y = np.concatenate([np.zeros(n1), E[n1:]])
        vals.append(geo.sectional_weyl(sc, q, X, Y).Khat)
    return np.array(vals)


def test_product_constant_fields_mixed_plane_curvature_vanishes():
    sc = presets.scenario_preset("product_constant")
    vals = _mixed_field_plane_curvatures(sc)
    assert np.abs(vals).max() < 1e-10


def test_product_nonconstant_norm_mixed_plane_takes_both_signs():
    sc = presets.scenario_preset("product_mixed")
    vals = _mixed_field_plane_curvatures(sc, n=60)
    assert vals.max() > 1e-3 and vals.min() < -1e-3


def test_product_zero_fields_is_riemannian_product():
    s1 = WeylScenario(FlatTorus((1, 1)))
    s2 = WeylScenario(ConstantCurvatureChart(-1.0, 2))
    sc = product_scenario(s1, s2)
    rng = np.random.default_rng(15)
    q = sc.sample_point(rng)
    X = np.array([1.0, 0.3, 0.0, 0.0])
    Y = np.array([0.0, 0.0, 0.8, -0.1])
    s = geo.sectional_weyl(sc, q, X, Y)
    assert s.Khat == pytest.approx(0.0, abs=1e-10)   # mixed plane of a product
    # a plane inside the hyperbolic factor keeps its curvature
    X2 = np.array([0.0, 0.0, 1.0, 0.0])
    Y2 = np.array([0.0, 0.0, 0.0, 1.0])
    assert geo.sectional_weyl(sc, q, X2, Y2).Khat == pytest.approx(-1.0, abs=1e-9)


def test_chart_boundary_raises_degenerate_metric():
    sc = WeylScenario(ConstantCurvatureChart(-1.0, 2))
    with pytest.raises(DegenerateMetricError):
        sc.christoffel(np.array([2.0, 0.0]))


def _christoffel_d1_fd(scenario, q, weyl=False, step=1e-5):
    """Central-difference derivative of the (Weyl) Christoffels with one Richardson pass."""
    q = np.asarray(q, dtype=float)
    n = scenario.dim
    fn = scenario.weyl_christoffel if weyl else scenario.christoffel

    def central(h):
        out = np.zeros((n, n, n, n))
        for m in range(n):
            e = np.zeros(n)
            e[m] = h
            out[m] = (fn(q + e) - fn(q - e)) / (2 * h)
        return out

    d_h = central(step)
    d_h2 = central(step / 2)
    return (4.0 * d_h2 - d_h) / 3.0


def test_fd_fallback_matches_closed_form_weyl_derivatives():
    sc = presets.scenario_preset("hyperbolic_potential")
    rng = np.random.default_rng(16)
    for _ in range(3):
        q = sc.sample_point(rng)
        fd = _christoffel_d1_fd(sc, q, weyl=True)
        assert np.abs(fd - sc.weyl_christoffel_d1(q)).max() < 1e-8


def _curl_field_torus3():
    """Non-closed field on the flat 3-torus: E = (f(y), g(z), h(x))."""
    return WeylScenario(FlatTorus((1, 1, 1)), FourierComponentsField([
        FourierField(3, [((0, 1, 0), 0.5, 0.2)]),
        FourierField(3, [((0, 0, 1), 0.3, 0.1)]),
        FourierField(3, [((1, 0, 0), 0.0, 0.4)]),
    ]))


def _conformal_non_gradient():
    sigma = FourierField(2, [((1, 0), 0.15, 0.0), ((1, 1), 0.0, 0.06)])
    return WeylScenario(ConformalTorus(sigma), FourierComponentsField([
        FourierField(2, [((0, 1), 0.4, 0.0)]),
        FourierField(2, [((1, 0), 0.0, 0.3)]),
    ]))


def _hyperbolic_times_flat():
    return product_scenario(presets.hyperbolic_potential(), presets.flat2_gradient())


def _reduced_on_maupertuis_metric():
    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    field = ReducedField(W, ConstantField([0.3, 0.2]), h=1.0)
    return WeylScenario(ConformalTorus(HalfLogField(1.0, W)), field)


JACOBI_CASES = dict(presets.GEOMETRY_PRESETS)
JACOBI_CASES.update({
    "curl_torus3": _curl_field_torus3,
    "conformal_non_gradient": _conformal_non_gradient,
    "hyperbolic_potential_x_flat2_gradient": _hyperbolic_times_flat,
    "reduced_on_maupertuis_metric": _reduced_on_maupertuis_metric,
})


def _jacobi_tensor_route(sc, q, v, frame):
    """R[a, b] = < Rhat_a(e_b, v) v, e_a > from the full Weyl curvature tensor."""
    g = sc.metric(q)
    cols = []
    for e_b in frame:
        op_a, _ = geo.antisymmetric_split(sc, q, curvature_operator(sc, q, e_b, v))
        cols.append(frame @ g @ (op_a @ v))
    return np.array(cols).T


@pytest.mark.parametrize("name", sorted(JACOBI_CASES))
def test_jacobi_operator_matches_tensor_route(name):
    sc = JACOBI_CASES[name]()
    rng = np.random.default_rng(17)
    for _ in range(5):
        q = sc.sample_point(rng)
        v = rng.standard_normal(sc.dim)
        v = v / sc.norm(q, v)
        frame = tangent.complete_frame(sc, q, v)
        closed = geo._jacobi(sc, q, sc.point(q), v, frame)[0]
        oracle = _jacobi_tensor_route(sc, q, v, frame)
        scale = max(np.abs(oracle).max(), 1.0)
        assert np.abs(closed - oracle).max() <= 1e-12 * scale


def test_jacobi_operator_non_closed_field_is_not_symmetric():
    sc = _curl_field_torus3()
    rng = np.random.default_rng(18)
    q = sc.sample_point(rng)
    v = rng.standard_normal(3)
    v = v / sc.norm(q, v)
    Rmat = geo._jacobi(sc, q, sc.point(q), v, tangent.complete_frame(sc, q, v))[0]
    assert np.abs(Rmat - Rmat.T).max() > 1e-2


def test_conformal_torus_riemann_closed_form_matches_assembly():
    sigma = FourierField(2, [((1, 0), 0.15, 0.0), ((1, 1), 0.0, 0.06)])
    sc = WeylScenario(ConformalTorus(sigma))
    rng = np.random.default_rng(19)
    for _ in range(10):
        q = sc.sample_point(rng)
        closed = sc.metric_family.riemann_tensor(q)
        assert np.abs(closed - _riemann(sc.christoffel(q), sc.christoffel_d1(q))).max() < 1e-12


def test_sol_riemann_closed_form_matches_assembly():
    sc = presets.scenario_preset("sol_scan")
    rng = np.random.default_rng(20)
    for _ in range(10):
        q = sc.sample_point(rng)
        closed = sc.metric_family.riemann_tensor(q)
        assert np.abs(closed - _riemann(sc.christoffel(q), sc.christoffel_d1(q))).max() < 1e-12


def test_product_homogeneity_follows_factor_fields():
    assert presets.product_constant().is_homogeneous
    assert not presets.product_mixed().is_homogeneous


@pytest.mark.parametrize("name", ["example_1_2", "product_constant"])
def test_cached_weyl_christoffel_matches_fresh_assembly(name):
    sc = presets.scenario_preset(name)
    rng = np.random.default_rng(20)
    q0, q1 = sc.sample_point(rng), sc.sample_point(rng)
    cached = sc.weyl_christoffel(q0)
    assert sc.weyl_christoffel(q1) is cached
    assert np.array_equal(cached, sc.christoffel(q1) + sc.weyl_correction(q1))


def _chart_x_sol():
    return product_scenario(presets.hyperbolic_potential(), presets.sol_scan())


def _chart_x_conformal():
    return product_scenario(WeylScenario(ConstantCurvatureChart(0.7, 2)),
                            presets.conformal_gradient())


FAMILY_CASES = {
    "flat_torus": lambda: WeylScenario(FlatTorus((1.0, 2.0, 1.5))),
    "chart2": lambda: WeylScenario(ConstantCurvatureChart(-1.0, 2)),
    "chart3_positive": lambda: WeylScenario(ConstantCurvatureChart(0.7, 3)),
    "sol": lambda: WeylScenario(SolGroup()),
    "conformal_torus": lambda: WeylScenario(ConformalTorus(
        FourierField(2, [((1, 0), 0.15, 0.0), ((1, 1), 0.0, 0.06)]), periods=(1.0, 2.0))),
    "maupertuis": lambda: WeylScenario(ConformalTorus(
        HalfLogField(1.0, FourierField(2, [((1, 0), 0.2, 0.0)])))),
    "chart_x_sol": _chart_x_sol,
    "chart_x_conformal": _chart_x_conformal,
}


def _central(fn, q, m, h):
    e = np.zeros(len(q))
    e[m] = h
    return (fn(q + e) - fn(q - e)) / (2 * h)


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_christoffel_d1_matches_finite_differences(name):
    sc = FAMILY_CASES[name]()
    rng = np.random.default_rng(23)
    for _ in range(5):
        q = sc.sample_point(rng)
        closed = sc.christoffel_d1(q)
        fd = _christoffel_d1_fd(sc, q)
        assert np.abs(closed - fd).max() < 1e-8 * max(np.abs(fd).max(), 1.0), name


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_metric_jet_dg_matches_finite_differences(name):
    sc = FAMILY_CASES[name]()
    rng = np.random.default_rng(24)
    for _ in range(5):
        q = sc.sample_point(rng)
        dg = sc.metric_family.jet(q).dg
        fd = np.array([_central(sc.metric, q, m, 1e-5) for m in range(sc.dim)])
        assert np.abs(dg - fd).max() < 1e-8 * max(np.abs(fd).max(), 1.0), name


@pytest.mark.parametrize("name", sorted(presets.GEOMETRY_PRESETS))
def test_local_matches_independent_references(name):
    sc = presets.scenario_preset(name)
    rng = np.random.default_rng(26)
    for _ in range(5):
        q = sc.sample_point(rng)
        pt = sc.point(q)
        jac, N = sc.field_derivative(q, pt)
        g = sc.metric(q)
        gamma = generic_christoffel(sc, q)
        dE = np.array([_central(sc.field, q, m, 1e-6) for m in range(sc.dim)]).T
        scale = max(np.abs(dE).max(), 1.0)
        assert np.array_equal(pt.g, g)
        assert np.abs(pt.ginv - np.linalg.inv(g)).max() < 1e-12 * np.abs(pt.ginv).max()
        assert np.abs(pt.gamma - gamma).max() < 1e-12
        assert np.abs(pt.phi - g @ pt.E).max() < 1e-14 * max(np.abs(pt.phi).max(), 1.0)
        assert np.abs(jac - dE).max() < 1e-7 * scale
        assert np.abs(N - (dE + gamma @ pt.E)).max() < 1e-7 * scale


# -- the per-point memo --------------------------------------------------------

NON_HOMOGENEOUS = [name for name in sorted(presets.GEOMETRY_PRESETS)
                   if not presets.scenario_preset(name).is_homogeneous]


def _point_data(sc, q):
    """Every memoised quantity at q, and dE, N and the Levi-Civita R built from
    the memoised point record, as a flat list of arrays."""
    pt = sc.point(q)
    return [*pt, *sc.field_derivative(q, pt), sc.weyl_christoffel(q),
            sc.curvature_hat_tensor(q), sc.lc_curvature(q, pt.gamma)]


def _all_equal(got, ref):
    return len(got) == len(ref) and all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("name", sorted(presets.GEOMETRY_PRESETS))
def test_memo_matches_fresh_scenario_at_alternating_points(name):
    sc = presets.scenario_preset(name)
    rng = np.random.default_rng(31)
    q1, q2 = sc.sample_point(rng), sc.sample_point(rng)
    for q in (q1, q2, q1):
        fresh = presets.scenario_preset(name)
        assert _all_equal(_point_data(sc, q), _point_data(fresh, q.copy()))


@pytest.mark.parametrize("name", NON_HOMOGENEOUS)
def test_memo_sees_in_place_mutation_of_q(name):
    sc = presets.scenario_preset(name)
    rng = np.random.default_rng(32)
    q = sc.sample_point(rng)
    first = [a.copy() for a in _point_data(sc, q)]
    q[:] = sc.sample_point(rng)
    moved = _point_data(sc, q)
    assert _all_equal(moved, _point_data(presets.scenario_preset(name), q.copy()))
    assert not _all_equal(moved, first)


@pytest.mark.parametrize("name", ["example_1_2", "hyperbolic_potential"])
def test_memo_computes_one_key_per_call(monkeypatch, name):
    # a miss compares and stores one key; a homogeneous hit computes none
    keys = []
    monkeypatch.setattr(scenario, "_point_key",
                        lambda q, real=scenario._point_key: keys.append(1) or real(q))
    sc = presets.scenario_preset(name)
    rng = np.random.default_rng(33)
    q1, q2 = sc.sample_point(rng), sc.sample_point(rng)
    for q in (q1, q1, q2):
        sc.point(q)
    assert len(keys) == (1 if sc.is_homogeneous else 3)


class _ReadOnlyMemo(dict):
    """A memo store that makes every array it remembers read-only."""

    def __setitem__(self, name, entry):
        value = entry[1]
        for a in value if isinstance(value, tuple) else (value,):
            a.flags.writeable = False
        super().__setitem__(name, entry)


@pytest.fixture
def read_only_memo(monkeypatch):
    init = WeylScenario.__init__

    def init_read_only(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._memo = _ReadOnlyMemo()

    monkeypatch.setattr(WeylScenario, "__init__", init_read_only)


@pytest.mark.parametrize("name", ["example_1_2", "hyperbolic_potential", "sol_scan",
                                  "product_mixed", "product_constant"])
def test_no_caller_mutates_memoised_arrays(read_only_memo, name):
    sc = presets.scenario_preset(name)
    assert isinstance(sc._memo, _ReadOnlyMemo)
    state = PhaseState(*default_initial_state(sc))
    tangent.lyapunov_spectrum(sc, state, T=0.1, dt=1e-2)
    n = sc.dim
    tv = tangent.TangentVector(0.1, np.full(n - 1, 0.1), np.full(n - 1, -0.1))
    tangent.linearized_run(sc, state, tv, T=0.1, dt=1e-2)
    traj = flows.integrate(sc, state, T=0.1, dt=1e-2)
    tangent._co_integrate(sc, traj.state(0), 0.1, 1e-2, tangent.CLEANUP_EVERY,
                          M0=np.zeros((2 * (n - 1), 0)))
    flows.integrate(sc, state, T=0.1, dt=1e-2, kind="weyl_geodesic")
    geo.curvature_sign_scan(sc, 2, 5, 0, include_field_planes=True)
    assert not sc.point(state.q).g.flags.writeable
    assert not sc.weyl_christoffel(state.q).flags.writeable
    assert not sc.curvature_hat_tensor(state.q).flags.writeable


@pytest.mark.parametrize("name", sorted(presets.GEOMETRY_PRESETS))
def test_census_builds_at_most_two_tensors_per_point(monkeypatch, name):
    sc = presets.scenario_preset(name)
    builds = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is not None:      # riemann_tensor is None without a closed form
                builds.append(fn)
            return out
        return wrapper

    monkeypatch.setattr("weylflow.scenario._riemann", counted(_riemann))
    sc.metric_family.riemann_tensor = counted(sc.metric_family.riemann_tensor)
    n_points = 3
    geo.curvature_sign_scan(sc, n_points, 20, 0, include_field_planes=True)
    assert 0 < len(builds) <= 2 * n_points


@pytest.mark.parametrize("name", sorted(presets.GEOMETRY_PRESETS))
def test_census_builds_field_derivative_at_most_twice_per_point(monkeypatch, name):
    # sectional_weyl reads N once; curvature_hat_tensor reads dE once through
    # weyl_correction_d1, which shares it with its dphi
    sc = presets.scenario_preset(name)
    build = sc.field_derivative
    builds = []

    def counted(q, pt):
        builds.append(np.array(q))
        return build(q, pt)

    monkeypatch.setattr(sc, "field_derivative", counted)
    n_points = 3
    geo.curvature_sign_scan(sc, n_points, 20, 0, include_field_planes=True)
    assert 0 < len(builds) <= 2 * n_points
    assert all(q.ndim == 1 for q in builds)


def test_tensor_route_does_not_read_the_closed_form_riemann_tensor(monkeypatch):
    sc = presets.hyperbolic_geodesic()
    closed = sc.metric_family.riemann_tensor
    monkeypatch.setattr(sc.metric_family, "riemann_tensor", lambda q: 1.01 * closed(q))
    census = geo.curvature_sign_scan(sc, 2, 5, 0)
    assert census.samples.route_discrepancy.min() >= 1e-3


# ---------------------------------------------------------------------------
# batched planes: one stack of P planes per point
# ---------------------------------------------------------------------------

def _reference_plane(sc, q, X, Y):
    """(K, Khat_tensor, Khat, margin) of one g-orthonormal plane by plain matrix products."""
    pt = sc.point(q)
    g, N = pt.g, sc.field_derivative(q, pt)[1]
    A = np.tensordot(sc.curvature_hat_tensor(q), np.outer(X, Y), axes=2)
    A_anti = 0.5 * (A - np.linalg.inv(g) @ A.T @ g)
    khat_tensor = X @ g @ A_anti @ Y
    K = X @ g @ np.tensordot(sc.lc_curvature(q, pt.gamma), np.outer(X, Y), axes=2) @ Y
    e_x, e_y = X @ g @ pt.E, Y @ g @ pt.E
    E_perp = pt.E - e_x * X - e_y * Y
    div = X @ g @ N @ X + Y @ g @ N @ Y
    khat = K - E_perp @ g @ E_perp - div
    return K, khat_tensor, khat, khat + 0.25 * (e_x**2 + e_y**2)


def _assert_matches_reference(sc, samples):
    ref = np.array([_reference_plane(sc, q, X, Y)
                    for q, X, Y in zip(samples.q, samples.X, samples.Y)])
    got = np.column_stack([samples.K, samples.Khat_tensor, samples.Khat, samples.margin])
    scale = np.maximum(np.abs(ref).max(axis=0), 1e-12)   # a column of rounding noise is 0
    assert (np.abs(got - ref) <= 1e-12 * scale).all(), np.abs(got - ref).max(axis=0)


def _product8():
    """An n = 8 product: a curvature -1 chart with a gradient field times a
    conformal torus with a Fourier field."""
    U = FourierField(4, [((1, 0, 0, 1), 0.01, 0.0), ((0, 1, 1, 0), 0.0, 0.008)])
    s1 = WeylScenario(ConstantCurvatureChart(-1.0, 4), GradientField(U))
    sigma = FourierField(4, [((1, 0, 1, 0), 0.1, 0.0), ((0, 1, 0, 1), 0.0, 0.05)])
    E2 = FourierComponentsField([FourierField(4, [((0, 0, 1, 0), 0.4, 0.1)]),
                                 FourierField(4, [((1, 0, 0, 0), 0.0, 0.3)]),
                                 FourierField(4, [((0, 0, 0, 0), 0.2, 0.0)]),
                                 FourierField(4)])
    return product_scenario(s1, WeylScenario(ConformalTorus(sigma), E2))


BATCH_CASES = dict(presets.GEOMETRY_PRESETS, product8=_product8)


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batched_census_matches_per_plane_reference(name):
    sc = BATCH_CASES[name]()
    census = geo.curvature_sign_scan(sc, 3, 20, 5, include_field_planes=True)
    s = census.samples
    n_rows = len(s.Khat)
    assert 60 <= n_rows <= 63
    assert s.q.shape == s.X.shape == s.Y.shape == (n_rows, sc.dim)
    _assert_matches_reference(sc, s)


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_of_planes_agrees_with_single_plane_calls(name):
    sc = BATCH_CASES[name]()
    rng = np.random.default_rng(np.random.Philox(31))
    q = sc.sample_point(rng)
    Z = rng.standard_normal((12, 2, sc.dim))
    batch = geo.sectional_weyl(sc, q, Z[:, 0], Z[:, 1])
    singles = [geo.sectional_weyl(sc, q, x, y) for x, y in zip(Z[:, 0], Z[:, 1])]
    for field in ("X", "Y", "K", "Khat", "Khat_tensor", "E_perp_sq", "div_plane",
                  "E_plane_sq", "margin"):
        got = getattr(batch, field)
        want = np.array([getattr(t, field) for t in singles])
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0), field
    assert all(type(t.Khat) is float and t.X.shape == (sc.dim,) for t in singles)
    assert np.array_equal(batch.q, np.broadcast_to(q, batch.X.shape))


def test_batch_with_one_degenerate_plane_raises():
    sc = presets.scenario_preset("sol_scan")
    rng = np.random.default_rng(np.random.Philox(32))
    q = sc.sample_point(rng)
    X, Y = rng.standard_normal((2, 6, 3))
    Y[4] = 2.0 * X[4]                        # exactly dependent: the Gram determinant is 0
    for fn in (geo.sectional_weyl, geo.gram_schmidt_plane):
        with pytest.raises(DegeneratePlaneError):
            fn(sc, q, X, Y)
    X[4] = 0.0
    with pytest.raises(DegeneratePlaneError, match="zero vector"):
        geo.gram_schmidt_plane(sc, q, X, Y)


def test_plane_block_is_the_stream_of_single_draws():
    sc = presets.scenario_preset("product_mixed")
    q = sc.sample_point(np.random.default_rng(33))
    a = np.random.default_rng(np.random.Philox(34))
    b = np.random.default_rng(np.random.Philox(34))
    X, Y = geo.sample_plane(sc, q, a, 15)
    singles = np.array([geo.sample_plane(sc, q, b) for _ in range(15)])
    assert np.abs(X - singles[:, 0]).max() <= 1e-15
    assert np.abs(Y - singles[:, 1]).max() <= 1e-15
    assert a.standard_normal() == b.standard_normal()


class _ScriptedNormals:
    """An rng whose standard_normal returns prescribed blocks in turn."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def standard_normal(self, shape):
        block = self.blocks.pop(0)
        assert block.shape == shape
        return block


def test_degenerate_row_of_a_plane_block_is_redrawn():
    sc = presets.scenario_preset("torus3_constant")
    q = sc.sample_point(np.random.default_rng(35))
    block = np.random.default_rng(36).standard_normal((5, 2, 3))
    block[1, 1] = 3.0 * block[1, 0]          # dependent pair
    block[3, 0] = 0.0                        # zero first vector
    redraw = np.random.default_rng(37).standard_normal((2, 2, 3))
    X, Y = geo.sample_plane(sc, q, _ScriptedNormals(block, redraw), 5)
    kept = [0, 2, 4]
    want_X, want_Y = geo.gram_schmidt_plane(sc, q, block[kept, 0], block[kept, 1])
    assert np.array_equal(X[kept], want_X) and np.array_equal(Y[kept], want_Y)
    want_X, want_Y = geo.gram_schmidt_plane(sc, q, redraw[:, 0], redraw[:, 1])
    assert np.array_equal(X[[1, 3]], want_X) and np.array_equal(Y[[1, 3]], want_Y)


# ---------------------------------------------------------------------------
# property tests on random Fourier data
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTIES = settings(max_examples=40, deadline=1000, derandomize=True)


@st.composite
def _fourier(draw, dim, amplitude):
    """A FourierField with 1-3 terms, integer wavevectors in [-2, 2], small amplitudes."""
    n_terms = draw(st.integers(1, 3))
    coef = st.floats(-amplitude, amplitude, allow_nan=False)
    terms = [(tuple(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))),
              draw(coef), draw(coef)) for _ in range(n_terms)]
    return FourierField(dim, terms)


@st.composite
def _conformal_scenario(draw):
    """A conformal torus with random sigma and a gradient, constant or Fourier field."""
    dim = draw(st.sampled_from([2, 3]))
    sigma = draw(_fourier(dim, 0.15))
    kind = draw(st.sampled_from(["gradient", "constant", "fourier"]))
    if kind == "gradient":
        field = GradientField(draw(_fourier(dim, 0.3)))
    elif kind == "constant":
        field = ConstantField(draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                                            min_size=dim, max_size=dim)))
    else:
        field = FourierComponentsField([draw(_fourier(dim, 0.5)) for _ in range(dim)])
    return WeylScenario(ConformalTorus(sigma), field)


@PROPERTIES
@given(sc=_conformal_scenario(), seed=st.integers(0, 2**16))
def test_property_curvature_routes_agree_on_a_batch_of_planes(sc, seed):
    rng = np.random.default_rng(np.random.Philox(seed))
    q = sc.sample_point(rng)
    X, Y = geo.sample_plane(sc, q, rng, 8)
    s = geo.sectional_weyl(sc, q, X, Y)
    assert s.route_discrepancy.max() < 1e-6


@PROPERTIES
@given(sc=_conformal_scenario(), seed=st.integers(0, 2**16))
def test_property_jacobi_operator_matches_tensor_route(sc, seed):
    rng = np.random.default_rng(np.random.Philox(seed))
    q = sc.sample_point(rng)
    v = rng.standard_normal(sc.dim)
    v = v / sc.norm(q, v)
    frame = tangent.complete_frame(sc, q, v)
    closed = geo._jacobi(sc, q, sc.point(q), v, frame)[0]
    oracle = _jacobi_tensor_route(sc, q, v, frame)
    assert np.abs(closed - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1.0)


@PROPERTIES
@given(sc=_conformal_scenario(), seed=st.integers(0, 2**16))
def test_property_weyl_connection_is_compatible(sc, seed):
    # the central difference's O(step^2) truncation grows with sigma's third
    # derivative: about 3e-8 at the default step on these wavevectors, 1.4e-9 at 2e-6
    rng = np.random.default_rng(np.random.Philox(seed))
    for _ in range(4):
        q = sc.sample_point(rng)
        X = rng.standard_normal(sc.dim)
        assert geo.compatibility_residual(sc, q, X, step=2e-6) < 1e-8


# about 0.3 s an example: no deadline, which a slow machine would turn into flakes
@settings(max_examples=20, deadline=None, derandomize=True)
@given(sc=_conformal_scenario(), seed=st.integers(0, 2**16))
def test_property_isokinetic_involution_round_trip(sc, seed):
    st0 = PhaseState(*default_initial_state(sc, seed))
    f = flows.integrate(sc, st0, T=0.4, dt=1e-3)
    b = flows.integrate(sc, flows.involution(f.state(-1)), T=0.4, dt=1e-3)
    assert np.abs(b.q[-1] - st0.q).max() < 1e-6
    assert np.abs(b.v[-1] + st0.v).max() < 1e-6
