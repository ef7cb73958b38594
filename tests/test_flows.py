import itertools

import numpy as np
import pytest
from conftest import default_initial_state, one_form_d1

from weylflow import flows, presets, tangent
from weylflow.errors import (
    InvalidEnergyLevelError,
    InvalidStepError,
    KineticFloorError,
    NonFiniteStateError,
    NotLocallyPotentialError,
    TooFewSamplesError,
)
from weylflow.fields import ConstantField, FourierField, GradientField, HalfLogField, VectorField
from weylflow.flows import IsoenergeticSpec, PhaseState, involution
from weylflow.metrics import ConstantCurvatureChart, FlatTorus
from weylflow.scenario import WeylScenario, flat_torus_scenario


@pytest.fixture
def example_scenario():
    return flat_torus_scenario((1, 1), ConstantField([1.0, 0.0]))


def _isokinetic_rhs(scenario, q, v):
    """(dq/dt, dv/dt) of the Gaussian thermostat on |v|_g = 1, Dv/dt = E - <E, v> v,
    by the isokinetic step at the point record of q."""
    return v, flows.isokinetic_accel(scenario.point(q), v, scenario.metric_family.is_flat)[0]


def test_isokinetic_rhs_example_formula(example_scenario):
    # xdd = a yd^2, ydd = -a xd yd for E = (a, 0)
    for th in (0.3, 1.2, 2.8, -0.9):
        v = np.array([np.cos(th), np.sin(th)])
        dq, dv = _isokinetic_rhs(example_scenario, np.array([0.2, 0.5]), v)
        assert np.allclose(dq, v)
        assert dv[0] == pytest.approx(np.sin(th) ** 2, abs=1e-14)
        assert dv[1] == pytest.approx(-np.cos(th) * np.sin(th), abs=1e-14)


def test_isokinetic_rhs_zero_field_is_geodesic():
    sc = WeylScenario(ConstantCurvatureChart(-1.0, 2))
    q = np.array([0.3, -0.2])
    v = np.array([0.8, 0.1])
    v = v / sc.norm(q, v)
    dq, dv = _isokinetic_rhs(sc, q, v)
    gamma = sc.christoffel(q)
    assert np.allclose(dv, -np.einsum("kij,i,j->k", gamma, v, v), atol=1e-14)


def test_isokinetic_covariant_accel_orthogonal_to_velocity():
    sc = WeylScenario(ConstantCurvatureChart(-1.0, 2), ConstantField([0.3, 0.1]))
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = sc.sample_point(rng)
        v = rng.standard_normal(2)
        v = v / sc.norm(q, v)
        dq, dv = _isokinetic_rhs(sc, q, v)
        Dv = dv + np.einsum("kij,i,j->k", sc.christoffel(q), v, v)   # covariant acceleration
        assert abs(float(Dv @ sc.metric(q) @ v)) < 1e-12


def test_isokinetic_attractor_direction_is_invariant(example_scenario):
    dq, dv = _isokinetic_rhs(example_scenario, np.zeros(2), np.array([1.0, 0.0]))
    assert np.abs(dv).max() == 0.0


def test_isoenergetic_matches_isokinetic_when_W_zero(example_scenario):
    spec = IsoenergeticSpec(potential=FourierField(2), field=ConstantField([1.0, 0.0]),
                            h=0.5)
    q, v = np.array([0.2, 0.3]), np.array([np.cos(0.7), np.sin(0.7)])
    dq_i, dv_i = _isokinetic_rhs(example_scenario, q, v)
    dq_e, dv_e = flows.isoenergetic_rhs(example_scenario, spec, q, v)
    assert np.abs(dv_i - dv_e).max() < 1e-14


def test_isoenergetic_conserves_energy_directionally():
    W = FourierField(2, [((1, 0), 0.2, 0.0), ((0, 1), 0.0, 0.15)])
    sc = WeylScenario(FlatTorus((1, 1)))
    spec = IsoenergeticSpec(potential=W, field=ConstantField([0.4, -0.2]), h=1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = rng.uniform(0, 1, 2)
        speed = np.sqrt(2 * (spec.h - W.value(q)))
        th = rng.uniform(0, 2 * np.pi)
        v = speed * np.array([np.cos(th), np.sin(th)])
        dq, dv = flows.isoenergetic_rhs(sc, spec, q, v)
        dH = v @ dv + W.grad(q) @ dq
        assert abs(dH) < 1e-12


def test_isoenergetic_kinetic_floor_error():
    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    sc = WeylScenario(FlatTorus((1, 1)))
    spec = IsoenergeticSpec(potential=W, field=ConstantField([0.1, 0.0]), h=1.0)
    with pytest.raises(KineticFloorError):
        flows.isoenergetic_rhs(sc, spec, np.array([0.1, 0.1]), np.array([1e-4, 0.0]))


def test_reduce_to_wflow_gradient_case():
    # E = 0: the reduced field is -grad(-0.5 ln(h - W))
    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    sc = WeylScenario(FlatTorus((1, 1)))
    spec = IsoenergeticSpec(potential=W, field=ConstantField([0.0, 0.0]), h=1.0)
    red = flows.reduce_to_wflow(sc, spec)
    half_log = HalfLogField(1.0, W)
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = rng.uniform(0, 1, 2)
        assert np.abs(red.value(q, sc.metric_family.jet(q)) - half_log.grad(q)).max() < 1e-14


def test_reduce_to_wflow_identity_case():
    W = FourierField(2)
    sc = WeylScenario(FlatTorus((1, 1)))
    spec = IsoenergeticSpec(potential=W, field=ConstantField([0.7, -0.1]), h=0.5)
    red = flows.reduce_to_wflow(sc, spec)
    q = np.array([0.4, 0.9])
    assert np.abs(red.value(q, sc.metric_family.jet(q)) - np.array([0.7, -0.1])).max() < 1e-14


def test_reduce_to_wflow_nonpotential_in_general():
    # generic W with a gradient E: the reduced one-form is no longer closed
    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    U = FourierField(2, [((0, 1), 0.3, 0.0)])
    sc = WeylScenario(FlatTorus((1, 1)))
    spec = IsoenergeticSpec(potential=W, field=GradientField(U), h=1.0)
    red = flows.reduce_to_wflow(sc, spec)
    sc_red = WeylScenario(FlatTorus((1, 1)), red)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        q = rng.uniform(0, 1, 2)
        dphi = one_form_d1(sc_red, q)
        worst = max(worst, np.abs(dphi - dphi.T).max())
    assert worst > 1e-3


def test_reduce_to_wflow_rejects_bad_level():
    W = FourierField(2, [((1, 0), 2.0, 0.0)])
    sc = WeylScenario(FlatTorus((1, 1)))
    spec = IsoenergeticSpec(potential=W, field=ConstantField([0.0, 0.0]), h=1.0)
    with pytest.raises(InvalidEnergyLevelError) as err:
        flows.reduce_to_wflow(sc, spec)
    # the error names the first of the seeded check points where h <= W
    rng = np.random.default_rng(0)
    qs = [sc.sample_point(rng) for _ in range(flows.REDUCE_CHECK_POINTS)]
    first = next(q for q in qs if spec.h - W.value(q) <= 0.0)
    assert str(err.value) == f"h - W <= 0 at q={first}"


def test_weyl_geodesic_zero_field_is_riemannian_geodesic():
    sc = WeylScenario(ConstantCurvatureChart(-1.0, 2))
    q = np.array([0.2, 0.4])
    w = np.array([0.5, -0.3])
    dq, dw = flows.weyl_geodesic_rhs(sc, q, w)
    gamma = sc.christoffel(q)
    assert np.allclose(dw, -np.einsum("kij,i,j->k", gamma, w, w), atol=1e-14)


def test_weyl_geodesic_speed_decay_along_field_line(example_scenario):
    # along the E-direction line |w(s)| = 1/(1 + a s), i.e. e^{-a t} in arc length
    traj = flows.integrate(example_scenario, PhaseState([0.0, 0.0], [1.0, 0.0]),
                           T=3.0, dt=1e-3, kind="weyl_geodesic")
    s = traj.times
    speeds = np.linalg.norm(traj.v, axis=1)
    assert np.abs(speeds - 1.0 / (1.0 + s)).max() < 1e-10
    assert np.abs(speeds - np.exp(-traj.arc_length)).max() < 1e-10
    assert np.abs(traj.q[:, 1]).max() < 1e-14  # straight line


def test_weyl_geodesic_speed_law_residual(example_scenario):
    # |w| = exp(-int phi) along any integrated geodesic
    st = PhaseState([0.1, 0.2], [np.cos(1.1), np.sin(1.1)])
    traj = flows.integrate(example_scenario, st, T=4.0, dt=1e-3, kind="weyl_geodesic")
    assert np.abs(traj.speed_residual).max() < 1e-8


def test_integrate_example_curve(example_scenario):
    traj = flows.integrate(example_scenario, PhaseState([0.0, 0.0], [0.0, 1.0]),
                           T=2.0, dt=1e-3)
    mask = np.abs(traj.q[:, 1]) <= 1.2
    err = np.abs(traj.q[mask, 0] + np.log(np.cos(traj.q[mask, 1]))).max()
    assert err < 1e-6


def test_integrate_zero_field_straight_motion():
    sc = flat_torus_scenario((1, 1))
    v0 = np.array([np.cos(0.4), np.sin(0.4)])
    traj = flows.integrate(sc, PhaseState([0.1, 0.2], v0), T=5.0, dt=1e-3)
    assert np.abs(traj.q[-1] - (np.array([0.1, 0.2]) + 5.0 * v0)).max() < 1e-10


def test_integrate_attractor_convergence(example_scenario):
    st = PhaseState([0.7, 0.1], [np.cos(2.9), np.sin(2.9)])
    traj = flows.integrate(example_scenario, st, T=60.0, dt=2e-3)
    angle = np.arccos(np.clip(traj.v[-1, 0], -1, 1))
    assert angle < 1e-4


def test_integrate_speed_drift_bound(example_scenario):
    traj = flows.integrate(example_scenario, PhaseState([0.3, 0.1], [0.0, 1.0]),
                           T=10.0, dt=1e-3)
    assert np.abs(traj.speed_residual).max() < 1e-9 * 10.0


def test_integrate_isoenergetic_energy_drift():
    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    sc = WeylScenario(FlatTorus((1, 1)))
    spec = IsoenergeticSpec(potential=W, field=ConstantField([0.3, 0.2]), h=1.0)
    q0 = np.array([0.15, 0.4])
    v0 = np.sqrt(2 * (1.0 - W.value(q0))) * np.array([np.cos(0.9), np.sin(0.9)])
    traj = flows.integrate(sc, PhaseState(q0, v0), T=10.0, dt=1e-3,
                           kind="isoenergetic", spec=spec)
    assert np.abs(traj.energy_residual).max() < 1e-8


def test_reversibility_roundtrip(example_scenario):
    st0 = PhaseState([0.1, 0.2], [np.cos(0.8), np.sin(0.8)])
    f = flows.integrate(example_scenario, st0, T=6.0, dt=1e-3)
    b = flows.integrate(example_scenario, involution(f.state(-1)), T=6.0, dt=1e-3)
    assert np.abs(b.q[-1] - st0.q).max() < 1e-6
    assert np.abs(b.v[-1] + st0.v).max() < 1e-6


def test_rk4_convergence_order(example_scenario):
    # halving dt cuts the closed-form error ~16x over a decade of steps
    errs = []
    for dt in (2e-2, 1e-2, 5e-3, 2.5e-3):
        traj = flows.integrate(example_scenario, PhaseState([0.0, 0.0], [0.0, 1.0]),
                               T=1.6, dt=dt)
        mask = np.abs(traj.q[:, 1]) <= 1.2
        errs.append(np.abs(traj.q[mask, 0] + np.log(np.cos(traj.q[mask, 1]))).max())
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    for r in ratios:
        assert 10.0 < r < 24.0, ratios


def test_wflow_traces_weyl_geodesic_point_set(example_scenario):
    # arc-length reparametrization of the Weyl geodesic = isokinetic orbit
    st = PhaseState([0.05, 0.1], [np.cos(1.3), np.sin(1.3)])
    geod = flows.integrate(example_scenario, st, T=20.0, dt=5e-4, kind="weyl_geodesic")
    iso = flows.integrate(example_scenario, st, T=3.0, dt=1e-3)
    s_max = min(3.0, float(geod.arc_length[-1]) - 1e-6)
    assert s_max > 2.0
    s_grid = np.arange(0.0, s_max, 1e-2)
    q_geod = flows.reparametrize_by_arclength(geod, s_grid)
    q_iso = flows.reparametrize_by_arclength(iso, s_grid)
    assert np.abs(q_geod - q_iso).max() < 1e-6


def test_dettmann_morriss_identity_when_potential_zero():
    U = FourierField(2)
    sc = flat_torus_scenario((1, 1))
    traj = flows.integrate(sc, PhaseState([0.1, 0.2], [np.cos(0.5), np.sin(0.5)]),
                           T=4.0, dt=1e-3)
    rec = flows.dettmann_morriss(traj, U)
    assert np.abs(rec.tau - traj.times).max() < 1e-12
    assert np.abs(rec.H - 0.5).max() < 1e-12


def test_dettmann_morriss_conservation_and_residual():
    U = FourierField(2, [((1, 0), 0.3, 0.0)])
    sc = flat_torus_scenario((1, 1), GradientField(U))
    traj = flows.integrate(sc, PhaseState([0.15, 0.3], [np.cos(1.1), np.sin(1.1)]),
                           T=20.0, dt=1e-3)
    rec = flows.dettmann_morriss(traj, U)
    assert rec.H_drift < 1e-8
    assert rec.hamilton_residual < 1e-5


def test_dettmann_morriss_rejects_nonpotential_field():
    U = FourierField(2, [((1, 0), 0.3, 0.0)])
    sc = flat_torus_scenario((1, 1), ConstantField([0.5, 0.0]))
    traj = flows.integrate(sc, PhaseState([0.1, 0.2], [0.0, 1.0]), T=2.0, dt=1e-3)
    with pytest.raises(NotLocallyPotentialError):
        flows.dettmann_morriss(traj, U)


def test_dettmann_morriss_rejects_two_samples():
    # T = dt leaves two samples; the residual's central differences need three
    U = FourierField(2, [((1, 0), 0.3, 0.0)])
    sc = flat_torus_scenario((1, 1), GradientField(U))
    traj = flows.integrate(sc, PhaseState([0.15, 0.3], [np.cos(1.1), np.sin(1.1)]),
                           T=1e-3, dt=1e-3)
    assert len(traj.times) == 2
    with pytest.raises(TooFewSamplesError, match="at least 3 samples"):
        flows.dettmann_morriss(traj, U)
    three = flows.integrate(sc, PhaseState([0.15, 0.3], [np.cos(1.1), np.sin(1.1)]),
                            T=2e-3, dt=1e-3)
    assert np.isfinite(flows.dettmann_morriss(three, U).hamilton_residual)


def test_omega_form_zero_potential_reduces_to_pairing():
    U = FourierField(2)
    st = PhaseState([0.1, 0.2], [1.0, 0.0])
    xi1, eta1 = np.array([0.3, -0.1]), np.array([0.2, 0.5])
    xi2, eta2 = np.array([-0.4, 0.8]), np.array([0.1, -0.6])
    val = flows.omega_form(st, (xi1, eta1), (xi2, eta2), U)
    assert val == pytest.approx(eta1 @ xi2 - eta2 @ xi1, abs=1e-15)


def test_omega_form_antisymmetric():
    U = FourierField(2, [((1, 0), 0.3, 0.0)])
    st = PhaseState([0.2, 0.7], [np.cos(0.3), np.sin(0.3)])
    p = (np.array([0.3, -0.1]), np.array([0.2, 0.5]))
    assert flows.omega_form(st, p, p, U) == 0.0


def test_omega_form_conformal_decay():
    # transported pairs scale by exp(-int phi): measured within 2 percent
    U = FourierField(2, [((1, 0), 0.3, 0.0)])
    sc = flat_torus_scenario((1, 1), GradientField(U))
    st0 = PhaseState([0.15, 0.3], [np.cos(1.1), np.sin(1.1)])
    rng = np.random.default_rng(4)
    pairs = []
    for _ in range(2):
        xi = rng.standard_normal(2)
        eta = rng.standard_normal(2)
        eta -= (eta @ st0.v) * st0.v
        pairs.append((xi, eta))
    run = flows.transport_tangent_pairs(sc, st0, pairs, T=10.0, dt=1e-3)
    om = np.array([
        flows.omega_form(PhaseState(run.q[i], run.v[i]),
                         (run.xi[i, 0], run.eta[i, 0]),
                         (run.xi[i, 1], run.eta[i, 1]), U)
        for i in range(0, len(run.times), 100)
    ])
    factor = np.exp(run.int_phi[::100])
    ratio = om * factor / om[0]
    assert np.abs(ratio - 1.0).max() < 0.02


def test_rk4_step_matches_degree_four_taylor_on_linear_system():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    y = rng.standard_normal(5)
    h = 0.1
    rhs = lambda x: A @ x
    hA = h * A
    taylor = np.eye(5) + hA + hA @ hA / 2 + hA @ hA @ hA / 6 + hA @ hA @ hA @ hA / 24
    got = flows.rk4_step(rhs, y, h, rhs(y))
    assert np.abs(got - taylor @ y).max() < 1e-14


def test_rk4_step_batch_rows_equal_single_steps():
    # thermostat right-hand side written row-wise, so rows never mix
    E = np.array([0.7, -0.4])

    def rhs(y):
        v = y[..., 2:]
        ev = v[..., 0] * E[0] + v[..., 1] * E[1]
        return np.concatenate((v, E - ev[..., None] * v), axis=-1)

    rng = np.random.default_rng(8)
    batch = rng.standard_normal((6, 4))
    stepped = flows.rk4_step(rhs, batch, 1e-2, rhs(batch))
    for row, out in zip(batch, stepped):
        assert np.array_equal(flows.rk4_step(rhs, row, 1e-2, rhs(row)), out)


@pytest.mark.parametrize("T, dt", [(0.0005, 0.001), (1.0, 0.0), (1.0, -1e-3),
                                   (float("nan"), 1e-3)])
def test_step_count_rejects_bad_steps(example_scenario, T, dt):
    with pytest.raises(InvalidStepError):
        flows.step_count(T, dt)
    with pytest.raises(InvalidStepError):
        flows.integrate(example_scenario, PhaseState([0.1, 0.2], [1.0, 0.0]), T=T, dt=dt)


# -- the Simpson rule: the same bits as scipy's cumulative_simpson ------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson  # noqa: E402


def _same_bits_as_scipy(y, x):
    got = flows.cumulative_simpson(y, x)
    want = scipy_cumulative_simpson(np.asarray(y, dtype=float),
                                    x=np.asarray(x, dtype=float), initial=0.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=st.integers(2, 300), uniform=st.booleans(), seed=st.integers(0, 2**32 - 1),
       t0=st.floats(-10.0, 10.0), dt=st.floats(1e-4, 1.0),
       exponent=st.floats(-8.0, 8.0))
def test_cumulative_simpson_matches_scipy_bit_for_bit(m, uniform, seed, t0, dt, exponent):
    rng = np.random.default_rng(seed)
    if uniform:
        x = t0 + dt * np.arange(m)       # the integrator's sample times
    else:
        x = t0 + np.cumsum(rng.uniform(1e-3, 1.0, m) * dt)
    _same_bits_as_scipy(rng.standard_normal(m) * 10.0 ** exponent, x)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cumulative_simpson_short_samples(m):
    x = np.array([0.0, 0.3, 0.7, 1.6])[:m]
    y = np.array([1.5, -0.25, 2.0, 0.125])[:m]
    _same_bits_as_scipy(y, x)
    if m == 2:   # the trapezoid rule
        assert np.array_equal(flows.cumulative_simpson(y, x), [0.0, 0.3 * 1.25 / 2.0])


@pytest.mark.parametrize("x", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0, 3.0]])
def test_cumulative_simpson_rejects_x_not_strictly_increasing(x):
    with pytest.raises(ValueError):
        flows.cumulative_simpson(np.ones(len(x)), x)


def test_integrate_one_step_integrals_match_scipy(example_scenario):
    traj = flows.integrate(example_scenario, PhaseState([0.1, 0.2], [np.cos(1.1), np.sin(1.1)]),
                           T=1e-3, dt=1e-3)
    assert len(traj.times) == 2
    speed = np.array([np.sqrt(v @ (example_scenario.point(q).g @ v))
                      for q, v in zip(traj.q, traj.v)])
    for got, y in ((traj.int_phi, traj.phi_v), (traj.arc_length, speed)):
        want = scipy_cumulative_simpson(y, x=traj.times, initial=0.0)
        assert got.tobytes() == want.tobytes()


# -- the integrator's loop: its finite check, its record and the shared base step --

class _HugePastX(VectorField):
    """E = 0 for x <= 0.5025 and (0, 1e200) beyond: on a straight unit-speed run
    along x from x = 0 at dt = 0.01, step 51's second stage point is the first past
    0.5025, and the state overflows within that step."""

    def value(self, q, metric):
        return np.array([0.0, 1e200 if q[0] > 0.5025 else 0.0])

    def jacobian(self, q, metric, E):
        return np.zeros((2, 2))


def test_integrate_raises_at_the_step_that_overflows(monkeypatch):
    # the check runs every step: the run stops at step 51 of 100
    steps = []
    rk4_step = flows.rk4_step
    monkeypatch.setattr(flows, "rk4_step", lambda *args: steps.append(1) or rk4_step(*args))
    sc = WeylScenario(FlatTorus((1.0, 1.0)), _HugePastX())
    with pytest.raises(NonFiniteStateError, match=r"at step 51$"), \
            np.errstate(over="ignore", invalid="ignore"):
        flows.integrate(sc, PhaseState([0.0, 0.1], [1.0, 0.0]), T=1.0, dt=0.01)
    assert len(steps) == 51


def _isoenergetic_spec(n):
    W = FourierField(n, [((1,) + (0,) * (n - 1), 0.2, 0.0)])
    return IsoenergeticSpec(potential=W, field=ConstantField([0.3] + [0.2] * (n - 1)), h=1.0)


@pytest.mark.parametrize("name", ["flat2_gradient", "conformal_gradient"])
@pytest.mark.parametrize("kind", ["isokinetic", "isoenergetic", "weyl_geodesic"])
def test_integrate_record_matches_each_sample_evaluated_alone(name, kind):
    # the record is formed after the loop over all samples at once; each sample's
    # entry is what its point record alone gives
    sc = presets.scenario_preset(name)
    q0, v0 = default_initial_state(sc)
    spec = None
    if kind == "isoenergetic":
        spec = _isoenergetic_spec(sc.dim)
        v0 = v0 * np.sqrt(2.0 * (spec.h - spec.potential.value(q0)))
    traj = flows.integrate(sc, PhaseState(q0, v0), T=0.2, dt=1e-3, kind=kind, spec=spec)
    speed, phi_v, w = (np.empty(len(traj.times)) for _ in range(3))
    for i, (q, v) in enumerate(zip(traj.q, traj.v)):
        pt = sc.point(q)
        E = spec.field.value(q, pt.jet) if spec else pt.E
        gv = pt.g @ v
        speed[i], phi_v[i] = np.sqrt(v @ gv), gv @ E
        w[i] = spec.potential.value(q) if spec else 0.0
    assert np.array_equal(traj.phi_v, phi_v)
    assert np.array_equal(traj.int_phi, flows.cumulative_simpson(phi_v, traj.times))
    assert np.array_equal(traj.arc_length, flows.cumulative_simpson(speed, traj.times))
    want = {"isokinetic": speed - 1.0,
            "isoenergetic": speed - np.sqrt(np.maximum(2.0 * (1.0 - w), 0.0)),
            "weyl_geodesic": speed - np.exp(-traj.int_phi)}[kind]
    assert np.array_equal(traj.speed_residual, want)
    if spec is None:
        assert not traj.energy_residual.any()
    else:
        # speed ** 2 squares exactly on the stack, where a single numpy float calls
        # pow, which can be 1 ulp off: the one operation whose bits may differ
        want = np.array([0.5 * s ** 2 + wi - spec.h for s, wi in zip(speed, w)])
        assert (np.abs(traj.energy_residual - want) <= np.spacing(speed * speed)).all()


@pytest.mark.parametrize("name", sorted(presets.GEOMETRY_PRESETS))
def test_integrate_and_the_frame_transport_share_the_base_step(name):
    # flows.integrate and the co-integration's pass 1 advance (q, v) by one isokinetic
    # step and one projection: over 1000 steps they give the same bits
    sc = presets.scenario_preset(name)
    q, v = default_initial_state(sc)
    for _ in range(10):      # a v that the co-integration's start normalization keeps
        if np.array_equal(v / sc.norm(q, v), v):
            break
        v = v / sc.norm(q, v)
    traj = flows.integrate(sc, PhaseState(q, v), T=1.0, dt=1e-3)
    run = tangent.transport_frame(sc, traj)
    assert len(traj.times) == 1001
    assert np.array_equal(run.q, traj.q)
    assert np.array_equal(run.v, traj.v)


@pytest.mark.parametrize("seed", range(4))
def test_rk4_step_in_place_sum_has_the_textbook_bits(seed):
    # on random stacked states, with an rhs that writes its result into reused rows
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((64, 6)) * 10.0 ** rng.integers(0, 3)
    dt = float(rng.uniform(0.01, 0.5))
    rows = itertools.cycle(np.empty((4,) + y.shape))

    def rhs(x):
        return np.multiply(np.sin(x), x[:, ::-1], out=next(rows))

    k1 = rhs(y)
    got = flows.rk4_step(rhs, y, dt, k1)
    k1 = np.sin(y) * y[:, ::-1]
    f = lambda x: np.sin(x) * x[:, ::-1]
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    assert np.array_equal(got, y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
