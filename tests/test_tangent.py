import numpy as np
import pytest
from conftest import conformal_torus3, default_initial_state, hyperbolic_times_flat

from weylflow import flows, presets, tangent
from weylflow import geometry as geo
from weylflow.errors import FrameCollapseError, NonFiniteStateError, WeylflowError
from weylflow.fields import ConstantField, VectorField
from weylflow.flows import PhaseState, involution
from weylflow.metrics import ConstantCurvatureChart, FlatTorus
from weylflow.scenario import (PointRecord, WeylScenario, constant_curvature_scenario,
                               flat_torus_scenario)
from weylflow.tangent import TangentVector


@pytest.fixture(scope="module")
def hyperbolic():
    return constant_curvature_scenario(-1.0, 2)


@pytest.fixture(scope="module")
def attractor_report():
    sc = flat_torus_scenario((1, 1), ConstantField([1.0, 0.0]))
    st = PhaseState([0.1, 0.3], [np.cos(2.0), np.sin(2.0)])
    return tangent.lyapunov_spectrum(sc, st, T=80.0, dt=2e-3, burn_in=20.0)


@pytest.fixture(scope="module")
def torus3_reports():
    a = 0.8
    sc = flat_torus_scenario((1, 1, 1), ConstantField([a, 0.0, 0.0]))
    fwd = tangent.lyapunov_spectrum(sc, PhaseState([0.1, 0.2, 0.3], [1.0, 0, 0]),
                                    T=40.0, dt=2e-3)
    rev = tangent.lyapunov_spectrum(sc, PhaseState([0.1, 0.2, 0.3], [-1.0, 0, 0]),
                                    T=40.0, dt=2e-3)
    return fwd, rev


@pytest.fixture(scope="module")
def hyperbolic_report(hyperbolic):
    return tangent.lyapunov_spectrum(hyperbolic, PhaseState([0.0, 0.0], [1.0, 0.0]),
                                     T=120.0, dt=5e-3)


def _transport_frame(sc, traj):
    """The frame-only run along traj: the co-integration with no tangent columns."""
    T = (len(traj.times) - 1) * traj.dt
    return tangent._co_integrate(sc, traj.state(0), T, traj.dt, tangent.CLEANUP_EVERY,
                                 M0=np.zeros((2 * (sc.dim - 1), 0)))


def test_transport_frame_flat_no_field_is_constant():
    sc = flat_torus_scenario((1, 1))
    traj = flows.integrate(sc, PhaseState([0.1, 0.2], [np.cos(0.6), np.sin(0.6)]),
                           T=3.0, dt=1e-3)
    run = _transport_frame(sc, traj)
    assert np.abs(run["frames"] - run["frames"][0]).max() < 1e-12
    assert np.abs(run["int_phi"]).max() < 1e-14


def test_transport_frame_orthonormal_and_dilation():
    # along the field line of Example 1.2 the raw transport contracts like e^{-a t}
    sc = flat_torus_scenario((1, 1), ConstantField([1.0, 0.0]))
    traj = flows.integrate(sc, PhaseState([0.0, 0.0], [1.0, 0.0]), T=4.0, dt=1e-3)
    run = _transport_frame(sc, traj)
    for i in range(0, len(run["times"]), 400):
        e = run["frames"][i]
        v = run["v"][i]
        assert abs(e[0] @ e[0] - 1.0) < 1e-8
        assert abs(e[0] @ v) < 1e-8
    assert np.abs(np.exp(-run["int_phi"]) - np.exp(-run["times"])).max() < 1e-8


def test_transport_frame_stays_orthonormal_generic():
    sc = presets.scenario_preset("conformal_gradient")
    rng = np.random.default_rng(0)
    q0 = sc.sample_point(rng)
    v0 = rng.standard_normal(2)
    v0 /= sc.norm(q0, v0)
    traj = flows.integrate(sc, PhaseState(q0, v0), T=4.0, dt=1e-3)
    run = _transport_frame(sc, traj)
    for i in range(0, len(run["times"]), 200):
        g = sc.metric(run["q"][i])
        e = run["frames"][i]
        gram = e @ g @ e.T
        assert np.abs(gram - np.eye(1)).max() < 1e-8
        assert abs(float(e[0] @ g @ run["v"][i])) < 1e-8


def test_transport_frame_stays_in_the_trajectory_chart(hyperbolic):
    # only the QR mode recentres the zero-field hyperbolic chart
    q0 = np.array([0.2, -0.1])
    v0 = np.array([np.cos(0.3), np.sin(0.3)])
    traj = flows.integrate(hyperbolic, PhaseState(q0, v0 / hyperbolic.norm(q0, v0)),
                           T=3.0, dt=1e-3)
    run = _transport_frame(hyperbolic, traj)
    assert np.abs(traj.q).max() > 1.5      # far from the start, near the chart's edge at 2
    assert np.abs(run["q"] - traj.q).max() < 1e-9


def _count_jacobi_stage_points(monkeypatch):
    """Patch tangent._jacobi to count the stage points it is given; returns the count."""
    points = [0]
    jacobi = tangent._jacobi

    def counting(sc, q, *args):
        points[0] += len(q)
        return jacobi(sc, q, *args)

    monkeypatch.setattr(tangent, "_jacobi", counting)
    return points


def test_transport_frame_builds_no_jacobi_matrix(monkeypatch):
    # a frame-only run has no tangent columns to read the Jacobi matrix
    points = _count_jacobi_stage_points(monkeypatch)
    sc = presets.scenario_preset("conformal_gradient")
    q0, v0 = default_initial_state(sc)
    traj = flows.integrate(sc, PhaseState(q0, v0), T=0.05, dt=1e-3)
    _transport_frame(sc, traj)
    assert points[0] == 0
    tangent.linearized_run(sc, PhaseState(q0, v0), TangentVector(0.0, np.ones(1), np.zeros(1)),
                           T=0.05, dt=1e-3)
    assert points[0] == 4 * 50 + 1


def test_gram_schmidt_rejects_a_frame_row_parallel_to_v():
    g = np.diag([1.0, 2.0, 0.5])
    v = np.array([0.3, -0.2, 0.9])
    frame = np.array([[1.0, 0.0, 0.0], -2.0 * v])
    with pytest.raises(FrameCollapseError):
        tangent._g_gram_schmidt(g, v, frame, 1e-6)
    good = tangent._g_gram_schmidt(g, v, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 1e-6)
    basis = np.vstack([v / np.sqrt(v @ g @ v), good])
    assert np.abs(basis @ g @ basis.T - np.eye(3)).max() < 1e-14


def _quotient_rhs(sc, q, v, xi, chi):
    """dxi0 = phi(e_a) xi_a, dxi = -phi(v) xi + chi and dchi = -R xi at (q, v), in
    the frame completing v, with R from geometry._jacobi."""
    frame = tangent.complete_frame(sc, q, v)
    Rmat = geo._jacobi(sc, q, sc.point(q), v, frame)[0]
    phi = sc.point(q).phi
    return float((frame @ phi) @ xi), -float(phi @ v) * xi + chi, -Rmat @ xi


def test_linearized_rhs_flat_free_jacobi():
    sc = flat_torus_scenario((1, 1))
    q, v = np.array([0.2, 0.4]), np.array([np.cos(0.8), np.sin(0.8)])
    dxi0, dxi, dchi = _quotient_rhs(sc, q, v, np.array([0.7]), np.array([-0.2]))
    assert dxi0 == pytest.approx(0.0, abs=1e-14)
    assert dxi[0] == pytest.approx(-0.2, abs=1e-14)
    assert dchi[0] == pytest.approx(0.0, abs=1e-14)


def test_linearized_rhs_constant_curvature(hyperbolic):
    q, v = np.zeros(2), np.array([1.0, 0.0])
    _, dxi, dchi = _quotient_rhs(hyperbolic, q, v, np.array([1.0]), np.array([0.0]))
    assert dxi[0] == pytest.approx(0.0, abs=1e-12)
    assert dchi[0] == pytest.approx(1.0, abs=1e-12)  # -R xi with R = K = -1


def test_linearized_rhs_attractor_constant_coefficients():
    # at v parallel to E the quotient system is [[-a, 1], [0, 0]]
    a = 1.0
    sc = flat_torus_scenario((1, 1), ConstantField([a, 0.0]))
    q, v = np.array([0.3, 0.6]), np.array([1.0, 0.0])
    for xi, chi in [(1.0, 0.0), (0.0, 1.0), (0.4, -0.3)]:
        _, dxi, dchi = _quotient_rhs(sc, q, v, np.array([xi]), np.array([chi]))
        assert dxi[0] == pytest.approx(-a * xi + chi, abs=1e-12)
        assert dchi[0] == pytest.approx(0.0, abs=1e-12)


def test_linearized_run_matches_closed_form_jacobi(hyperbolic):
    tv = TangentVector(0.0, np.array([1.0]), np.array([-1.0]))
    run = tangent.linearized_run(hyperbolic, PhaseState([0.0, 0.0], [1.0, 0.0]),
                                 tv, T=5.0, dt=1e-3)
    assert np.abs(run.xi[:, 0] - np.exp(-run.times)).max() < 1e-8
    assert np.abs(run.chi[:, 0] + np.exp(-run.times)).max() < 1e-8


def test_jform_derivative_identity_closed_form(hyperbolic):
    # stable Jacobi solution: J = -e^{-2t}, dJ/dt = chi^2 - K xi^2 = 2 e^{-2t}
    tv = TangentVector(0.0, np.array([1.0]), np.array([-1.0]))
    run = tangent.linearized_run(hyperbolic, PhaseState([0.0, 0.0], [1.0, 0.0]),
                                 tv, T=5.0, dt=1e-3)
    chk = tangent.jform_derivative_check(run)
    assert chk.max_residual < 1e-8 * chk.scale + 1e-10


def test_jform_separation_probe(hyperbolic):
    # mixed solution crosses J = 0; the right side must be positive there
    tv = TangentVector(0.0, np.array([1.0]), np.array([-0.9]))
    run = tangent.linearized_run(hyperbolic, PhaseState([0.0, 0.0], [1.0, 0.0]),
                                 tv, T=8.0, dt=1e-3)
    chk = tangent.jform_derivative_check(run)
    assert len(chk.crossings) >= 1
    assert all(rhs > 0 for _, rhs in chk.crossings)


def test_lyapunov_flat_torus_integrable():
    sc = flat_torus_scenario((1, 1))
    rep = tangent.lyapunov_spectrum(sc, PhaseState([0.1, 0.2], [np.cos(0.7), np.sin(0.7)]),
                                    T=50.0, dt=2e-3)
    assert np.abs(rep.exponents).max() < 0.01


def test_lyapunov_hyperbolic_geodesic(hyperbolic_report):
    rep = hyperbolic_report
    assert np.abs(rep.exponents - np.array([1.0, -1.0])).max() < 0.03
    assert rep.finite_time
    assert rep.mean_jsep_margin > 0.5


def test_lyapunov_attractor_exponents(attractor_report):
    rep = attractor_report
    assert np.abs(rep.exponents - np.array([0.0, -1.0])).max() < 0.02
    assert rep.sbar == pytest.approx(-1.0, abs=1e-6)


def test_trace_identity_on_runs(attractor_report, torus3_reports):
    for rep in (attractor_report, *torus3_reports):
        assert rep.trace_residual < 0.02


def test_lyapunov_exponent_stability_under_T_doubling(torus3_reports):
    a = 0.8
    sc = flat_torus_scenario((1, 1, 1), ConstantField([a, 0.0, 0.0]))
    st = PhaseState([0.1, 0.2, 0.3], [1.0, 0, 0])
    r1 = tangent.lyapunov_spectrum(sc, st, T=20.0, dt=2e-3)
    assert np.abs(r1.exponents - torus3_reports[0].exponents).max() < 0.01


def test_time_reversal_negates_spectrum(torus3_reports):
    fwd, rev = torus3_reports
    assert np.abs(rev.exponents - (-fwd.exponents[::-1])).max() < 0.02


def test_pairing_check_torus3(torus3_reports):
    fwd, _ = torus3_reports
    assert fwd.pairing_residual < 0.02
    exps = fwd.exponents
    assert abs((exps[0] + exps[3]) - (exps[1] + exps[2])) < 0.02


def test_pairing_two_dimensional_is_trace_identity(attractor_report):
    rep = attractor_report
    assert rep.pairing_residual == pytest.approx(rep.trace_residual, abs=1e-12)


def test_pairing_chart_with_small_potential():
    sc = presets.scenario_preset("hyperbolic_potential")
    rep = tangent.lyapunov_spectrum(sc, PhaseState([0.05, -0.1], [1.0, 0.0]),
                                    T=20.0, dt=2e-3)
    assert rep.pairing_residual < 0.02


def test_splitting_volume_rates(hyperbolic_report, attractor_report):
    rep = hyperbolic_report
    growth, decay = rep.volume_growth, rep.volume_decay
    assert growth == pytest.approx(1.0, abs=0.03)
    assert decay == pytest.approx(-1.0, abs=0.03)
    # on the Example 1.2 attractor the rates are (0, -a): not sign-definite
    g2, d2 = attractor_report.volume_growth, attractor_report.volume_decay
    assert abs(g2) < 0.02
    assert d2 == pytest.approx(-1.0, abs=0.02)


def test_corollary_sign_check_negative_curvature_runs():
    # everywhere-negative sampled curvature forces lambda_max > 0 > lambda_min
    sc = presets.scenario_preset("hyperbolic_potential")
    rep = tangent.lyapunov_spectrum(sc, PhaseState([0.1, 0.05], [0.0, 1.0]),
                                    T=20.0, dt=2e-3)
    assert rep.exponents[0] > 0
    assert rep.exponents[-1] < 0
    growth, decay = rep.volume_growth, rep.volume_decay
    assert growth > 0 > decay


@pytest.mark.parametrize("name", sorted(presets.GEOMETRY_PRESETS))
def test_kernel_jacobi_matrix_matches_public_operator(name):
    # the point records of five stage points, stacked and fed to the Jacobi formula
    # in one call as pass 2 does, against the formula at each point alone
    sc = presets.scenario_preset(name)
    rng = np.random.default_rng(41)
    qs, vs, frames, records = [], [], [], []
    for _ in range(5):
        q = sc.sample_point(rng)
        v = rng.standard_normal(sc.dim)
        v = v / sc.norm(q, v)
        frame = tangent.complete_frame(sc, q, v)
        records.append([a.copy() for a in sc.point(q)])
        qs.append(q), vs.append(v), frames.append(frame)
    pts = PointRecord(*(np.stack(rows) for rows in zip(*records)))
    got, phi_e = geo._jacobi(sc, np.stack(qs), pts, np.stack(vs), np.stack(frames))
    for s, (q, v, frame) in enumerate(zip(qs, vs, frames)):
        want = geo._jacobi(sc, q, sc.point(q), v, frame)[0]
        assert np.abs(got[s] - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)
        ge = frame if sc.metric_family.is_flat else frame @ sc.metric(q)
        assert np.array_equal(phi_e[s], ge @ sc.field(q))


@pytest.mark.parametrize("name", ["hyperbolic_potential", "sol_scan"])
def test_jsep_margins_match_the_post_qr_states(name):
    # every QR event, the last step's included, reads its margin at the state it left
    sc = presets.scenario_preset(name)
    st = PhaseState(*default_initial_state(sc, seed=3))
    T, dt, every = 1.0, 5e-3, 10
    run = tangent._co_integrate(sc, st, T=T, dt=dt, renorm_every=every,
                                M0=np.eye(2 * (sc.dim - 1)), qr=True, burn_in=0.1)
    jsep = np.array(run["windows"]["jsep"])
    events = np.arange(run["burn_steps"] + every, flows.step_count(T, dt) + 1, every)
    assert len(jsep) == len(events) == len(run["windows"]["t"])
    nm1 = sc.dim - 1
    for i, got in zip(events, jsep):
        q = run["q"][i]
        Rmat = geo._jacobi(sc, q, sc.point(q), run["v"][i], run["frames"][i])[0]
        xi, chi = run["M"][i][:nm1, 0], run["M"][i][nm1:, 0]
        want = (chi @ chi - xi @ Rmat @ xi) / (xi @ xi + chi @ chi)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_lyapunov_run_makes_four_kernel_calls_per_step(monkeypatch):
    # 4 n + 1 stage points, each given one base step in pass 1 and one Jacobi
    # matrix in pass 2; a QR event adds none.  T spans two blocks plus a remainder
    calls = []
    accel = tangent.isokinetic_accel
    monkeypatch.setattr(tangent, "isokinetic_accel",
                        lambda *args: calls.append(1) or accel(*args))
    points = _count_jacobi_stage_points(monkeypatch)
    sc = presets.scenario_preset("hyperbolic_potential")
    dt = 5e-3
    T = (2 * tangent.BLOCK + 3) * dt
    tangent.lyapunov_spectrum(sc, PhaseState(*default_initial_state(sc)), T=T, dt=dt)
    assert len(calls) == points[0] == 4 * flows.step_count(T, dt) + 1


def test_lyapunov_rejects_a_burn_in_that_rounds_up_to_T():
    # 5 steps of burn-in round up to the QR event at step 10, the last step
    sc = presets.scenario_preset("example_1_2")
    st = PhaseState(*default_initial_state(sc))
    with pytest.raises(WeylflowError, match="burn_in"):
        tangent.lyapunov_spectrum(sc, st, T=0.1, dt=0.01, renorm_every=10, burn_in=0.05)
    rep = tangent.lyapunov_spectrum(sc, st, T=0.1, dt=0.01, renorm_every=5, burn_in=0.05)
    assert np.isfinite(rep.exponents).all()


# ---------------------------------------------------------------------------
# the two-pass co-integration against a one-pass oracle
# ---------------------------------------------------------------------------

def _one_pass_co_integrate(scenario, initial, T, dt, renorm_every, M0, qr=False, burn_in=0.0):
    """RK4 on the packed state [q, v, frame, M, xi0, int_phi], one transport and one
    Jacobi matrix per stage: the co-integration as a single pass, kept as the
    two-pass oracle."""
    n = scenario.dim
    nm1 = n - 1
    k = M0.shape[1]
    fam = scenario.metric_family
    flat = fam.is_flat
    recenter = (qr and isinstance(fam, ConstantCurvatureChart) and fam.K < 0
                and fam.dim == 2 and scenario.field_is_zero)
    n_steps = flows.step_count(T, dt)
    burn_steps = tangent.burn_steps(burn_in, dt, renorm_every)
    m = n_steps + 1
    o_e = 2 * n
    o_M = o_e + nm1 * n
    o_x = o_M + 2 * nm1 * k
    o_p = o_x + (0 if qr else k)

    def split(y):
        return (y[:n], y[n:o_e], y[o_e:o_M].reshape(nm1, n), y[o_M:o_x].reshape(2 * nm1, k))

    def transport(q, v, frame):
        # pass 1's stage function: the point record, the base step and the normalized
        # Weyl transport de = -Gamma(v,e) - phi(e) v + <v,e> E
        pt = scenario.point(q)
        ge = frame if flat else frame.dot(pt.g)
        dv, phi_v, gv = flows.isokinetic_accel(pt, v, flat)
        de = ge.dot(v)[:, None] * pt.E - ge.dot(pt.E)[:, None] * v
        if not flat:
            de -= frame.dot(gv.T)
        return phi_v, dv, de, pt

    def deriv(y):
        q, v, frame, M = split(y)
        phi_v, dv, de, pt = transport(q, v, frame)
        Rmat, phi_e = geo._jacobi(scenario, q, pt, v, frame)
        Mxi = M[:nm1]
        dM = np.concatenate((-phi_v * Mxi + M[nm1:], -Rmat @ Mxi))
        dx = [] if qr else [phi_e @ Mxi]
        return np.concatenate([v, dv, de.ravel(), dM.ravel(), *dx, [phi_v]]), Rmat

    def jsep(M, Rmat):
        xi, chi = M[:nm1, 0], M[nm1:, 0]
        return float(chi @ chi - xi @ (Rmat @ xi)) / float(xi @ xi + chi @ chi)

    q = np.array(initial.q, dtype=float)
    v = np.array(initial.v, dtype=float)
    v = v / scenario.norm(q, v)
    y = np.concatenate((q, v, tangent.complete_frame(scenario, q, v).ravel(), M0.ravel(),
                        np.zeros(o_p - o_x), [0.0]))
    hist = np.empty((m, o_p + 1))
    out = {"q": hist[:, :n], "v": hist[:, n:o_e], "frames": hist[:, o_e:o_M].reshape(m, nm1, n),
           "M": hist[:, o_M:o_x].reshape(m, 2 * nm1, k), "int_phi": hist[:, o_p]}
    lsum = np.zeros(k)
    windows = {"t": [], "lam": [], "sbar": [], "jsep": []}
    if qr:
        out.update(lsum=lsum, windows=windows)
    else:
        out.update(xi0=hist[:, o_x:o_p], phi_v=np.empty(m), curv_quad=np.empty((m, k)))
    margin_due = False
    for i in range(n_steps + 1):
        k1, Rmat = deriv(y)
        hist[i] = y
        if margin_due:
            windows["jsep"].append(jsep(split(y)[3], Rmat))
            margin_due = False
        if not qr:
            out["phi_v"][i] = k1[-1]
            Mxi = split(y)[3][:nm1]
            out["curv_quad"][i] = np.einsum("ab,aj,bj->j", Rmat, Mxi, Mxi)
        if i == n_steps:
            break
        y = flows.rk4_step(lambda z: deriv(z)[0], y, dt, k1)
        q, v, frame, M = split(y)
        g = np.eye(n) if flat else scenario.metric(q)
        v /= np.linalg.norm(v) if flat else np.sqrt(v @ g @ v)
        step_no = i + 1
        if step_no % renorm_every == 0:
            frame[:] = tangent._g_gram_schmidt(g, v, frame, 1e-6)
            if recenter:
                move, push = fam.recenter_map(q)
                v[:] = push(q, v)
                frame[:] = np.array([push(q, e) for e in frame])
                q[:] = move(q)
            if qr:
                Q, R = np.linalg.qr(M)
                diag = np.diag(R)
                M[:] = Q * np.where(diag >= 0, 1.0, -1.0)
                if step_no > burn_steps:
                    lsum += np.log(np.abs(diag))
                    windows["t"].append(initial.t + step_no * dt)
                    windows["lam"].append(lsum / ((step_no - burn_steps) * dt))
                    windows["sbar"].append(-float(y[-1]) / (step_no * dt))
                    margin_due = True
    return out


def _close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.abs(got - want).max() <= rel * np.abs(want).max()


# every preset, and two scenarios whose Levi-Civita curvature is assembled from the
# Christoffels (no preset has that route)
ORACLE_SCENARIOS = {**{name: lambda name=name: presets.scenario_preset(name)
                       for name in presets.GEOMETRY_PRESETS},
                    "hyperbolic_times_flat": hyperbolic_times_flat,
                    "conformal_torus3": conformal_torus3}


@pytest.mark.parametrize("mode", ["qr", "raw"])
@pytest.mark.parametrize("name", sorted(ORACLE_SCENARIOS))
def test_two_passes_match_the_one_pass_oracle(name, mode):
    # three full blocks and a remainder; QR events every 7 steps straddle the block ends,
    # a burn-in of 25 steps rounds up to 28, and hyperbolic_geodesic recentres in qr mode
    sc = ORACLE_SCENARIOS[name]()
    st = PhaseState(*default_initial_state(sc, seed=5))
    nm1 = sc.dim - 1
    dt = 2e-3
    T = (3 * tangent.BLOCK + 11) * dt
    if mode == "qr":
        kw = dict(renorm_every=7, M0=np.eye(2 * nm1), qr=True, burn_in=25 * dt)
    else:
        kw = dict(renorm_every=10, M0=np.random.default_rng(1).standard_normal((2 * nm1, 2)))
    got = tangent._co_integrate(sc, st, T, dt, **kw)
    want = _one_pass_co_integrate(sc, st, T, dt, **kw)
    for key in ("q", "v", "int_phi"):
        assert np.array_equal(got[key], want[key]), key
    # a propagator product sums in another order than the stage sum
    assert _close(got["frames"], want["frames"], rel=1e-14)
    assert _close(got["M"], want["M"])
    if mode == "qr":
        assert _close(got["lsum"], want["lsum"])
        assert _close(got["windows"]["lam"], want["windows"]["lam"])
        # a dimensionless margin, which is pure roundoff where the frame does not turn
        jsep, want_jsep = np.array(got["windows"]["jsep"]), np.array(want["windows"]["jsep"])
        assert (jsep.shape == want_jsep.shape and np.abs(jsep - want_jsep).max()
                <= 1e-12 * max(np.abs(want_jsep).max(), 1.0))
        for key in ("t", "sbar"):
            assert got["windows"][key] == want["windows"][key], key
    else:
        assert np.array_equal(got["phi_v"], want["phi_v"])
        for key in ("xi0", "curv_quad"):
            assert _close(got[key], want[key]), key


def test_propagator_is_the_rk4_step_of_the_linear_system():
    rng = np.random.default_rng(12)
    dt = 0.05
    for d in (2, 5, 7):
        A = rng.standard_normal((8, d, d))       # two steps' stage matrices
        P, maps = tangent._propagators(A, dt)
        for j in range(2):
            stage = iter(A[4 * j:4 * j + 4])
            args = []     # y + dt/2 k1, y + dt/2 k2 and y + dt k3, as rk4_step forms them
            rhs = lambda y: args.append(y) or next(stage) @ y
            y0 = rng.standard_normal((d, 3))
            want = flows.rk4_step(rhs, y0, dt, rhs(y0))
            assert np.abs(P[j] @ y0 - want).max() <= 1e-14 * np.abs(want).max()
            assert len(args) == 4 and maps.shape == (2, 3, d, d)
            for got, arg in zip(maps[j] @ y0, args[1:]):
                assert np.abs(got - arg).max() <= 1e-14 * np.abs(arg).max()


@pytest.mark.parametrize("name", sorted(presets.GEOMETRY_PRESETS))
def test_the_base_and_the_frame_do_not_depend_on_the_columns(name):
    # q, v, int phi and the frames carry the same bits whatever the number of columns
    sc = presets.scenario_preset(name)
    st = PhaseState(*default_initial_state(sc, seed=2))
    nm1 = sc.dim - 1
    M0 = np.random.default_rng(3).standard_normal((2 * nm1, 2))
    T, dt = (tangent.BLOCK + 13) * 2e-3, 2e-3
    runs = [tangent._co_integrate(sc, st, T, dt, renorm_every=10, M0=M0[:, :k])
            for k in (0, 1, 2)]
    for run in runs[1:]:
        for key in ("q", "v", "int_phi", "frames"):
            assert np.array_equal(run[key], runs[0][key]), key


@pytest.mark.parametrize("columns", [0, 2])
def test_a_coarse_step_trips_the_frame_drift_gate(columns):
    # at dt |E| = 5 the RK4 step of the frame leaves the unit circle, and the frame
    # drifts far from g-orthonormal before its first cleanup; a fine step does not
    sc = flat_torus_scenario((1, 1), ConstantField([10.0, 0.0]))
    st = PhaseState([0.1, 0.2], [0.0, 1.0])
    M0 = np.eye(2)[:, :columns]
    with pytest.raises(FrameCollapseError, match="drifted"):
        tangent._co_integrate(sc, st, T=10.0, dt=0.5, renorm_every=10, M0=M0)
    run = tangent._co_integrate(sc, st, T=1.0, dt=0.01, renorm_every=10, M0=M0)
    assert np.abs(np.einsum("mai,mbi->mab", run["frames"], run["frames"]) - 1.0).max() < 1e-5


class _NanPastX(VectorField):
    """E = (1, 0) for x < 0.3 and NaN beyond: a field that blows the base flow up."""

    def value(self, q, metric):
        return np.array([1.0 if q[0] < 0.3 else np.nan, 0.0])

    def jacobian(self, q, metric, E):
        return np.zeros((2, 2))


@pytest.mark.parametrize("columns", [0, 2])
def test_a_non_finite_base_raises_non_finite_state(columns):
    sc = WeylScenario(FlatTorus((1.0, 1.0)), _NanPastX())
    with pytest.raises(NonFiniteStateError):
        tangent._co_integrate(sc, PhaseState([0.0, 0.1], [1.0, 0.0]), T=0.5, dt=1e-3,
                              renorm_every=10, M0=np.eye(2)[:, :columns])
