"""Built-in acceptance suite: one callable per criterion, shared by pytest and
the command-line ``verify`` task.

Each criterion returns a CriterionResult with the measured numbers and the
tolerance it was held to.  ``run_all`` executes the full suite twice and
compares the serialized results byte-for-byte (the determinism half of the
final criterion)."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import billiards as bl
from . import flows, geometry, presets, tangent
from .fields import ConstantField, FourierField, GradientField, HalfLogField
from .flows import IsoenergeticSpec, PhaseState, involution
from .metrics import ConformalTorus, FlatTorus
from .scenario import WeylScenario
from .tangent import TangentVector


@dataclass
class CriterionResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    measured: dict = field(default_factory=dict)

    def as_row(self):
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            **{f"measured.{k}": v for k, v in sorted(self.measured.items())},
        }


def _angle_to(v, direction):
    c = float(v @ direction) / (np.linalg.norm(v) * np.linalg.norm(direction))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def criterion_1(ctx):
    """Closed-form thermostat curve x = -ln cos y on the flat 2-torus."""
    sc = presets.example_1_2()
    errs = []
    for v0 in ([0.0, 1.0], [0.0, -1.0]):
        traj = flows.integrate(sc, PhaseState([0.0, 0.0], v0), T=2.0, dt=1e-3)
        mask = np.abs(traj.q[:, 1]) <= 1.2
        errs.append(np.abs(traj.q[mask, 0] + np.log(np.cos(traj.q[mask, 1]))).max())
    err = float(max(errs))
    return CriterionResult(1, "example_curve_closed_form", err < 1e-6,
                           f"max |x + ln cos y| = {err:.3e} < 1e-6 for |y| <= 1.2",
                           {"max_error": err})


def criterion_2(ctx):
    """Velocity alignment with E forward in time, with -E backward."""
    sc = presets.example_1_2()
    E_hat = np.array([1.0, 0.0])
    st0 = PhaseState([0.21, 0.66], [np.cos(2.2), np.sin(2.2)])
    fwd = flows.integrate(sc, st0, T=200.0, dt=5e-3)
    ang_fwd = _angle_to(fwd.v[-1], E_hat)
    # time-reversed run: I-conjugate, flow forward, I-conjugate back
    rev = flows.integrate(sc, involution(st0), T=200.0, dt=5e-3)
    ang_rev = _angle_to(-rev.v[-1], -E_hat)
    ok = ang_fwd < 1e-4 and ang_rev < 1e-4
    return CriterionResult(2, "attractor_repellor_alignment", ok,
                           f"angle(v,E) = {ang_fwd:.2e}, reversed angle(v,-E) = {ang_rev:.2e} < 1e-4",
                           {"angle_forward": ang_fwd, "angle_reversed": ang_rev})


CONSISTENCY_PRESETS = (
    "example_1_2", "torus3_constant", "hyperbolic_geodesic",
    "hyperbolic_potential", "sol_scan", "flat2_gradient",
    "conformal_gradient", "product_mixed",
)


def criterion_3(ctx):
    """Both curvature routes agree; Weyl compatibility residual is small."""
    worst_route = 0.0
    worst_compat = 0.0
    for k, name in enumerate(CONSISTENCY_PRESETS):
        sc = presets.scenario_preset(name)
        rng = np.random.default_rng(np.random.Philox(100 + k))
        for _ in range(100):
            q = sc.sample_point(rng)
            X, Y = geometry.sample_plane(sc, q, rng)
            s = geometry.sectional_weyl(sc, q, X, Y)
            worst_route = max(worst_route, s.route_discrepancy)
        for _ in range(100):
            q = sc.sample_point(rng)
            X = rng.standard_normal(sc.dim)
            worst_compat = max(worst_compat, geometry.compatibility_residual(sc, q, X))
    ok = worst_route < 1e-6 and worst_compat < 1e-8
    return CriterionResult(3, "curvature_route_consistency", ok,
                           f"route gap {worst_route:.3e} < 1e-6, compatibility {worst_compat:.3e} < 1e-8",
                           {"route_gap": worst_route, "compatibility": worst_compat})


def criterion_4(ctx):
    """Flat 3-torus with constant E: zero curvature exactly on E-planes,
    negative elsewhere."""
    sc = presets.torus3_constant()
    rng = np.random.default_rng(np.random.Philox(4))
    worst_eplane = 0.0
    for _ in range(100):
        q = sc.sample_point(rng)
        E = sc.field(q)
        X, Y = geometry.gram_schmidt_plane(sc, q, E, rng.standard_normal(3))
        worst_eplane = max(worst_eplane, abs(geometry.sectional_weyl(sc, q, X, Y).Khat))
    census = geometry.curvature_sign_scan(sc, n_points=100, n_planes=100, seed=4)
    khat = census.samples.Khat
    others_negative = bool((khat[np.abs(khat) > 1e-9] < 0).all())
    ok = (worst_eplane < 1e-9 and census.count_positive == 0 and others_negative)
    return CriterionResult(4, "torus_curvature_signs", ok,
                           f"|Khat| on E-planes {worst_eplane:.2e} < 1e-9; census +{census.count_positive}"
                           f" 0:{census.count_zero} -{census.count_negative} over 10^4",
                           {"eplane_max": worst_eplane,
                            "count_positive": census.count_positive,
                            "count_negative": census.count_negative,
                            "min": census.min, "max": census.max})


def criterion_5(ctx):
    """Finite-time geodesic-flow exponents on the curvature -1 chart."""
    sc = presets.hyperbolic_geodesic()
    rep = tangent.lyapunov_spectrum(sc, PhaseState([0.0, 0.0], [1.0, 0.0]),
                                    T=200.0, dt=5e-3)
    ctx.setdefault("lyapunov_reports", []).append(("hyperbolic_geodesic", rep))
    err = float(np.abs(rep.exponents - np.array([1.0, -1.0])).max())
    return CriterionResult(5, "hyperbolic_geodesic_exponents", err < 0.02,
                           f"exponents {np.round(rep.exponents, 4).tolist()} within 0.02 of [1, -1]",
                           {"exponents": rep.exponents.tolist(), "max_error": err})


def criterion_6(ctx):
    """Trace identity on every Lyapunov run; pair sums on the 3-torus attractor."""
    sc3 = presets.torus3_closed_form()
    rep3 = tangent.lyapunov_spectrum(sc3, PhaseState([0.1, 0.2, 0.3], [1.0, 0.0, 0.0]),
                                     T=60.0, dt=2e-3)
    ctx.setdefault("lyapunov_reports", []).append(("torus3_attractor", rep3))
    sc12 = presets.example_1_2()
    rep12 = tangent.lyapunov_spectrum(sc12, PhaseState([0.1, 0.3], [np.cos(2.0), np.sin(2.0)]),
                                      T=80.0, dt=2e-3, burn_in=20.0)
    ctx["lyapunov_reports"].append(("example_1_2_attractor", rep12))
    hp = presets.hyperbolic_potential()
    rep_hp = tangent.lyapunov_spectrum(hp, PhaseState([0.05, -0.1], [1.0, 0.0]),
                                       T=20.0, dt=2e-3)
    ctx["lyapunov_reports"].append(("hyperbolic_potential", rep_hp))

    trace_worst = max(rep.trace_residual for _, rep in ctx["lyapunov_reports"])
    exps = rep3.exponents
    pair_sums = np.array([exps[0] + exps[3], exps[1] + exps[2]])
    pair_gap = float(abs(pair_sums[0] - pair_sums[1]))
    sbar_gap = float(np.abs(pair_sums - rep3.sbar).max())
    ok = trace_worst < 0.02 and pair_gap < 0.02 and sbar_gap < 0.02
    return CriterionResult(6, "exponent_pairing", ok,
                           f"trace identity {trace_worst:.3e} < 0.02 on {len(ctx['lyapunov_reports'])} runs;"
                           f" pair sums {np.round(pair_sums, 5).tolist()} agree to {pair_gap:.2e}"
                           f" and match sbar to {sbar_gap:.2e}",
                           {"trace_worst": trace_worst, "pair_gap": pair_gap,
                            "sbar_gap": sbar_gap, "pair_sums": pair_sums.tolist()})


def criterion_7(ctx):
    """Isoenergetic flow = arc-length-reparametrized W-flow of the reduced field;
    Maupertuis geodesics in the zero-field case."""
    sc = WeylScenario(FlatTorus((1.0, 1.0)), None, name="flat2")
    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    E = ConstantField([0.3, 0.2])
    spec = IsoenergeticSpec(potential=W, field=E, h=1.0)
    q0 = np.array([0.15, 0.4])
    v_dir = np.array([np.cos(0.9), np.sin(0.9)])
    speed0 = np.sqrt(2.0 * (spec.h - W.value(q0)))
    iso = flows.integrate(sc, PhaseState(q0, speed0 * v_dir), T=8.5, dt=1e-3,
                          kind="isoenergetic", spec=spec)
    s_grid = np.arange(0.0, 10.0 + 1e-9, 1e-2)
    q_iso = flows.reparametrize_by_arclength(iso, s_grid)

    e_tilde = flows.reduce_to_wflow(sc, spec)
    sc_w = WeylScenario(sc.metric_family, e_tilde, name="reduced")
    wflow = flows.integrate(sc_w, PhaseState(q0, v_dir), T=10.0, dt=1e-3)
    q_w = flows.reparametrize_by_arclength(wflow, s_grid)
    err_reduction = float(np.abs(q_iso - q_w).max())

    # Maupertuis case: E = 0, compare against geodesics of (h - W) g
    spec0 = IsoenergeticSpec(potential=W, field=ConstantField([0.0, 0.0]), h=1.0)
    e0 = flows.reduce_to_wflow(sc, spec0)
    sc_w0 = WeylScenario(sc.metric_family, e0, name="maupertuis_reduced")
    w0 = flows.integrate(sc_w0, PhaseState(q0, v_dir), T=10.0, dt=1e-3)
    q_w0 = flows.reparametrize_by_arclength(w0, s_grid)

    fam_m = ConformalTorus(HalfLogField(spec0.h, W))
    sc_m = WeylScenario(fam_m, None, name="maupertuis_metric")
    v_m = v_dir / sc_m.norm(q0, v_dir)
    geo = flows.integrate(sc_m, PhaseState(q0, v_m), T=12.0, dt=1e-3)
    # reparametrize the geodesic by FLAT arc length for a pointwise comparison
    from scipy.interpolate import CubicSpline
    s_flat = flows.cumulative_simpson(np.linalg.norm(geo.v, axis=1), geo.times)
    q_m = CubicSpline(s_flat, geo.q, axis=0)(s_grid)
    err_maupertuis = float(np.abs(q_w0 - q_m).max())

    ok = err_reduction < 1e-6 and err_maupertuis < 1e-6
    return CriterionResult(7, "isoenergetic_reduction", ok,
                           f"reduction gap {err_reduction:.3e}, Maupertuis gap {err_maupertuis:.3e} < 1e-6"
                           " over arc length 10",
                           {"reduction_gap": err_reduction, "maupertuis_gap": err_maupertuis})


def criterion_8(ctx):
    """Transformed-coordinate hamiltonian: conserved H and Hamilton residual."""
    U = FourierField(2, [((1, 0), 0.3, 0.0)])
    sc = WeylScenario(FlatTorus((1.0, 1.0)), GradientField(U), name="dm")
    traj = flows.integrate(sc, PhaseState([0.15, 0.3], [np.cos(1.1), np.sin(1.1)]),
                           T=50.0, dt=1e-3)
    rec = flows.dettmann_morriss(traj, U)
    ok = rec.H_drift < 1e-8 and rec.hamilton_residual < 1e-5
    return CriterionResult(8, "transformed_hamiltonian", ok,
                           f"H drift {rec.H_drift:.3e} < 1e-8, Hamilton residual "
                           f"{rec.hamilton_residual:.3e} < 1e-5 over T = 50",
                           {"H_drift": rec.H_drift, "hamilton_residual": rec.hamilton_residual})


J_RUNS = (
    ("example_1_2", 0),
    ("flat2_gradient", 1),
    ("torus3_constant", 2),
    ("hyperbolic_geodesic", 3),
    ("hyperbolic_geodesic", 4),
    ("hyperbolic_potential", 5),
    ("hyperbolic_potential", 6),
    ("sol_scan", 7),
    ("conformal_gradient", 8),
    ("flat2_gradient", 9),
)


def criterion_9(ctx):
    """d/dt of the J-form matches its closed form; positivity at J = 0 on
    negative-curvature runs."""
    worst_rel = 0.0
    crossing_fail = 0
    crossing_count = 0
    for name, seed in J_RUNS:
        sc = presets.scenario_preset(name)
        rng = np.random.default_rng(np.random.Philox(900 + seed))
        q0 = sc.sample_point(rng)
        v0 = rng.standard_normal(sc.dim)
        v0 = v0 / sc.norm(q0, v0)
        nm1 = sc.dim - 1
        tv = TangentVector(0.0, rng.standard_normal(nm1), rng.standard_normal(nm1))
        run = tangent.linearized_run(sc, PhaseState(q0, v0), tv, T=8.0, dt=2e-3)
        chk = tangent.jform_derivative_check(run)
        worst_rel = max(worst_rel, chk.max_residual / chk.scale)
        if name in ("hyperbolic_geodesic", "hyperbolic_potential"):
            for _, rhs_val in chk.crossings:
                crossing_count += 1
                if rhs_val <= 0:
                    crossing_fail += 1
    ok = worst_rel < 1e-5 and crossing_fail == 0 and crossing_count > 0
    return CriterionResult(9, "jform_identity", ok,
                           f"max residual {worst_rel:.3e} of scale < 1e-5 over {len(J_RUNS)} runs; "
                           f"dJ/dt > 0 at all {crossing_count} J=0 events on negative-curvature runs",
                           {"worst_relative_residual": worst_rel,
                            "crossings": crossing_count, "crossing_failures": crossing_fail})


def criterion_10(ctx):
    """Billiard block: convexity margin, flight oracle, positive exponent,
    exponential straightening."""
    table = presets.sinai_thermostat(re_product=0.2)
    conv = bl.weyl_convexity(table)
    margin_exact = (conv.margin == 1.0 / presets.SINAI_RADII[0] - table.a)

    # closed-form flights against a dense batched RK4 oracle
    rng = np.random.default_rng(np.random.Philox(10))
    n_fl = 100
    starts = [(bl.draw_q(table, rng), bl.draw_v(rng)) for _ in range(n_fl)]
    qs, vs = (np.array(x) for x in zip(*starts))
    T_oracle = 0.3
    dt = 1e-6
    E = table.field

    def rhs(y):
        v = y[:, 2:]
        ev = v @ E
        return np.concatenate((v, E[None, :] - ev[:, None] * v), axis=1)

    y = np.hstack((qs, vs))
    for _ in range(flows.step_count(T_oracle, dt)):
        y = flows.rk4_step(rhs, y, dt, rhs(y))
    q_b = y[:, :2]
    worst_flight = 0.0
    for i in range(n_fl):
        fl = bl.ThermostatFlight(table.to_aligned(qs[i]), table.to_aligned(vs[i]), table.a)
        p = table.from_aligned(fl.pos(np.array([T_oracle]))[0])
        worst_flight = max(worst_flight, float(np.abs(p - q_b[i]).max()))

    run = bl.run_billiard(table, np.array([0.7, 0.25]),
                          np.array([np.cos(0.6), np.sin(0.6)]),
                          10_000)

    ys = np.linspace(-1.0, 1.0, 201)
    curve = np.stack([-np.log(np.cos(ys)), ys], axis=-1)
    exp_resid = bl.exp_map_check(curve, 1.0)

    ok = (margin_exact and worst_flight < 1e-8 and run.lambda1 > 0
          and exp_resid < 1e-9 and table.horizon_finite)
    return CriterionResult(10, "billiard_convexity_and_flights", ok,
                           f"margin exact ({conv.margin:.6f}); flight oracle {worst_flight:.2e} < 1e-8;"
                           f" lambda1 = {run.lambda1:.3f} > 0 over 10^4 collisions;"
                           f" straightening residual {exp_resid:.2e} < 1e-9",
                           {"margin": conv.margin, "flight_oracle": worst_flight,
                            "lambda1": run.lambda1, "exp_residual": exp_resid,
                            "grazing": run.grazing_count})


def criterion_11(ctx):
    """Two-disk monodromy against the classical oracle; elliptic orbit past the
    convexity threshold with unit-circle eigenvalues."""
    r, L = presets.TWO_DISK_RADIUS, presets.TWO_DISK_GAP
    table0 = presets.two_disk_orbit(0.0)
    st0 = bl.periodic_orbit_stability(table0)
    F = np.array([[1.0, L], [0.0, 1.0]])
    R = np.array([[1.0, 0.0], [2.0 / r, 1.0]])
    tr_oracle = float(np.trace(R @ F @ R @ F))
    tr_gap = abs(st0.trace - tr_oracle)
    hand = 4.0 * (1.0 + L / r) ** 2 - 2.0

    res = [bl.periodic_orbit_stability(presets.two_disk_orbit(re)).classification
           for re in np.linspace(0.0, 2.0, 21)]
    convex_hyperbolic = all(c == "hyperbolic"
                            for re, c in zip(np.linspace(0.0, 2.0, 21), res) if re < 1.0)

    re_first, d, orb, _, _ = bl.find_first_elliptic(0.35, np.linspace(1.05, 2.0, 20))
    unit_gap = float(np.abs(np.abs(orb.stability.eigenvalues) - 1.0).max()) if orb else np.inf
    image_gap = abs(orb.stability.trace - orb.image_trace) if orb else np.inf

    ok = (tr_gap < 1e-8 and abs(tr_oracle - hand) < 1e-10 and convex_hyperbolic
          and re_first is not None and unit_gap < 1e-8 and image_gap < 1e-8)
    return CriterionResult(11, "two_disk_orbit_stability", ok,
                           f"E=0 trace gap {tr_gap:.2e} < 1e-8; hyperbolic throughout r|E| < 1;"
                           f" first elliptic at r|E| = {re_first} (spacing {d}),"
                           f" |eigenvalues| on unit circle to {unit_gap:.2e}",
                           {"trace_gap": tr_gap, "first_elliptic_re": re_first,
                            "unit_circle_gap": unit_gap, "image_route_gap": image_gap,
                            "axis_classes": res})


def criterion_12_roundtrips(ctx):
    """Involution round trips for each flow kind."""
    sc = presets.example_1_2()
    worst = 0.0
    st0 = PhaseState([0.1, 0.2], [np.cos(0.8), np.sin(0.8)])
    f = flows.integrate(sc, st0, T=6.0, dt=1e-3)
    b = flows.integrate(sc, involution(f.state(-1)), T=6.0, dt=1e-3)
    worst = max(worst, float(np.abs(b.q[-1] - st0.q).max()),
                float(np.abs(b.v[-1] + st0.v).max()))

    W = FourierField(2, [((1, 0), 0.2, 0.0)])
    sc_flat = WeylScenario(FlatTorus((1.0, 1.0)), None, name="flat")
    spec = IsoenergeticSpec(potential=W, field=ConstantField([0.3, 0.2]), h=1.0)
    q0 = np.array([0.15, 0.4])
    v0 = np.sqrt(2.0 * (spec.h - W.value(q0))) * np.array([np.cos(0.9), np.sin(0.9)])
    f = flows.integrate(sc_flat, PhaseState(q0, v0), T=6.0, dt=1e-3,
                        kind="isoenergetic", spec=spec)
    b = flows.integrate(sc_flat, involution(f.state(-1)), T=6.0, dt=1e-3,
                        kind="isoenergetic", spec=spec)
    worst = max(worst, float(np.abs(b.q[-1] - q0).max()),
                float(np.abs(b.v[-1] + v0).max()))

    f = flows.integrate(sc, PhaseState([0.1, 0.2], [np.cos(0.8), np.sin(0.8)]),
                        T=4.0, dt=1e-3, kind="weyl_geodesic")
    b = flows.integrate(sc, involution(f.state(-1)), T=4.0, dt=1e-3,
                        kind="weyl_geodesic")
    worst = max(worst, float(np.abs(b.q[-1] - np.array([0.1, 0.2])).max()))
    return worst


def serialize_results(results):
    """Canonical byte serialization used for the determinism comparison."""
    return json.dumps([r.as_row() for r in results], sort_keys=True,
                      default=_json_default).encode()


def _json_default(x):
    if isinstance(x, (np.bool_, np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(type(x))


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11]


def run_pass(progress=None):
    """One pass over criteria 1-11 plus the round-trip half of criterion 12.

    progress, when given, is called with one line per criterion: its number,
    PASS/FAIL and elapsed seconds.  Timings never enter the results.
    """
    ctx = {}
    steps = [lambda fn=fn: fn(ctx) for fn in CRITERIA] + [lambda: _roundtrip_result(ctx)]
    results = []
    for step in steps:
        t0 = time.perf_counter()
        res = step()
        results.append(res)
        if progress:
            progress(f"criterion {res.criterion:2d} {'PASS' if res.passed else 'FAIL'}"
                     f" {time.perf_counter() - t0:7.2f} s")
    return results


def _roundtrip_result(ctx):
    rt = criterion_12_roundtrips(ctx)
    return CriterionResult(12, "reversibility_roundtrips", rt < 1e-6,
                           f"involution round trips within {rt:.3e} < 1e-6 (all flow kinds)",
                           {"roundtrip_worst": rt})


def run_all(progress=None):
    """Two full passes; criterion 12 additionally requires byte-identical results."""
    first = run_pass(progress)
    if progress:
        progress("first pass complete")
    second = run_pass(progress)
    identical = serialize_results(first) == serialize_results(second)
    rt = first[-1]
    first[-1] = CriterionResult(
        12, "reversibility_and_determinism",
        rt.passed and identical,
        rt.detail + ("; repeated runs byte-identical" if identical
                     else "; DETERMINISM FAILURE: reruns differ"),
        {**rt.measured, "reruns_identical": identical},
    )
    return first
