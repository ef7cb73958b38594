import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from weylflow import billiards as bl
from weylflow import presets
from weylflow.errors import (
    GrazingCollisionError,
    InvalidStateError,
    NoOrbitError,
    UnsupportedConfigurationError,
    ZeroFieldError,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def sinai():
    return presets.sinai_thermostat(re_product=0.0)


@pytest.fixture(scope="module")
def sinai_field():
    return presets.sinai_thermostat(re_product=0.2)


def test_zero_field_flight_matches_ray_circle():
    tb = bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], 0.0)
    ev = bl.free_flight(tb, np.array([0.1, 0.5]), np.array([1.0, 0.0]))
    assert ev.time_of_flight == pytest.approx(0.2, abs=1e-12)
    assert np.abs(ev.point - np.array([0.3, 0.5])).max() < 1e-12
    assert np.abs(ev.normal - np.array([-1.0, 0.0])).max() < 1e-12


def test_invariant_line_flight_stays_straight():
    tb = bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], 1.0)
    ev = bl.free_flight(tb, np.array([0.05, 0.5]), np.array([1.0, 0.0]))
    assert abs(ev.point[1] - 0.5) < 1e-14
    assert ev.time_of_flight == pytest.approx(0.25, abs=1e-12)


def test_curved_flight_collision_against_dense_rk4():
    # brute-force oracle: RK4 at dt=1e-6 plus interpolation of the crossing
    a = 1.0
    tb = bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], a)
    q0 = np.array([0.15, 0.42])
    v0 = np.array([np.cos(0.15), np.sin(0.15)])
    ev = bl.free_flight(tb, q0, v0)
    assert not ev.image_shift.any()           # hits the base circle directly
    assert ev.time_of_flight < 0.3

    E = np.array([a, 0.0])
    dt = 1e-6
    q, v = q0.copy(), v0.copy()
    c = np.array([0.5, 0.5])

    def f(q, v):
        ev_ = E @ v
        return v, E - ev_ * v

    t = 0.0
    t_cross = None
    d_prev = np.linalg.norm(q - c) - 0.2
    for _ in range(400_000):
        k1q, k1v = f(q, v)
        k2q, k2v = f(q + dt / 2 * k1q, v + dt / 2 * k1v)
        k3q, k3v = f(q + dt / 2 * k2q, v + dt / 2 * k2v)
        k4q, k4v = f(q + dt * k3q, v + dt * k3v)
        q = q + dt / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        v = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += dt
        d = np.linalg.norm(q - c) - 0.2
        if d <= 0:
            w = d_prev / (d_prev - d)
            t_cross = t - dt + w * dt
            break
        d_prev = d
    assert t_cross is not None
    assert ev.time_of_flight == pytest.approx(t_cross, abs=1e-8)
    p_or = bl.ThermostatFlight(q0, v0, a).pos(np.array([t_cross]))[0]
    assert np.abs(ev.point - p_or).max() < 1e-8


def test_flight_positions_match_rk4_batch():
    # oracle equivalence invariant over random flights, positions at matched times
    a = 0.6
    tb = bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], a)
    rng = np.random.default_rng(2)
    n = 40
    qs = rng.uniform(0, 1, (n, 2))
    ths = rng.uniform(0, 2 * np.pi, n)
    vs = np.stack([np.cos(ths), np.sin(ths)], axis=1)
    E = np.array([a, 0.0])
    dt = 1e-5
    T = 0.4
    q, v = qs.copy(), vs.copy()

    def f(qb, vb):
        ev = vb @ E
        return vb, E[None, :] - ev[:, None] * vb

    for _ in range(int(T / dt)):
        k1q, k1v = f(q, v)
        k2q, k2v = f(q + dt / 2 * k1q, v + dt / 2 * k1v)
        k3q, k3v = f(q + dt / 2 * k2q, v + dt / 2 * k2v)
        k4q, k4v = f(q + dt * k3q, v + dt * k3v)
        q = q + dt / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        v = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    for i in range(n):
        fl = bl.ThermostatFlight(qs[i], vs[i], a)
        assert np.abs(fl.pos(np.array([T]))[0] - q[i]).max() < 1e-8


def test_reflect_normal_incidence():
    tb = bl.BilliardTable((4, 4), [((2.0, 2.0), 0.5)], 0.0)
    ev = bl.free_flight(tb, np.array([0.5, 2.0]), np.array([1.0, 0.0]))
    _, v_out = bl.reflect(ev)
    assert np.abs(v_out - np.array([-1.0, 0.0])).max() < 1e-12


def test_reflect_45_degrees():
    # spec geometry: impact at the circle's rightmost point with N = (1, 0)
    tb = bl.BilliardTable((8, 8), [((4.0, 4.0), 1.0)], 0.0)
    ev = bl.free_flight(tb, np.array([6.0, 3.0]),
                        np.array([-1 / np.sqrt(2), 1 / np.sqrt(2)]))
    assert np.abs(ev.point - np.array([5.0, 4.0])).max() < 1e-10
    _, v_out = bl.reflect(ev)
    assert np.abs(v_out - np.array([1 / np.sqrt(2), 1 / np.sqrt(2)])).max() < 1e-10
    # specular law: normal component flips, tangential preserved
    assert (ev.v_out @ ev.normal) == pytest.approx(-(ev.v_in @ ev.normal), abs=1e-12)
    tang = np.array([-ev.normal[1], ev.normal[0]])
    assert (ev.v_out @ tang) == pytest.approx(ev.v_in @ tang, abs=1e-12)


def test_flight_from_inside_scatterer_rejected(sinai):
    with pytest.raises(InvalidStateError):
        bl.free_flight(sinai, np.array([0.25, 0.25]), np.array([1.0, 0.0]))


def test_weyl_convexity_margins():
    tb = bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], 1.0)
    rep = bl.weyl_convexity(tb)
    assert rep.margin == pytest.approx(4.0, abs=1e-15)
    assert rep.convex

    tb_sharp = bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], 5.0)
    rep_sharp = bl.weyl_convexity(tb_sharp)
    assert rep_sharp.margin == 0.0
    assert not rep_sharp.convex
    assert rep_sharp.strict_boundary

    tb0 = bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], 0.0)
    assert bl.weyl_convexity(tb0).margin == pytest.approx(5.0, abs=1e-15)


def test_convexity_threshold_sign_flip():
    r = 0.25
    for eps in (-1e-9, 1e-9):
        a = (1.0 + eps) / r
        tb = bl.BilliardTable((2, 2), [((1.0, 1.0), r)], a)
        assert (bl.weyl_convexity(tb).margin < 0) == (eps > 0)


def test_exp_map_straightens_example_curve():
    ys = np.linspace(-1.0, 1.0, 101)
    curve = np.stack([-np.log(np.cos(ys)), ys], axis=-1)
    assert bl.exp_map_check(curve, 1.0) < 1e-9
    # images are (1, tan y)
    w = np.exp(curve[:, 0] + 1j * curve[:, 1])
    assert np.abs(w.real - 1.0).max() < 1e-12


def test_exp_map_straight_flight_maps_to_ray():
    ts = np.linspace(0, 1, 33)
    samples = np.stack([0.3 + ts, np.full_like(ts, 0.2)], axis=-1)
    assert bl.exp_map_check(samples, 0.7) < 1e-12


def test_exp_map_guards():
    with pytest.raises(ZeroFieldError):
        bl.exp_map_check(np.zeros((5, 2)), 0.0)
    with pytest.raises(InvalidStateError):
        bl.exp_map_check(np.zeros((2, 2)), 1.0)


def test_horizon_flags(sinai):
    assert sinai.horizon_finite
    sparse = bl.BilliardTable((1, 1), [((0.5, 0.5), 0.1)], 0.0)
    assert not sparse.horizon_finite


def test_run_billiard_unit_speed_and_determinism(sinai_field):
    q0 = np.array([0.7, 0.25])
    v0 = np.array([np.cos(0.6), np.sin(0.6)])
    run1 = bl.run_billiard(sinai_field, q0, v0, 300)
    run2 = bl.run_billiard(sinai_field, q0, v0, 300)
    for e1, e2 in zip(run1.events, run2.events):
        assert np.array_equal(e1.point, e2.point)
        assert e1.time_of_flight == e2.time_of_flight
    speeds = [np.linalg.norm(e.v_out) for e in run1.events]
    assert np.abs(np.array(speeds) - 1.0).max() < 1e-10
    for ev in run1.events:
        s = sinai_field.scatterers[ev.scatterer]
        center = s.center + ev.image_shift
        assert abs(np.linalg.norm(ev.point - center) - s.radius) < 1e-10
        resid = ev.v_out - (ev.v_in - 2 * (ev.v_in @ ev.normal) * ev.normal)
        assert np.abs(resid).max() < 1e-12


def test_run_billiard_positive_exponent(sinai):
    run = bl.run_billiard(sinai, np.array([0.7, 0.25]),
                          np.array([np.cos(0.6), np.sin(0.6)]),
                          2000)
    assert run.lambda1 > 0.5
    assert run.exponents[0] == pytest.approx(-run.exponents[1], abs=1e-9)


def test_run_billiard_small_field_continuity(sinai, sinai_field):
    q0 = np.array([0.7, 0.25])
    v0 = np.array([np.cos(0.6), np.sin(0.6)])
    lam0 = bl.run_billiard(sinai, q0, v0, 2000).lambda1
    lamF = bl.run_billiard(sinai_field, q0, v0, 2000).lambda1
    assert abs(lamF - lam0) / lam0 < 0.2


def test_run_billiard_retraces_under_reversal(sinai_field):
    # double precision supports ~10 collisions of exact retrace before the
    # positive exponent amplifies the bisection seed past 1e-8
    q0 = np.array([0.7, 0.25])
    v0 = np.array([np.cos(0.6), np.sin(0.6)])
    run = bl.run_billiard(sinai_field, q0, v0, 40)
    last = run.events[-1]
    back = bl.run_billiard(sinai_field, last.point, -last.v_in, 39)
    fwd_pts = [ev.point % 1.0 for ev in run.events[::-1]]
    errs = [np.abs((ev.point % 1.0) - p).max()
            for ev, p in zip(back.events, fwd_pts[1:])]
    assert max(errs[:10]) < 1e-8


def test_tangent_maps_match_finite_difference_oracle():
    # event-synchronized FD of flight + reflection + short flight
    def read_tangent(a, vb, dq, dv, eps):
        e1 = J @ vb
        xi = dq @ e1 / eps
        xi0 = dq @ vb / eps
        eta = dv @ e1 / eps
        E = np.array([a, 0.0])
        chi = eta + (E @ vb) * xi - xi0 * (E @ e1)
        return xi, chi

    for a, q, v in [(0.9, np.array([1.2, 1.75]), np.array([np.cos(0.25), np.sin(0.25)])),
                    (0.0, np.array([1.2, 1.75]), np.array([np.cos(0.25), np.sin(0.25)])),
                    (1.7, np.array([1.0, 2.3]), np.array([np.cos(-0.5), np.sin(-0.5)]))]:
        tb = bl.BilliardTable((4, 4), [((2.0, 2.0), 0.3)], a)
        eps = 1e-7
        e = bl.free_flight(tb, q, v)
        tau = 0.05
        fl = bl.ThermostatFlight(tb.to_aligned(e.point), tb.to_aligned(e.v_out), a)
        qb = tb.from_aligned(fl.pos(np.array([tau]))[0])
        vb = tb.from_aligned(fl.vel(np.array([tau]))[0])
        t_base = e.time_of_flight + tau
        cols = []
        for dxi, dchi in [(1, 0), (0, 1)]:
            e1 = J @ v
            eta = dchi - a * v[0] * dxi
            vp = v + eps * eta * e1
            vp /= np.linalg.norm(vp)
            qp = q + eps * dxi * e1
            ep = bl.free_flight(tb, qp, vp)
            flp = bl.ThermostatFlight(tb.to_aligned(ep.point), tb.to_aligned(ep.v_out), a)
            trem = t_base - ep.time_of_flight
            qpp = tb.from_aligned(flp.pos(np.array([trem]))[0])
            vpp = tb.from_aligned(flp.vel(np.array([trem]))[0])
            cols.append(read_tangent(a, vb, qpp - qb, vpp - vb, eps))
        M_fd = np.array(cols).T
        th0 = np.arctan2(v[1], v[0])
        F = bl.flight_tangent_matrix(a, th0, e.theta_in_aligned, e.time_of_flight)
        R = bl._reflection_matrix(tb, tb.scatterers[e.scatterer].radius, e.normal,
                                  e.cos_incidence)
        flo = bl.ThermostatFlight(tb.to_aligned(e.point), tb.to_aligned(e.v_out), a)
        th_tau = float(flo.theta(np.array([tau]))[0])
        Fpost = bl.flight_tangent_matrix(a, e.theta_out_aligned, th_tau, tau)
        M_impl = Fpost @ R @ F
        rel = np.abs(M_fd - M_impl).max() / np.abs(M_impl).max()
        assert rel < 1e-4, (a, rel)


def test_periodic_orbit_classical_trace():
    r, L = presets.TWO_DISK_RADIUS, presets.TWO_DISK_GAP
    st = bl.periodic_orbit_stability(presets.two_disk_orbit(0.0))
    assert st.trace == pytest.approx(4 * (1 + L / r) ** 2 - 2, abs=1e-10)
    assert st.classification == "hyperbolic"
    assert st.period == pytest.approx(2 * L, abs=1e-12)


def test_periodic_orbit_convex_regime_hyperbolic():
    st = bl.periodic_orbit_stability(presets.two_disk_orbit(0.5))
    assert st.classification == "hyperbolic"
    # determinant 1: the loop integral of phi vanishes on the closed orbit
    assert np.linalg.det(st.monodromy) == pytest.approx(1.0, abs=1e-12)


def test_periodic_orbit_axis_family_stays_hyperbolic_past_threshold():
    for re_val in np.linspace(0.0, 2.0, 9):
        st = bl.periodic_orbit_stability(presets.two_disk_orbit(re_val))
        assert st.classification == "hyperbolic"
        assert st.trace > 2.0


def test_periodic_orbit_requires_axis_parallel_to_field():
    tb = bl.BilliardTable((2, 2), [((0.5, 0.5), 0.2), ((0.5, 1.4), 0.2)],
                          field_magnitude=0.5)
    with pytest.raises(UnsupportedConfigurationError):
        bl.periodic_orbit_stability(tb)


def test_periodic_orbit_blocked_axis():
    tb = bl.BilliardTable((4, 1), [((0.5, 0.5), 0.1), ((2.5, 0.5), 0.1),
                                   ((1.5, 0.5), 0.1)], field_magnitude=0.0)
    with pytest.raises(NoOrbitError):
        bl.periodic_orbit_stability(tb)


def test_first_elliptic_orbit_past_convexity_loss():
    re_first, d, orb, table, _ = bl.find_first_elliptic(0.35, np.linspace(1.05, 2.0, 20))
    assert re_first is not None and re_first > 1.0
    st = orb.stability
    assert st.classification == "elliptic"
    assert abs(st.trace) < 2.0
    assert np.abs(np.abs(st.eigenvalues) - 1.0).max() < 1e-8
    # the composed monodromy agrees with the classical straightened-picture trace
    assert abs(st.trace - orb.image_trace) < 1e-8
    assert orb.normal_residual < 1e-8


def test_grazing_reflection_rejected():
    tb = bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], 0.0)
    ev = bl.free_flight(tb, np.array([0.1, 0.5]), np.array([1.0, 0.0]))
    ev.cos_incidence = 1e-12
    with pytest.raises(GrazingCollisionError):
        bl.reflect(ev)


# -- event engine: completeness, oracle agreement, evaluation budget -----------
EXPLICIT = dict(periods=(1.0, 1.0), scatterers=[((0.25, 0.25), 0.38), ((0.75, 0.75), 0.19)],
                field_magnitude=0.9 / 0.38, field_angle=0.7)


def _explicit():
    return bl.BilliardTable(**EXPLICIT)


def test_rotations_agree_bit_for_bit_on_arrays_and_floats():
    table = _explicit()
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, (200, 2))
    for rotate, s in ((table.to_aligned, -table._sin), (table.from_aligned, table._sin)):
        rows = rotate(pts)
        for p, row in zip(pts, rows):
            assert tuple(row.tolist()) == table._turn(float(p[0]), float(p[1]), s)
            assert np.array_equal(rotate(p), row)


def _padded_box_search(flight, table, t_lo, t_hi):
    """Earliest crossing in [t_lo, t_hi] over every image of every scatterer in
    a bounding box of the arc padded by r + 2h, on a grid of the cell h below:
    the enumeration the nearest-image grid replaced, kept as its oracle."""
    h = min(s.radius for s in table.scatterers) / 4.0
    if table.a > 0:
        h = min(h, 0.25 / table.a)
        re = [s.radius * table.a for s in table.scatterers if s.radius * table.a < 1.0]
        if re:
            h = min(h, math.sqrt(1.0 - max(re)) / table.a)
    n_seg = max(2, int(np.ceil((t_hi - t_lo) / h)))
    cell = (t_hi - t_lo) / n_seg
    t_grid = t_lo + cell * np.arange(n_seg + 1)
    pos_a, vel_a = flight.pos_vel(t_grid)
    pos_w, vel_w = table.from_aligned(pos_a), table.from_aligned(vel_a)
    L0, L1 = table.periods.tolist()
    lo0, lo1 = pos_w.min(axis=0).tolist()
    hi0, hi1 = pos_w.max(axis=0).tolist()
    images = []
    for i, s in enumerate(table.scatterers):
        (cx, cy), pad = s.center.tolist(), s.radius + 2 * h
        for mx in range(math.floor((lo0 - cx - pad) / L0), math.ceil((hi0 - cx + pad) / L0) + 1):
            for my in range(math.floor((lo1 - cy - pad) / L1),
                            math.ceil((hi1 - cy + pad) / L1) + 1):
                images.append((i, mx, my))
    images = np.array(images)
    owner = images[:, 0]
    shifts = images[:, 1:] * table.periods
    centers = np.array([s.center for s in table.scatterers])[owner] + shifts
    radii = np.array([s.radius for s in table.scatterers])[owner]
    dx = pos_w[:, 0] - centers[:, :1]
    dy = pos_w[:, 1] - centers[:, 1:]
    d = np.hypot(dx, dy) - radii[:, None]
    g = dx * vel_w[:, 0] + dy * vel_w[:, 1]
    outside = d > bl.BISECT_TOL
    dip = (g[:, :-1] < 0.0) & (g[:, 1:] > 0.0)
    rows, cells = np.nonzero(outside[:, :-1] & (dip | ~outside[:, 1:]))
    centers_a = table.to_aligned(centers)
    states = np.hstack((pos_a, vel_a)).tolist()
    best = None
    for k, j in zip(rows.tolist(), cells.tolist()):
        c_a, r = centers_a[k].tolist(), radii.item(k)
        t_star = bl._first_crossing(flight, c_a, r, t_grid.item(j), t_grid.item(j + 1),
                                    bl._radial(states[j], c_a, r, table.a),
                                    bl._radial(states[j + 1], c_a, r, table.a))
        if t_star is not None and (best is None or t_star < best[0]):
            best = (t_star, int(owner[k]), centers[k], shifts[k])
    return best


def _padded_box_flight(table, q, v):
    """The oracle over windows of growing length up to the flight cap."""
    flight = bl.ThermostatFlight(table.to_aligned(q), table.to_aligned(v), table.a)
    span = float(table.periods.max())
    t_cap = bl.FLIGHT_CAP_FACTOR * span
    t_lo, t_hi = 0.0, min(1.5 * span, t_cap)
    while True:
        best = _padded_box_search(flight, table, t_lo, t_hi)
        if best is not None or t_hi >= t_cap:
            return best
        t_lo, t_hi = t_hi, min(4.0 * t_hi, t_cap)


ORACLE_TABLES = {
    "sinai_thermostat": presets.sinai_thermostat(),
    "explicit_rE_0.9": _explicit(),
    "zero_field": bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], 0.0),
    "rE_0.99": bl.BilliardTable((1, 1), [((0.5, 0.5), 0.2)], 0.99 / 0.2, 0.3),
    "periods_1x0_7": bl.BilliardTable((1.0, 0.7), [((0.3, 0.2), 0.15), ((0.75, 0.5), 0.12)],
                                      1.5, 0.4),
    # the disc's gap to its own images (0.1) is under its cell length r/4
    "r_max_near_half_period": bl.BilliardTable((1.0, 1.0), [((0.5, 0.5), 0.45)], 1.0, 0.3),
    "sinai_zero_field": presets.sinai_thermostat(re_product=0.0),
    "two_disk_orbit": presets.two_disk_orbit(),
    "two_disk_orbit_rE_0.5": presets.two_disk_orbit(0.5),
}


@pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
def test_nearest_image_search_matches_padded_box_enumeration(name):
    table = ORACLE_TABLES[name]
    rng = np.random.default_rng(14)
    flights = hits = 0
    while flights < 100:
        q = rng.uniform(0.0, 1.0, 2) * table.periods
        th = rng.uniform(0.0, 2 * np.pi)
        if not table.outside(q, tol=1e-6):
            continue
        flights += 1
        v = np.array([np.cos(th), np.sin(th)])
        got = bl.free_flight(table, q, v)
        want = _padded_box_flight(table, q, v)
        assert isinstance(got, bl.OpenFlight) == (want is None), (q, th, got, want)
        if want is not None:
            assert got.scatterer == want[1]
            assert np.array_equal(got.image_shift, want[3])
            assert abs(got.time_of_flight - want[0]) <= 1e-12
            hits += 1
    # open flights are common on the infinite-horizon bouncing-orbit tables
    assert hits > (90 if table.horizon_finite else 50)


def test_evaluation_budget_per_collision(monkeypatch):
    table = presets.sinai_thermostat()
    calls = [0]
    scalar = bl.ThermostatFlight.pos_vel_scalar

    def counting(self, t):
        calls[0] += 1
        return scalar(self, t)

    monkeypatch.setattr(bl.ThermostatFlight, "pos_vel_scalar", counting)
    run = bl.run_billiard(table, np.array([0.7, 0.25]),
                          np.array([np.cos(0.6), np.sin(0.6)]), 200)
    assert len(run.events) == 200
    assert calls[0] / 200 <= 12


def _oracle_first_hit(table, q, v, t_max, step=5e-5):
    """First scatterer entry by dense sampling of the closed-form flight.

    Samples ThermostatFlight.pos every ``step``, refines sign changes by
    bisection and sampled near-misses by golden-section minimisation of the
    distance; returns (time, scatterer) or None, and ``"ambiguous"`` when a
    closest approach lies within 1e-9 of a circle.
    """
    fl = bl.ThermostatFlight(table.to_aligned(q), table.to_aligned(v), table.a)

    def dist(t, j):
        p = table.from_aligned(fl.pos(np.array([t]))[0])
        s = table.scatterers[j]
        off = p - s.center
        off -= table.periods * np.round(off / table.periods)
        return float(np.hypot(*off)) - s.radius

    ts = np.arange(0.0, t_max, step)
    pts = fl.pos(ts) @ table._rot
    events = []
    for j, s in enumerate(table.scatterers):
        off = pts - s.center
        off -= table.periods * np.round(off / table.periods)
        d = np.hypot(off[:, 0], off[:, 1]) - s.radius
        inside = np.nonzero(d[1:] <= 0.0)[0]
        stop = inside[0] + 1 if len(inside) else len(d) - 1
        if len(inside):
            lo, hi = ts[stop - 1], ts[stop]
            while hi - lo > 1e-14:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if dist(mid, j) > 0 else (lo, mid)
            events.append((hi, j))
        # sampled local minima close to the circle before the first sign change
        dips = np.nonzero((d[1:stop] < d[:stop - 1]) & (d[1:stop] <= d[2:stop + 1])
                          & (d[1:stop] < 1e-6))[0] + 1
        for i in dips:
            a, b = ts[i - 1], ts[i + 1]
            gr = 0.5 * (np.sqrt(5.0) - 1.0)
            while b - a > 1e-12:
                c1, c2 = b - gr * (b - a), a + gr * (b - a)
                a, b = (a, c2) if dist(c1, j) < dist(c2, j) else (c1, b)
            t_min = 0.5 * (a + b)
            d_min = dist(t_min, j)
            if abs(d_min) <= 1e-9:
                return "ambiguous"
            if d_min < 0:
                lo, hi = ts[i - 1], t_min
                while hi - lo > 1e-14:
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if dist(mid, j) > 0 else (lo, mid)
                events.append((hi, j))
                break
    return min(events) if events else None


def _check_against_oracle(table, q, v):
    assume(table.outside(q, tol=-1e-9))
    ev = bl.free_flight(table, q, v)
    got = None if isinstance(ev, bl.OpenFlight) else (ev.time_of_flight, ev.scatterer)
    t_max = (got[0] if got else ev.time_of_flight) + 1e-3
    want = _oracle_first_hit(table, q, v, t_max)
    assume(want != "ambiguous")
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        assert got[1] == want[1]
        assert abs(got[0] - want[0]) < 1e-10, (got, want)


TABLES = {"sinai": presets.sinai_thermostat(), "explicit": _explicit()}
ENGINE = settings(max_examples=60, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
unit = st.floats(0.0, 1.0, exclude_max=True)
angle = st.floats(0.0, 2 * np.pi)


@ENGINE
@given(name=st.sampled_from(sorted(TABLES)), x=unit, y=unit, th=angle)
def test_first_flight_matches_dense_oracle(name, x, y, th):
    _check_against_oracle(TABLES[name], np.array([x, y]), np.array([np.cos(th), np.sin(th)]))


@ENGINE
@given(name=st.sampled_from(sorted(TABLES)), j=st.integers(0, 1), psi=angle,
       side=st.sampled_from([-1.0, 1.0]), depth=st.floats(-7.0, -3.0),
       back=st.floats(0.01, 0.3))
def test_near_grazing_flights_match_dense_oracle(name, j, psi, side, depth, back):
    # aim tangentially at a circle, passing 10**depth inside or outside it, and
    # start `back` earlier on the same thermostat curve (the flow is reversible
    # under v -> -v)
    table = TABLES[name]
    s = table.scatterers[j]
    n = np.array([np.cos(psi), np.sin(psi)])
    p = s.center + (s.radius + side * 10.0 ** depth) * n
    u = np.array([-n[1], n[0]])
    rev = bl.ThermostatFlight(table.to_aligned(p), table.to_aligned(-u), table.a)
    q = table.from_aligned(rev.pos(np.array([back]))[0])
    v = -table.from_aligned(rev.vel(np.array([back]))[0])
    _check_against_oracle(table, q, v)


@ENGINE
@given(frac=st.floats(0.05, 0.95), off=st.floats(-0.02, 0.02), th=angle)
def test_starts_between_two_circles_match_dense_oracle(frac, off, th):
    # start inside the gap between the two scatterers of the explicit table
    table = TABLES["explicit"]
    c0, c1 = (s.center for s in table.scatterers)
    r0, r1 = (s.radius for s in table.scatterers)
    axis = (c1 - c0) / np.linalg.norm(c1 - c0)
    gap = np.linalg.norm(c1 - c0) - r0 - r1
    q = c0 + (r0 + frac * gap) * axis + off * np.array([-axis[1], axis[0]])
    _check_against_oracle(table, q, np.array([np.cos(th), np.sin(th)]))


@ENGINE
@given(re=st.floats(0.9, 0.99), r=st.floats(0.1, 0.3), phi=angle, x=unit, y=unit,
       th=angle)
def test_flights_near_convexity_threshold_match_dense_oracle(re, r, phi, x, y, th):
    table = bl.BilliardTable((1.0, 1.0), [((0.5, 0.5), r)], re / r, phi)
    _check_against_oracle(table, np.array([x, y]), np.array([np.cos(th), np.sin(th)]))


@ENGINE
@given(re=st.floats(1.0, 2.0), r=st.floats(0.1, 0.3), phi=angle, x=unit, y=unit, th=angle)
def test_flights_past_convexity_threshold_match_dense_oracle(re, r, phi, x, y, th):
    table = bl.BilliardTable((1.0, 1.0), [((0.5, 0.5), r)], re / r, phi)
    _check_against_oracle(table, np.array([x, y]), np.array([np.cos(th), np.sin(th)]))


# flights from the origin past a disc about a point near their centre of
# curvature, with r|E| > 1: the distance to the centre has a local maximum and
# a minimum within one search cell, and the flight dips into the disc between
@pytest.mark.parametrize("a, th0, center, r", [
    (2.4818889064763177, -2.5455350493638593, (0.18066507917380895, -0.39429320503413534),
     0.41341822473648326),
    (2.3718213899949587, -2.267848227253672, (0.3333948110957715, -0.2990855211421432),
     0.44599331877209664),
], ids=["rE_1.03", "rE_1.06"])
def test_disc_near_the_osculating_circle_matches_dense_oracle(a, th0, center, r):
    table = bl.BilliardTable((4.0, 4.0), [(np.mod(center, 4.0), r)], a, 0.0)
    v = np.array([np.cos(th0), np.sin(th0)])
    ev = bl.free_flight(table, np.zeros(2), v)
    want = _oracle_first_hit(table, np.zeros(2), v, ev.time_of_flight + 1e-3)
    assert want not in (None, "ambiguous")
    assert ev.scatterer == want[1]
    assert abs(ev.time_of_flight - want[0]) < 1e-10, (ev.time_of_flight, want)


# a disc 2e-4 from its own images: flights run between four nearby images
NEAR_TOUCHING = dict(periods=(1, 1), scatterers=[((0.5, 0.5), 0.4999)], field_magnitude=1.0)


def test_near_touching_disc_costs_few_flight_points(monkeypatch):
    points = [0]
    scalar, array = bl.ThermostatFlight.pos_vel_scalar, bl.ThermostatFlight.pos_vel

    def counting_scalar(self, t):
        points[0] += 1
        return scalar(self, t)

    def counting_array(self, t):
        points[0] += np.size(t)
        return array(self, t)

    monkeypatch.setattr(bl.ThermostatFlight, "pos_vel_scalar", counting_scalar)
    monkeypatch.setattr(bl.ThermostatFlight, "pos_vel", counting_array)
    run = bl.run_billiard(bl.BilliardTable(**NEAR_TOUCHING), np.array([0.02, 0.03]),
                          np.array([np.cos(0.6), np.sin(0.6)]), 50)
    assert len(run.events) == 50
    assert points[0] / 50 <= 20


def test_near_touching_disc_flights_match_dense_oracle():
    table = bl.BilliardTable(**NEAR_TOUCHING)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        q, th = rng.uniform(0.0, 1.0, 2), rng.uniform(0.0, 2 * np.pi)
        if not table.outside(q, tol=1e-9):
            continue
        v = np.array([np.cos(th), np.sin(th)])
        ev = bl.free_flight(table, q, v)
        want = _oracle_first_hit(table, q, v, ev.time_of_flight + 1e-3)
        if want == "ambiguous":
            continue
        checked += 1
        assert ev.scatterer == want[1]
        assert abs(ev.time_of_flight - want[0]) < 1e-10, (q, th, ev.time_of_flight, want)


@pytest.mark.parametrize("periods, scatterers, field", [
    ((1, 1), [((0.5, 0.5), 0.2)], -1.0),
    ((1, 1), [((0.5, 0.5), 0.0)], 0.0),
    ((1, 0), [((0.5, 0.5), 0.2)], 0.0),
    ((1, 1), [], 0.0),
], ids=["negative_field", "zero_radius", "zero_period", "no_scatterers"])
def test_table_preconditions_raise_invalid_state(periods, scatterers, field):
    with pytest.raises(InvalidStateError):
        bl.BilliardTable(periods, scatterers, field)


TABLE_ARGS = dict(periods=(1, 1), scatterers=[((0.5, 0.5), 0.2)], field_magnitude=1.0)


@pytest.mark.parametrize("bad, name", [
    (dict(field_angle=math.nan), "field angle"),
    (dict(field_angle=math.inf), "field angle"),
    (dict(scatterers=[((math.nan, 0.5), 0.2)]), "centre"),
    # 3.01 apart on a unit torus: the discs overlap through their nearest images
    (dict(scatterers=[((0.25, 0.25), 0.2), ((3.26, 0.25), 0.2)]), "overlap"),
], ids=["nan_field_angle", "infinite_field_angle", "nan_centre", "overlap_past_one_period"])
def test_bad_table_input_raises_invalid_state_naming_it(bad, name):
    with pytest.raises(InvalidStateError, match=name):
        bl.BilliardTable(**{**TABLE_ARGS, **bad})


def test_outside_matches_image_loop():
    # the vectorised test against a loop over the nine images of each scatterer
    table = _explicit()
    rng = np.random.default_rng(8)
    for q in rng.uniform(-1.0, 2.0, (400, 2)):
        qw = table.wrap(q)
        inside = any(np.hypot(*(qw - s.center - (mx, my))) < s.radius - 1e-6
                     for s in table.scatterers for mx in (-1, 0, 1) for my in (-1, 0, 1))
        assert table.outside(q, tol=1e-6) == (not inside)


# -- tangent bookkeeping: pair identity, matrix replay, grazing restart --------
START_Q = np.array([0.7, 0.25])
START_V = np.array([np.cos(0.6), np.sin(0.6)])


def _open_table(field):
    """One small scatterer, field at an irrational angle: infinite horizon, open flights."""
    return bl.BilliardTable((1.0, 1.0), [((0.5, 0.5), 0.05)], field, math.sqrt(2.0))


TANGENT_TABLES = {
    "sinai_thermostat": presets.sinai_thermostat,
    "explicit_rE_0.9": _explicit,
    "sinai_zero_field": lambda: presets.sinai_thermostat(re_product=0.0),
    "open_flights": lambda: _open_table(0.5),
}
# |E| = 3 aligns v with E to below roundoff on open flights; the matrix route's
# r22 then loses digits, so this table is checked by the pair identity only
PAIR_TABLES = dict(TANGENT_TABLES, open_flights_E3=lambda: _open_table(3.0))


def _qr_replay(table, q, v, n_collisions):
    """Exponents by the matrix route: flight and reflection matrices composed
    from the engine's events, a QR factorisation after every flight and every
    collision, start angles taken from the world velocities.  The products and
    the QR run in 30-digit arithmetic: in doubles, the route's r22 on long
    contracting open flights is off by up to 1e-12 relative by itself."""
    def angle(w):
        wa = table.to_aligned(w)
        return float(np.arctan2(wa[1], wa[0]))

    t, hits = 0.0, 0
    with mpmath.workdps(30):
        M, lsum = mpmath.eye(2), [mpmath.mpf(0), mpmath.mpf(0)]
        while hits < n_collisions:
            _, q = np.divmod(q, table.periods)      # the engine's wrap before every flight
            ev = bl.free_flight(table, q, v)
            t += ev.time_of_flight
            if isinstance(ev, bl.OpenFlight):
                A = bl.flight_tangent_matrix(table.a, angle(v), ev.theta_end_aligned,
                                             ev.time_of_flight)
                q, v = ev.end_q, ev.end_v
            else:
                F = bl.flight_tangent_matrix(table.a, angle(v), ev.theta_in_aligned,
                                             ev.time_of_flight)
                A = bl._reflection_matrix(table, table.scatterers[ev.scatterer].radius,
                                          ev.normal, ev.cos_incidence) @ F
                q, v = ev.point, ev.v_out
                hits += 1
            Q, R = mpmath.qr(mpmath.matrix(A.tolist()) * M)
            lsum = [lsum[i] + mpmath.log(abs(R[i, i])) for i in range(2)]
            M = Q * mpmath.diag([mpmath.sign(R[0, 0]), mpmath.sign(R[1, 1])])
        return np.sort(np.array([float(x) for x in lsum]) / t)[::-1]


@pytest.mark.parametrize("name", sorted(PAIR_TABLES))
def test_billiard_pair_identity(name):
    # det F = e^{-int phi} and det R = 1: lambda1 + lambda2 = sbar
    table = PAIR_TABLES[name]()
    run = bl.run_billiard(table, START_Q, START_V, 300)
    assert run.pair_residual < 1e-10
    if table.a == 0.0:
        assert run.sbar == 0.0
    else:
        assert run.sbar < 0.0       # the thermostat contracts phase volume
    if name.startswith("open_flights"):
        assert run.open_count > 0


@pytest.mark.parametrize("name", sorted(TANGENT_TABLES))
def test_scalar_tangent_bookkeeping_matches_matrix_qr(name):
    table = TANGENT_TABLES[name]()
    run = bl.run_billiard(table, START_Q, START_V, 300)
    assert run.grazing_count == 0
    assert run.lambda1 == run.exponents[0]
    np.testing.assert_allclose(run.exponents, _qr_replay(table, START_Q, START_V, 300),
                               rtol=1e-12, atol=0.0)


def test_field_driven_orbit_runs_long_in_the_fundamental_cell():
    # the field drives this orbit thousands of cells away; unwrapped, q lost the
    # digits of the start check and a flight "started inside" the scatterer
    table = bl.BilliardTable((1.0, 1.0), [((0.5, 0.5), 0.05)], 1.0, math.sqrt(2.0))
    run = bl.run_billiard(table, np.array([0.7, 0.25]), np.array([math.cos(0.6), math.sin(0.6)]),
                          10_000)
    assert len(run.events) == 10_000
    assert run.pair_residual < 1e-10
    assert run.sbar < 0.0


def test_grazing_restart_composes_its_flight_map(monkeypatch):
    # a fake tangency half-way along the fifth flight: the run restarts there,
    # outside every scatterer, drops only the reflection, and its clock is the
    # sum of the flight times it advanced, GRAZE_SKIP past the tangency included
    real = bl.free_flight
    advanced = []

    def marking(table, q, v):
        ev = real(table, q, v)
        if len(advanced) == 4:
            ev = dataclasses.replace(ev, time_of_flight=0.5 * ev.time_of_flight, grazing=True)
            advanced.append(ev.time_of_flight + bl.GRAZE_SKIP)
        else:
            advanced.append(ev.time_of_flight)
        return ev

    monkeypatch.setattr(bl, "free_flight", marking)
    run = bl.run_billiard(_explicit(), START_Q, START_V, 300)
    assert run.grazing_count == 1
    assert run.pair_residual < 1e-10
    t = 0.0
    for tof in advanced:
        t += tof
    assert run.total_time == run.collision_times[-1] == t
