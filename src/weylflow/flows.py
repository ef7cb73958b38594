"""Thermostat flows, Weyl geodesics and their fixed-step RK4 integrator.

Conventions: all right-hand sides return ordinary coordinate derivatives
(dq/dt, dv/dt); the covariant acceleration is dv/dt + Gamma(v, v).  Phase
points are stored unwrapped (no torus reduction); periodic data is evaluated
periodically by construction.

There is one RK4 step, ``rk4_step``, and one step count, ``step_count``; every
flow in the package uses them, the linearized and batched ones included.  The
stepper takes a single float array, so each caller packs its state (q, v and
whatever it co-integrates) into one array and reads the parts back through
fixed-offset views.  Packing is what lets one stepper serve every flow: the
stage arithmetic is a few numpy operations on one array whatever the state
holds, where a tuple of arrays would cost a numpy call per part per stage.
``rk4_step`` sums the stages in place, in the textbook order and with its bits.
``integrate`` writes each stage into one of four preallocated rows and forms
each sample's record (|v|_g, phi(v), the residuals) after the loop, over all
samples at once.  The isokinetic step (``isokinetic_accel``) and the
projection's speed (``g_norm``) have one home, shared with the co-integration's
frame transport, so both loops advance (q, v) with the same bits.

Line integrals along the stored samples use ``cumulative_simpson``, a numpy
port of scipy's routine of that name that gives the same bits.  It is here
for start-up cost: importing ``scipy.integrate`` loads scipy's special,
optimize and linalg packages, most of a second before any task runs.  The
cubic resampling in ``reparametrize_by_arclength`` and ``dettmann_morriss``
imports scipy's ``CubicSpline`` when it runs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    InvalidEnergyLevelError,
    InvalidStepError,
    KineticFloorError,
    NonFiniteStateError,
    NotLocallyPotentialError,
    TooFewSamplesError,
    UnsupportedConfigurationError,
)
from .fields import ReducedField
from .metrics import vecdot

KINETIC_FLOOR = 1e-6
REDUCE_CHECK_POINTS = 64     # seeded sample points at which reduce_to_wflow checks h > W


@dataclass
class PhaseState:
    """Point (q, v) of the tangent bundle with elapsed time t."""

    q: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.v = np.asarray(self.v, dtype=float)


def involution(state):
    """I(q, v) = (q, -v); conjugates forward and backward dynamics."""
    return PhaseState(state.q.copy(), -state.v, state.t)


@dataclass
class IsoenergeticSpec:
    """Potential W, external field E and energy level h for H = v^2/2 + W = h."""

    potential: object
    field: object
    h: float


@dataclass
class Trajectory:
    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    phi_v: np.ndarray
    speed_residual: np.ndarray
    energy_residual: np.ndarray
    int_phi: np.ndarray
    arc_length: np.ndarray
    kind: str
    dt: float
    scenario: object

    def state(self, i=-1):
        return PhaseState(self.q[i].copy(), self.v[i].copy(), float(self.times[i]))


# -- right-hand sides --------------------------------------------------------

def isokinetic_accel(pt, v, flat):
    """(dv/dt, phi(v), Gamma v) of the isokinetic flow at the point record pt:
    dv/dt = E - phi(v) v - Gamma(v, v), and Gamma v [k, j] = Gamma^k_ij v^i is
    the product the frame transport reuses (None on a flat metric)."""
    E = pt.E
    if flat:
        phi_v = E.dot(v)
        return E - phi_v * v, phi_v, None
    phi_v = pt.phi.dot(v)
    gv, gvv = gamma_vv(pt.gamma, v)
    return E - phi_v * v - gvv, phi_v, gv


def gamma_vv(G, v):
    """(G v, G(v, v)) of a connection G^k_ij, the one spelling of G(v, v):
    G v [k, j] = G^k_ij v^i and G(v, v) = (G v) v.  G v is a stack of n
    vector-matrix products, so it keeps the matmul: v.dot(G) sums in another
    order and differs from it by roundoff for n >= 4."""
    gv = v @ G
    return gv, gv.dot(v)


def g_norm(v, g):
    """|v|_g, the projection's speed; g None is the flat metric (numpy's norm of v)."""
    return math.sqrt(v.dot(v) if g is None else v.dot(g).dot(v))


def isokinetic_rhs(scenario, q, v):
    """(dq/dt, dv/dt) of the Gaussian thermostat on |v|_g = 1:  Dv/dt = E - <E, v> v."""
    return v, isokinetic_accel(scenario.point(q), v, scenario.metric_family.is_flat)[0]


def isoenergetic_rhs(scenario, spec, q, v):
    """Isoenergetic thermostat:  Dv/dt = -grad W + E - (<E,v>/v^2) v."""
    jet = scenario.point(q).jet
    E = spec.field.value(q, jet)
    gw = spec.potential.grad(q)
    flat = scenario.metric_family.is_flat
    gv = v if flat else jet.g.dot(v)
    v2 = float(v.dot(gv))
    if v2 < KINETIC_FLOOR:
        raise KineticFloorError(f"kinetic energy {v2:.3e} below floor at q={q}")
    phi_v = float(gv.dot(E))
    if flat:
        return v, -gw + E - (phi_v / v2) * v
    return v, -jet.raise_index(gw) + E - (phi_v / v2) * v - gamma_vv(jet.gamma, v)[1]


def weyl_geodesic_rhs(scenario, q, w):
    """Weyl geodesic with its distinguished parameter:  dw/ds = -Ghat(w, w)."""
    if float(w.dot(w)) == 0.0:
        raise UnsupportedConfigurationError("weyl geodesic undefined at w = 0")
    return w, -gamma_vv(scenario.weyl_christoffel(q), w)[1]


def reduce_to_wflow(scenario, spec):
    """Field E_tilde = (-grad W + E) / (2 (h - W)) whose W-flow matches the
    arc-length-reparametrized isoenergetic flow.

    Checks h > W at REDUCE_CHECK_POINTS seeded sample points of the scenario."""
    rng = np.random.default_rng(0)
    for _ in range(REDUCE_CHECK_POINTS):
        q = scenario.sample_point(rng)
        if spec.h - spec.potential.value(q) <= 0.0:
            raise InvalidEnergyLevelError(f"h - W <= 0 at q={q}")
    return ReducedField(spec.potential, spec.field, spec.h)


# -- integrator ---------------------------------------------------------------

def step_count(T, dt):
    """Number of fixed steps of size dt spanning T; needs dt > 0 and T >= dt."""
    if not (dt > 0 and T >= dt):
        raise InvalidStepError(f"need dt > 0 and T >= dt, got T={T!r}, dt={dt!r}")
    return int(round(T / dt))


def rk4_step(rhs, y, dt, k1):
    """One classical RK4 step of y' = rhs(y) from y, given k1 = rhs(y); rhs may
    return rows that it reuses in later steps, since the sum is a fresh array."""
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    acc = 2 * k2
    acc += k1
    acc += 2 * k3
    acc += k4
    acc *= dt / 6.0
    acc += y
    return acc


def cumulative_simpson(y, x):
    """Cumulative Simpson integral of the samples y(x) from x[0], starting at 0.

    The same bits as scipy 1.17's ``cumulative_simpson(y, x=x, initial=0.0)``
    on 1-d float samples, by the same operations: each interval's integral
    from the quadratic through it and its right (h1) or left (h2) neighbour,
    interleaved and summed in order; the trapezoid rule below 3 samples.
    Raises ValueError when x, with 3 samples or more, is not strictly
    increasing.
    """
    y = np.asarray(y, dtype=float)
    dx = np.diff(np.asarray(x, dtype=float))
    if len(y) < 3:
        res = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)
    else:
        if (dx <= 0).any():
            raise ValueError("Input x must be strictly increasing.")
        h2 = _simpson_panels(y[::-1], dx[::-1])[::-1]
        res = np.empty(len(dx))
        res[:-1:2] = _simpson_panels(y, dx)[::2]
        res[1::2] = h2[::2]
        res[-1] = h2[-1]
        res = np.cumsum(res)
    return np.concatenate(([0.0], res + 0.0))   # + 0.0 turns -0.0 to 0.0, as scipy does


def _simpson_panels(y, dx):
    """Integral over each interval [x_i, x_i+1] but the last, from the
    quadratic through x_i, x_i+1, x_i+2 (Cartwright's unequal-step formula)."""
    d1, d2 = dx[:-1], dx[1:]
    a = d1 / (d1 + d2)
    b = a * (d1 / d2)
    return d1 / 6 * ((3 - a) * y[:-2] + (3 + b + a) * y[1:-1] + -b * y[2:])


def integrate(scenario, initial, T, dt, kind="isokinetic", spec=None):
    """Classical fixed-step RK4 with post-step constraint projection.

    kind: 'isokinetic' (project |v|_g = 1), 'isoenergetic' (restore
    H = h via speed rescaling; requires spec), or 'weyl_geodesic' (no
    projection).  Accumulates the line integral of phi by Simpson quadrature
    on the stored samples.
    """
    n_steps = step_count(T, dt)
    if kind not in ("isokinetic", "isoenergetic", "weyl_geodesic"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "isoenergetic" and spec is None:
        raise ValueError("isoenergetic integration needs an IsoenergeticSpec")

    n = scenario.dim
    point, flat = scenario.point, scenario.metric_family.is_flat
    unit, energetic = kind == "isokinetic", kind == "isoenergetic"
    rows = itertools.cycle(np.empty((4, 2 * n)))    # the stage rows k1..k4, in call order
    if unit:
        def deriv(y):
            v = y[n:]
            return np.concatenate((v, isokinetic_accel(point(y[:n]), v, flat)[0]), out=next(rows))
    else:
        rhs = (partial(isoenergetic_rhs, scenario, spec) if energetic
               else partial(weyl_geodesic_rhs, scenario))

        def deriv(y):
            return np.concatenate(rhs(y[:n], y[n:]), out=next(rows))

    # what each sample's record reads: E (spec.field's if isoenergetic), g v and W
    m = n_steps + 1
    ys = np.empty((m, 2 * n))
    Es = np.empty((m, n))
    gvs = ys[:, n:] if flat else np.empty((m, n))
    ws = np.zeros(m)
    y = np.concatenate((initial.q, initial.v), dtype=float)
    for i in range(m):
        if i:
            y = rk4_step(deriv, y, dt, deriv(y))
            if not np.isfinite(y).all():
                raise NonFiniteStateError(f"non-finite state at step {i}")
        q, v = y[:n], y[n:]
        pt = point(q)
        Es[i] = spec.field.value(q, pt.jet) if energetic else pt.E
        if energetic:
            ws[i] = spec.potential.value(q)
        if i and unit:
            v /= g_norm(v, None if flat else pt.g)
        elif i and energetic:
            kinetic = 2.0 * (spec.h - ws[i])
            if kinetic < KINETIC_FLOOR:
                raise KineticFloorError(f"kinetic energy {kinetic:.3e} below floor at q={q}")
            v *= np.sqrt(kinetic) / g_norm(v, None if flat else pt.g)
        ys[i] = y
        if not flat:
            np.matmul(pt.g, v, out=gvs[i])

    times = initial.t + dt * np.arange(m)
    speed = np.sqrt(vecdot(ys[:, n:], gvs))
    phi_v = vecdot(gvs, Es)
    int_phi = cumulative_simpson(phi_v, times)
    arc_length = cumulative_simpson(speed, times)
    energy_residual = 0.5 * speed ** 2 + ws - spec.h if energetic else np.zeros(m)
    if unit:
        speed_residual = speed - 1.0
    elif energetic:
        speed_residual = speed - np.sqrt(np.maximum(2.0 * (spec.h - ws), 0.0))
    else:
        speed_residual = speed - np.exp(-int_phi)
    return Trajectory(times=times, q=ys[:, :n], v=ys[:, n:], phi_v=phi_v,
                      speed_residual=speed_residual,
                      energy_residual=energy_residual, int_phi=int_phi,
                      arc_length=arc_length, kind=kind, dt=dt, scenario=scenario)


def reparametrize_by_arclength(traj, s_grid):
    """Cubic-interpolated samples q(s) of the trajectory at the given arc lengths."""
    from scipy.interpolate import CubicSpline
    s = traj.arc_length
    spline = CubicSpline(s, traj.q, axis=0)
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid[-1] > s[-1] + 1e-12:
        raise ValueError("requested arc length exceeds trajectory span")
    return spline(np.minimum(s_grid, s[-1]))


# -- Dettmann-Morriss transformed coordinates ---------------------------------

@dataclass
class DettmannMorrissRecord:
    tau: np.ndarray
    q: np.ndarray
    p: np.ndarray
    H: np.ndarray
    H_drift: float
    hamilton_residual: float


def dettmann_morriss(traj, U):
    """Transform an isokinetic trajectory with E = -grad U to hamiltonian form.

    p = e^{-U} v, dt/dtau = e^{U}, H = e^{2U} p^2 / 2.  Returns the resampled
    record together with the max residual of Hamilton's equations evaluated by
    central differences on the resampled path.
    """
    if traj.kind != "isokinetic":
        raise UnsupportedConfigurationError("transform applies to isokinetic runs")
    sc = traj.scenario
    if not sc.metric_family.is_flat:
        raise UnsupportedConfigurationError("transform applies to flat-torus runs")
    if len(traj.times) < 3:
        raise TooFewSamplesError(f"the central-difference residual needs at least 3 samples, "
                                 f"got {len(traj.times)}")

    # field must be locally potential with the supplied potential along the path
    worst = 0.0
    for q in traj.q[::max(1, len(traj.times) // 64)]:
        loc = sc.local(q)
        worst = max(worst, np.abs(loc.E + U.grad(q)).max(), np.abs(loc.dE - loc.dE.T).max())
    if worst > 1e-8:
        raise NotLocallyPotentialError(
            f"field is not -grad U along the path (residual {worst:.3e})")

    u = np.array([U.value(qi) for qi in traj.q])
    tau = cumulative_simpson(np.exp(-u), traj.times)
    p = np.exp(-u)[:, None] * traj.v
    H = 0.5 * np.exp(2 * u) * np.einsum("ij,ij->i", p, p)

    from scipy.interpolate import CubicSpline
    tau_grid = np.linspace(tau[0], tau[-1], len(tau))
    qr = CubicSpline(tau, traj.q, axis=0)(tau_grid)
    pr = CubicSpline(tau, p, axis=0)(tau_grid)
    ur = np.array([U.value(qi) for qi in qr])
    gur = np.array([U.grad(qi) for qi in qr])
    Hr = 0.5 * np.exp(2 * ur) * np.einsum("ij,ij->i", pr, pr)

    dtau = tau_grid[1] - tau_grid[0]
    dq = (qr[2:] - qr[:-2]) / (2 * dtau)
    dp = (pr[2:] - pr[:-2]) / (2 * dtau)
    dH_dp = np.exp(2 * ur)[:, None] * pr       # dq/dtau = dH/dp
    dH_dq = (np.exp(2 * ur) * np.einsum("ij,ij->i", pr, pr))[:, None] * gur
    resid_q = np.abs(dq - dH_dp[1:-1]).max()
    resid_p = np.abs(dp + dH_dq[1:-1]).max()

    return DettmannMorrissRecord(
        tau=tau_grid, q=qr, p=pr, H=Hr,
        H_drift=float(np.abs(H - H[0]).max()),
        hamilton_residual=float(max(resid_q, resid_p)),
    )


def omega_form(state, pert1, pert2, U):
    """Evaluate  omega = sum dv ^ dq - dU ^ (sum v dq)  on two tangent vectors.

    Perturbations are (xi, eta) pairs at the state, eta being the ordinary
    velocity perturbation.
    """
    xi1, eta1 = (np.asarray(a, dtype=float) for a in pert1)
    xi2, eta2 = (np.asarray(a, dtype=float) for a in pert2)
    v = state.v
    du = U.grad(state.q)
    pairing = float(eta1 @ xi2 - eta2 @ xi1)
    twist = float((du @ xi1) * (v @ xi2) - (du @ xi2) * (v @ xi1))
    return pairing - twist


@dataclass
class TangentPairRun:
    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    xi: np.ndarray    # (m, k, n)
    eta: np.ndarray
    int_phi: np.ndarray


def transport_tangent_pairs(scenario, initial, pairs, T, dt):
    """Co-integrate the isokinetic flow with full (xi, eta) linearizations.

    Flat-torus only; used for conformal-rate measurements of the 2-form above.
    """
    if not scenario.metric_family.is_flat:
        raise UnsupportedConfigurationError("tangent-pair transport is flat-torus only")
    n = scenario.dim
    k = len(pairs)
    n_steps = step_count(T, dt)
    o_eta = 2 * n + k * n

    def rhs(y):
        q, v = y[:n], y[n:2 * n]
        xi = y[2 * n:o_eta].reshape(k, n)
        eta = y[o_eta:].reshape(k, n)
        loc = scenario.local(q)
        dv, ev, _ = isokinetic_accel(loc, v, True)
        Axi = xi @ loc.dE.T
        dEta = (Axi - np.outer(Axi @ v, v) - np.outer(eta @ loc.E, v) - ev * eta)
        return np.concatenate((v, dv, eta.ravel(), dEta.ravel()))

    m = n_steps + 1
    ys = np.empty((m, 2 * n + 2 * k * n))
    Es = np.empty((m, n))
    y = np.concatenate([initial.q, initial.v]
                       + [p[0] for p in pairs] + [p[1] for p in pairs], dtype=float)
    for i in range(m):
        if i:
            y = rk4_step(rhs, y, dt, rhs(y))
            y[n:2 * n] /= g_norm(y[n:2 * n], None)
        ys[i] = y
        Es[i] = scenario.field(y[:n])

    times = initial.t + dt * np.arange(m)
    int_phi = cumulative_simpson(vecdot(ys[:, n:2 * n], Es), times)
    return TangentPairRun(times=times, q=ys[:, :n], v=ys[:, n:2 * n],
                          xi=ys[:, 2 * n:o_eta].reshape(m, k, n),
                          eta=ys[:, o_eta:].reshape(m, k, n), int_phi=int_phi)
