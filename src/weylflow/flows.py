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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .errors import (
    InvalidEnergyLevelError,
    InvalidStepError,
    KineticFloorError,
    NonFiniteStateError,
    NotLocallyPotentialError,
    UnsupportedConfigurationError,
)
from .fields import ReducedField

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
    spec: object = None

    def state(self, i=-1):
        return PhaseState(self.q[i].copy(), self.v[i].copy(), float(self.times[i]))


# -- right-hand sides --------------------------------------------------------

def isokinetic_rhs(scenario, state):
    """Gaussian thermostat on |v| = 1:  Dv/dt = E - <E, v> v.

    Returns (dq/dt, dv/dt) with dv/dt = E - <E,v> v - Gamma(v, v).
    """
    return _isokinetic_rhs(scenario, state.q, state.v)


def _isokinetic_rhs(scenario, q, v):
    loc = scenario.local(q)
    if scenario.metric_family.is_flat:
        return v, loc.E - float(loc.E @ v) * v
    return v, loc.E - float(loc.phi @ v) * v - np.einsum("kij,i,j->k", loc.gamma, v, v)


def isoenergetic_rhs(scenario, spec, state):
    """Isoenergetic thermostat:  Dv/dt = -grad W + E - (<E,v>/v^2) v."""
    return _isoenergetic_rhs(scenario, spec, state.q, state.v)


def _isoenergetic_rhs(scenario, spec, q, v):
    jet = scenario.metric_family.jet(q)
    E = spec.field.jet(q, jet)[0]
    gw = spec.potential.grad(q)
    if scenario.metric_family.is_flat:
        v2 = float(v @ v)
        if v2 < KINETIC_FLOOR:
            raise KineticFloorError(f"kinetic energy {v2:.3e} below floor at q={q}")
        phi_v = float(E @ v)
        return v, -gw + E - (phi_v / v2) * v
    gv = jet.g @ v
    v2 = float(v @ gv)
    if v2 < KINETIC_FLOOR:
        raise KineticFloorError(f"kinetic energy {v2:.3e} below floor at q={q}")
    phi_v = float(gv @ E)
    return v, (-jet.ginv @ gw + E - (phi_v / v2) * v
               - np.einsum("kij,i,j->k", jet.gamma, v, v))


def weyl_geodesic_rhs(scenario, q, w):
    """Weyl geodesic with its distinguished parameter:  dw/ds = -Ghat(w, w)."""
    w = np.asarray(w, dtype=float)
    if float(w @ w) == 0.0:
        raise UnsupportedConfigurationError("weyl geodesic undefined at w = 0")
    ghat = scenario.weyl_christoffel(q)
    return w, -np.einsum("kij,i,j->k", ghat, w, w)


def covariant_accel(scenario, q, v, dv):
    """Dv/dt = dv/dt + Gamma(v, v)."""
    gamma = scenario.christoffel(q)
    return dv + np.einsum("kij,i,j->k", gamma, v, v)


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
    """One classical RK4 step of y' = rhs(y) from y, given k1 = rhs(y)."""
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate(scenario, initial, T, dt, kind="isokinetic", spec=None):
    """Classical fixed-step RK4 with post-step constraint projection.

    kind: 'isokinetic' (project |v|_g = 1), 'isoenergetic' (restore
    H = h via speed rescaling; requires spec), or 'weyl_geodesic' (no
    projection).  Accumulates the line integral of phi by Simpson quadrature
    on the stored samples.
    """
    n_steps = step_count(T, dt)
    if kind == "isoenergetic" and spec is None:
        raise ValueError("isoenergetic integration needs an IsoenergeticSpec")

    if kind == "isokinetic":
        rhs = lambda q, v: _isokinetic_rhs(scenario, q, v)
    elif kind == "isoenergetic":
        rhs = lambda q, v: _isoenergetic_rhs(scenario, spec, q, v)
    elif kind == "weyl_geodesic":
        rhs = lambda q, v: weyl_geodesic_rhs(scenario, q, v)
    else:
        raise ValueError(f"unknown kind {kind!r}")

    n = scenario.dim

    def f(y):
        return np.concatenate(rhs(y[:n], y[n:]))

    ys = np.empty((n_steps + 1, 2 * n))
    y = np.concatenate((initial.q, initial.v), dtype=float)
    ys[0] = y
    for i in range(n_steps):
        y = rk4_step(f, y, dt, f(y))
        if not np.isfinite(y).all():
            raise NonFiniteStateError(f"non-finite state at step {i + 1}")
        y[n:] = _project(scenario, spec, kind, y[:n], y[n:])
        ys[i + 1] = y

    return _assemble_trajectory(scenario, spec, kind, dt, initial.t, ys[:, :n], ys[:, n:])


def _project(scenario, spec, kind, q, v):
    if kind == "weyl_geodesic":
        return v
    speed = scenario.norm(q, v)
    if kind == "isokinetic":
        return v / speed
    kinetic = 2.0 * (spec.h - spec.potential.value(q))
    if kinetic < KINETIC_FLOOR:
        raise KineticFloorError(f"kinetic energy {kinetic:.3e} below floor at q={q}")
    return v * (np.sqrt(kinetic) / speed)


def _assemble_trajectory(scenario, spec, kind, dt, t0, qs, vs):
    m = len(qs)
    times = t0 + dt * np.arange(m)
    phi_v = np.empty(m)
    speed = np.empty(m)
    energy_residual = np.zeros(m)
    for i in range(m):
        if kind == "isoenergetic":
            jet = scenario.metric_family.jet(qs[i])
            g, E = jet.g, spec.field.jet(qs[i], jet)[0]
        else:
            loc = scenario.local(qs[i])
            g, E = loc.g, loc.E
        gv = g @ vs[i]
        speed[i] = np.sqrt(vs[i] @ gv)
        phi_v[i] = gv @ E
        if kind == "isoenergetic":
            energy_residual[i] = 0.5 * speed[i] ** 2 + spec.potential.value(qs[i]) - spec.h
    int_phi = cumulative_simpson(phi_v, x=times, initial=0.0)
    arc_length = cumulative_simpson(speed, x=times, initial=0.0)
    if kind == "isokinetic":
        speed_residual = speed - 1.0
    elif kind == "isoenergetic":
        w_vals = np.array([spec.potential.value(qs[i]) for i in range(m)])
        speed_residual = speed - np.sqrt(np.maximum(2.0 * (spec.h - w_vals), 0.0))
    else:
        speed_residual = speed - np.exp(-int_phi)
    return Trajectory(times=times, q=qs, v=vs, phi_v=phi_v,
                      speed_residual=speed_residual,
                      energy_residual=energy_residual, int_phi=int_phi,
                      arc_length=arc_length, kind=kind, dt=dt,
                      scenario=scenario, spec=spec)


def reparametrize_by_arclength(traj, s_grid):
    """Cubic-interpolated samples q(s) of the trajectory at the given arc lengths."""
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

    # field must be locally potential with the supplied potential along the path
    worst = 0.0
    for i in range(0, len(traj.times), max(1, len(traj.times) // 64)):
        q = traj.q[i]
        loc = sc.local(q)
        resid = np.abs(loc.E + U.grad(q)).max()
        jac = loc.dE
        closed = np.abs(jac - jac.T).max()
        worst = max(worst, resid, closed)
    if worst > 1e-8:
        raise NotLocallyPotentialError(
            f"field is not -grad U along the path (residual {worst:.3e})")

    u = np.array([U.value(qi) for qi in traj.q])
    tau = cumulative_simpson(np.exp(-u), x=traj.times, initial=0.0)
    p = np.exp(-u)[:, None] * traj.v
    H = 0.5 * np.exp(2 * u) * np.einsum("ij,ij->i", p, p)

    q_spline = CubicSpline(tau, traj.q, axis=0)
    p_spline = CubicSpline(tau, p, axis=0)
    m = len(tau)
    tau_grid = np.linspace(tau[0], tau[-1], m)
    qr = q_spline(tau_grid)
    pr = p_spline(tau_grid)
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
        E, A = loc.E, loc.dE
        ev = float(E @ v)
        Axi = xi @ A.T
        dEta = (Axi - np.outer(Axi @ v, v) - np.outer(eta @ E, v) - ev * eta)
        return np.concatenate((v, E - ev * v, eta.ravel(), dEta.ravel()))

    m = n_steps + 1
    ys = np.empty((m, 2 * n + 2 * k * n))
    y = np.concatenate([initial.q, initial.v]
                       + [p[0] for p in pairs] + [p[1] for p in pairs], dtype=float)
    ys[0] = y
    phis = np.empty(m)
    phis[0] = float(scenario.field(y[:n]) @ y[n:2 * n])
    for i in range(n_steps):
        y = rk4_step(rhs, y, dt, rhs(y))
        q, v = y[:n], y[n:2 * n]
        v /= np.linalg.norm(v)
        ys[i + 1] = y
        phis[i + 1] = float(scenario.field(q) @ v)

    times = initial.t + dt * np.arange(m)
    int_phi = cumulative_simpson(phis, x=times, initial=0.0)
    return TangentPairRun(times=times, q=ys[:, :n], v=ys[:, n:2 * n],
                          xi=ys[:, 2 * n:o_eta].reshape(m, k, n),
                          eta=ys[:, o_eta:].reshape(m, k, n), int_phi=int_phi)
