"""Linearized W-flow dynamics in normalized parallel frames.

The quotient linearization along a unit-speed trajectory reads

    d xi0 /dt = phi(e_a) xi_a
    d xi  /dt = -phi(v) xi + chi
    d chi /dt = -R xi,          R[a,b] = < Rhat_a(e_b, v) v , e_a >

in the frame v(t), e_1(t), ..., e_{n-1}(t) obtained by Weyl-parallel
transport rescaled by e^{int phi} (so frames stay g-orthonormal).  Lyapunov
exponents of the quotient system are extracted by the standard QR
(Benettin) procedure co-integrated with the base flow and the frame.

Each kernel call is one pass over its point: one scenario.local(q) lookup,
one product frame @ g and one phi(e_a) = (frame @ g) @ E, which the kernel
uses for the transport and hands to the Jacobi core (geometry._jacobi,
whose public wrapper is geometry.jacobi_operator).  The core builds R in
closed form from the Levi-Civita curvature and grad E (N X = grad_X E,
phi_c = phi(e_c)):

    R[a, b] = < R(e_b, v) v, e_a > - (sum_c phi_c^2 + < grad_v E, v >) delta_ab
              + phi_a phi_b - < grad_{e_b} E, e_a >

The diagonal shift is kept as the frame sum  sum_c phi_c^2, not as
|E|^2 - phi(v)^2: the two agree only when the frame completes a unit v, and
at RK4 stage points |v| is off 1 by about 1e-6.  The sum form matches the
tensor route there (both give exactly 0 on the flat 2-torus with constant E);
the other form moves the attractor exponents {0, -1} by about 0.16.  The last
term is not symmetrized, since R is not symmetric for a non-closed E.  The
full Weyl tensor (WeylScenario.curvature_hat_tensor) stays the test oracle.

One integrator (_co_integrate) advances the packed state [q, v, frame, M, xi0,
int phi] by RK4, where M is a block of k quotient tangent columns [xi; chi]
(k = 0 transports the frame alone and builds no Jacobi matrix), and cleans
the frame up by g-Gram-Schmidt every renorm_every steps.  It runs in one of
two modes:

* qr (lyapunov_spectrum): each cleanup also re-orthonormalizes the columns
  by QR, sums their log growth after the burn-in and, on the zero-field
  hyperbolic 2-d chart, recentres q so the run never nears the chart's
  boundary.  A QR event makes no kernel call of its own: its J-separation
  margin is read from the next step's k1, which evaluates the same
  post-cleanup, post-QR (q, v, frame), so a Lyapunov run of n steps makes
  4 n + 1 kernel calls.
* raw columns (linearized_run, transport_frame): the columns are never
  renormalized, q stays in the starting chart, and each column also carries
  its along-flow coordinate xi0; every sample records phi(v) and
  <R xi, xi>, the inputs of the J-form check.

Each RK4 stage writes its derivative into one fresh array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameCollapseError, NonFiniteStateError
from .flows import PhaseState, rk4_step, step_count
from .geometry import _jacobi
from .metrics import ConstantCurvatureChart

CLEANUP_EVERY = 10   # steps between frame cleanups in transport_frame and linearized_run


@dataclass
class MovingFrame:
    """Orthonormal frame (v, e_1..e_{n-1}) at a phase point."""

    state: PhaseState
    vectors: np.ndarray  # (n-1, n)


@dataclass
class TangentVector:
    """Quotient Jacobi data (xi, chi) plus the along-flow coordinate xi0."""

    xi0: float
    xi: np.ndarray
    chi: np.ndarray


@dataclass
class FrameRun:
    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    frames: np.ndarray   # (m, n-1, n)
    int_phi: np.ndarray


@dataclass
class LinearizedRun:
    times: np.ndarray
    xi: np.ndarray       # (m, n-1)
    chi: np.ndarray
    xi0: np.ndarray
    phi_v: np.ndarray
    curv_quad: np.ndarray  # <R xi, xi> at each sample
    jform: np.ndarray


@dataclass
class LyapunovReport:
    exponents: np.ndarray
    sbar: float
    pairing_residual: float
    trace_residual: float
    mean_jsep_margin: float
    volume_growth: float
    volume_decay: float
    T: float
    dt: float
    renorm_every: int
    finite_time: bool
    window_times: np.ndarray
    window_exponents: np.ndarray
    window_sbar: np.ndarray
    window_jsep: np.ndarray


def complete_frame(scenario, q, v):
    """g-orthonormal vectors e_1..e_{n-1} completing v at q."""
    return _g_gram_schmidt(scenario.metric(q), v, np.eye(scenario.dim), 1e-8)


def _g_gram_schmidt(g, v, rows, tol):
    """g-orthonormal vectors e_1..e_{n-1} completing v, from the candidate rows in order.

    A candidate whose remainder after projecting out v and the vectors kept so
    far has g-norm at most tol is skipped; the frame is the first n - 1 kept.
    complete_frame offers the coordinate axes (tol 1e-8), a cleanup the
    drifted frame itself (tol 1e-6, so any collapsed row fails it).
    """
    n = len(v)
    basis = [v / np.sqrt(v @ g @ v)]
    for cand in rows:
        for b in basis:
            cand = cand - (b @ g @ cand) * b
        norm = np.sqrt(max(cand @ g @ cand, 0.0))
        if norm > tol:
            basis.append(cand / norm)
            if len(basis) == n:
                return np.array(basis[1:])
    raise FrameCollapseError("could not complete an orthonormal frame")


class _Kernel:
    """Per-step geometric coefficients for the co-integrated system.

    A call is ``transport`` (the flow and frame derivatives) followed by the
    Jacobi core on the products ``transport`` formed; a run without tangent
    columns calls ``transport`` alone.
    """

    def __init__(self, scenario):
        self.sc = scenario
        self.flat = scenario.metric_family.is_flat

    def __call__(self, q, v, frame):
        phi_v, phi_e, dv, de, (loc, ge) = self.transport(q, v, frame)
        return phi_v, phi_e, dv, de, _jacobi(self.sc, q, loc, v, frame, ge, phi_e)

    def transport(self, q, v, frame):
        """phi(v), phi(e_a), dv/dt, de/dt, and the point record and frame @ g
        that the Jacobi core reads."""
        loc = self.sc.local(q)
        E = loc.E
        ge = frame if self.flat else frame @ loc.g    # rows: <e_a, .>
        phi_e = ge @ E
        phi_v = float((E if self.flat else loc.phi) @ v)
        dv = E - phi_v * v
        # normalized Weyl transport: de = -Gamma(v,e) - phi(e) v + <v,e> E
        de = (ge @ v)[:, None] * E - phi_e[:, None] * v
        if not self.flat:
            # gv[k, j] = Gamma^k_{ij} v^i
            gv = loc.gamma.transpose(0, 2, 1) @ v
            dv = dv - gv @ v
            de = de - frame @ gv.T
        return phi_v, phi_e, dv, de, (loc, ge)


def transport_frame(scenario, trajectory):
    """Weyl-parallel transport of an initial orthonormal frame along a trajectory,
    normalized by e^{int phi}; returns the frame history in the trajectory's chart."""
    run = _co_integrate(scenario, trajectory.state(0),
                        T=(len(trajectory.times) - 1) * trajectory.dt, dt=trajectory.dt,
                        renorm_every=CLEANUP_EVERY, M0=np.zeros((2 * (scenario.dim - 1), 0)))
    return FrameRun(times=run["times"], q=run["q"], v=run["v"],
                    frames=run["frames"], int_phi=run["int_phi"])


def linearized_rhs(scenario, frame, tangent):
    """Right-hand side of the quotient linearization at a single frame point."""
    phi_v, phi_e, _, _, Rmat = _Kernel(scenario)(frame.state.q, frame.state.v, frame.vectors)
    dxi0 = float(phi_e @ tangent.xi)
    dxi = -phi_v * tangent.xi + tangent.chi
    dchi = -Rmat @ tangent.xi
    return dxi0, dxi, dchi


def jform(xi, chi):
    """J(xi, chi) = <xi, chi> in frame coordinates."""
    return float(np.dot(xi, chi))


def _jsep_margin(M, Rmat):
    """(|chi|^2 - <R xi, xi>) / (|xi|^2 + |chi|^2) for the first column [xi; chi] of M."""
    nm1 = len(Rmat)
    xi, chi = M[:nm1, 0], M[nm1:, 0]
    return float(chi @ chi - xi @ (Rmat @ xi)) / float(xi @ xi + chi @ chi)


def _co_integrate(scenario, initial, T, dt, renorm_every, M0, qr=False, burn_in=0.0):
    """Co-integrate the flow, its frame and the tangent columns M0, (2(n-1), k).

    k = 0 transports the frame alone.  Every renorm_every steps the frame is
    cleaned up; with qr the columns are also re-orthonormalized (see the
    module docstring), otherwise they stay raw and the run also records xi0,
    phi(v) and <R xi, xi> per sample.
    """
    n = scenario.dim
    nm1 = n - 1
    k = M0.shape[1]
    kern = _Kernel(scenario)

    fam = scenario.metric_family
    recenter = (qr and isinstance(fam, ConstantCurvatureChart) and fam.K < 0
                and fam.dim == 2 and scenario.field_is_zero)

    n_steps = step_count(T, dt)
    burn_steps = int(round(burn_in / dt))
    if burn_steps:
        # align the burn boundary with a QR event so accumulation starts clean
        burn_steps = renorm_every * int(np.ceil(burn_steps / renorm_every))
    m = n_steps + 1

    # packed state y = [q, v, frame, M, xi0, int_phi]; int_phi has derivative phi(v),
    # xi0 (one per raw column) has derivative phi(e_a) xi_a
    o_e = 2 * n
    o_M = o_e + nm1 * n
    o_x = o_M + 2 * nm1 * k
    o_p = o_x + (0 if qr else k)

    def split(y):
        return (y[:n], y[n:o_e], y[o_e:o_M].reshape(nm1, n), y[o_M:o_x].reshape(2 * nm1, k))

    def deriv(y):
        # a fresh array per call: rk4_step holds k1..k4 at once, and k1 is read again
        q, v, frame, M = split(y)
        if not k:          # the frame alone: no column reads the Jacobi matrix
            phi_v, _, dv, de, _ = kern.transport(q, v, frame)
            return np.concatenate((v, dv, de.ravel(), [phi_v])), None
        phi_v, phi_e, dv, de, Rmat = kern(q, v, frame)
        out = np.empty(len(y))
        out[:n] = v
        out[n:o_e] = dv
        out[o_e:o_M] = de.ravel()
        Mxi = M[:nm1]
        dM = out[o_M:o_x].reshape(2 * nm1, k)
        np.multiply(Mxi, -phi_v, out=dM[:nm1])
        dM[:nm1] += M[nm1:]
        np.matmul(-Rmat, Mxi, out=dM[nm1:])
        if not qr:
            np.matmul(phi_e, Mxi, out=out[o_x:o_p])
        out[-1] = phi_v
        return out, Rmat

    def rhs(y):
        return deriv(y)[0]

    q = np.array(initial.q, dtype=float)
    v = np.array(initial.v, dtype=float)
    v = v / scenario.norm(q, v)
    y = np.concatenate((q, v, complete_frame(scenario, q, v).ravel(), M0.ravel(),
                        np.zeros(o_p - o_x), [0.0]))

    hist = np.empty((m, o_p + 1))
    out = {
        "times": initial.t + dt * np.arange(m),
        "q": hist[:, :n], "v": hist[:, n:o_e],
        "frames": hist[:, o_e:o_M].reshape(m, nm1, n),
        "M": hist[:, o_M:o_x].reshape(m, 2 * nm1, k), "int_phi": hist[:, o_p],
    }
    if qr:
        lsum = np.zeros(k)
        windows = {"t": [], "lam": [], "sbar": [], "jsep": []}
        out.update(lsum=lsum, windows=windows, burn_steps=burn_steps)
    else:
        out.update(xi0=hist[:, o_x:o_p], phi_v=np.empty(m), curv_quad=np.empty((m, k)))

    margin_due = False   # a QR event left its J-separation margin to this k1
    for i in range(n_steps + 1):
        k1, Rmat = deriv(y)
        hist[i] = y
        if margin_due:
            # the post-cleanup, post-QR (q, v, frame) of the event is this k1's point
            windows["jsep"].append(_jsep_margin(split(y)[3], Rmat))
            margin_due = False
        if not qr:
            out["phi_v"][i] = k1[-1]
            if k:
                Mxi = split(y)[3][:nm1]
                out["curv_quad"][i] = np.einsum("ab,aj,bj->j", Rmat, Mxi, Mxi)
        if i == n_steps:
            break
        y = rk4_step(rhs, y, dt, k1)
        q, v, frame, M = split(y)
        if not np.isfinite(M).all():
            raise NonFiniteStateError(f"non-finite tangent growth at step {i + 1}")

        if kern.flat:
            g = None
            v /= np.linalg.norm(v)
        else:
            g = scenario.metric(q)
            v /= np.sqrt(v @ g @ v)

        step_no = i + 1
        if step_no % renorm_every == 0:
            gg = np.eye(n) if g is None else g
            gram = frame @ gg @ frame.T
            if np.abs(gram - np.eye(n - 1)).max() > 0.5:
                raise FrameCollapseError("frame drifted too far between cleanups")
            frame[:] = _g_gram_schmidt(gg, v, frame, 1e-6)
            if recenter:
                move, push = fam.recenter_map(q)
                v[:] = push(q, v)
                frame[:] = np.array([push(q, e) for e in frame])
                q[:] = move(q)
            if qr:
                Q, R = np.linalg.qr(M)
                diag = np.diag(R)
                sign = np.where(diag >= 0, 1.0, -1.0)
                M[:] = Q * sign
                if step_no > burn_steps:
                    lsum += np.log(np.abs(diag))
                    t_since = (step_no - burn_steps) * dt
                    windows["t"].append(initial.t + step_no * dt)
                    windows["lam"].append(lsum / t_since)
                    windows["sbar"].append(-float(y[-1]) / (step_no * dt))
                    margin_due = True
    return out


def linearized_run(scenario, initial, tangent, T, dt):
    """Integrate one quotient tangent vector along the flow; returns the J-form history."""
    col = np.concatenate([tangent.xi, tangent.chi])[:, None]
    run = _co_integrate(scenario, initial, T, dt, renorm_every=CLEANUP_EVERY, M0=col)
    nm1 = scenario.dim - 1
    xi = run["M"][:, :nm1, 0]
    chi = run["M"][:, nm1:, 0]
    return LinearizedRun(
        times=run["times"], xi=xi, chi=chi,
        xi0=run["xi0"][:, 0] + tangent.xi0,
        phi_v=run["phi_v"],
        curv_quad=run["curv_quad"][:, 0],
        jform=np.einsum("ij,ij->i", xi, chi),
    )


@dataclass
class JFormCheck:
    max_residual: float
    scale: float
    crossings: list  # (t, rhs at J ~ 0) pairs


def jform_derivative_check(run):
    """Compare numerical dJ/dt against  chi^2 - phi(v) J - <R xi, xi>.

    Also locates J = 0 crossings and reports the right-hand side there (the
    strict separation probe: positive values certify dJ/dt > 0 at J = 0).
    """
    t = run.times
    J = run.jform
    rhs = np.einsum("ij,ij->i", run.chi, run.chi) - run.phi_v * J - run.curv_quad
    # five-point central derivative: truncation O(dt^4)
    dt = t[1] - t[0]
    dJ = (-J[4:] + 8 * J[3:-1] - 8 * J[1:-3] + J[:-4]) / (12 * dt)
    resid = np.abs(dJ - rhs[2:-2])
    scale = max(np.abs(rhs).max(), np.abs(dJ).max(), 1e-30)
    crossings = []
    sign = np.sign(J)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        w = J[i] / (J[i] - J[i + 1])
        t_star = t[i] + w * (t[i + 1] - t[i])
        rhs_star = rhs[i] + w * (rhs[i + 1] - rhs[i])
        crossings.append((float(t_star), float(rhs_star)))
    near_zero = np.nonzero(np.abs(J) < 1e-6)[0]
    for i in near_zero:
        crossings.append((float(t[i]), float(rhs[i])))
    return JFormCheck(max_residual=float(resid.max()), scale=float(scale),
                      crossings=crossings)


def lyapunov_spectrum(scenario, initial, T, dt, renorm_every=10, burn_in=0.0):
    """Quotient Lyapunov spectrum by co-integrated QR (Benettin) extraction."""
    n = scenario.dim
    k = 2 * (n - 1)
    run = _co_integrate(scenario, initial, T, dt, renorm_every, M0=np.eye(k), qr=True,
                        burn_in=burn_in)
    burn_steps = run["burn_steps"]
    t_eff = (step_count(T, dt) - burn_steps) * dt
    # include growth still held in M after the last QR
    _, R = np.linalg.qr(run["M"][-1])
    lsum = run["lsum"] + np.log(np.abs(np.diag(R)))
    raw = lsum / t_eff
    order = np.argsort(raw)[::-1]
    exps = raw[order]

    windows = run["windows"]
    w_t = np.array(windows["t"])
    w_lam = np.array(windows["lam"]) if windows["lam"] else np.zeros((0, k))
    w_sbar = np.array(windows["sbar"])
    w_jsep = np.array(windows["jsep"])

    phi_slice = run["int_phi"]
    sbar = float(-(phi_slice[-1] - phi_slice[burn_steps]) / t_eff) if t_eff > 0 else 0.0

    pair_sums = exps + exps[::-1]
    pairing_residual = float(np.abs(pair_sums - sbar).max())
    trace_residual = float(abs(exps.sum() - (n - 1) * sbar))
    finite_time = isinstance(scenario.metric_family, ConstantCurvatureChart)

    return LyapunovReport(
        exponents=exps, sbar=sbar,
        pairing_residual=pairing_residual,
        trace_residual=trace_residual,
        mean_jsep_margin=float(w_jsep.mean()) if len(w_jsep) else float("nan"),
        volume_growth=float(exps[: n - 1].sum()),
        volume_decay=float(exps[n - 1:].sum()),
        T=T, dt=dt, renorm_every=renorm_every,
        finite_time=finite_time,
        window_times=w_t, window_exponents=w_lam,
        window_sbar=w_sbar, window_jsep=w_jsep,
    )
