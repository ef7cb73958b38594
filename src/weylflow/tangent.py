"""Linearized W-flow dynamics in normalized parallel frames.

The quotient linearization along a unit-speed trajectory reads

    d xi0 /dt = phi(e_a) xi_a
    d xi  /dt = -phi(v) xi + chi
    d chi /dt = -R xi,          R[a,b] = < Rhat_a(e_b, v) v , e_a >

in the frame v(t), e_1(t), ..., e_{n-1}(t) obtained by Weyl-parallel
transport rescaled by e^{int phi} (so frames stay g-orthonormal).  Lyapunov
exponents of the quotient system are extracted by the standard QR
(Benettin) procedure co-integrated with the base flow and the frame.

The Jacobi formula (geometry._jacobi) builds R in closed form from the
Levi-Civita curvature and grad E (N X = grad_X E, phi_c = phi(e_c)):

    R[a, b] = < R(e_b, v) v, e_a > - (sum_c phi_c^2 + < grad_v E, v >) delta_ab
              + phi_a phi_b - < grad_{e_b} E, e_a >

The diagonal shift is kept as the frame sum  sum_c phi_c^2, not as
|E|^2 - phi(v)^2: the two agree only when the frame completes a unit v, and
at RK4 stage points |v| is off 1 by about 1e-6.  The sum form matches the
tensor route there (both give exactly 0 on the flat 2-torus with constant E);
the other form moves the attractor exponents {0, -1} by about 0.16.  The last
term is not symmetrized, since R is not symmetric for a non-closed E.  The
full Weyl tensor (WeylScenario.curvature_hat_tensor) stays the test oracle.

One integrator (_co_integrate) advances the flow, the frame and a block M of
k quotient tangent columns [xi; chi] by RK4 (k = 0 transports the frame
alone and builds no Jacobi matrix), and cleans the frame up by g-Gram-Schmidt
every renorm_every steps.  The base flow and int phi read neither the frame
nor M, the frame never reads M, and M obeys the linear system M' = A(t) M,
A = [[-phi(v), 1], [-R, 0]], so each block of BLOCK steps runs in two passes:

* pass 1 advances [q, v, int phi] with rk4_step, step after step.  Its
  stage function calls scenario.point(q) and flows.isokinetic_accel, and the
  projection calls flows.g_norm, so q and v carry the bits of
  flows.integrate's isokinetic run, and q, v and int phi do not depend on k.
  Each of its 4 b + 1 stage points (4 per step and the next step's k1)
  stores [q, v, int phi] and the point record in a stage row; each cleanup
  step stores the g and v that the frame's cleanup reads, and on a
  recentring step the q before the move;
* pass 2 first steps the frame.  Its rows obey F' = F B, linear in F, with
  B = g v (x) E - g E (x) v - (Gamma v)^T read from the base stage, so it
  builds A = B^T at the block's 4 b stage points as one stack and advances
  F <- F P^T, one product per step; each cleanup step runs the finiteness
  check, the Gram drift gate, the g-Gram-Schmidt cleanup and the recentring
  push.  Then one geometry._jacobi call over the block's stage rows, at the
  stage frames that _propagators' stage maps give, builds each point's field
  Jacobian, N = grad E, the Levi-Civita curvature, W = R(., v) v - N, the
  shift < grad_v E, v >, phi(e_a) and the Jacobi matrices, each as one
  stacked evaluation, and M advances by M <- P M.  _propagators is the one
  home of the RK4 coefficients, so the frame and M differ only by roundoff
  from stepping them with the base.  A frame-only run is pass 1 and the
  frame half of pass 2.

Memory does not grow with T: the stage rows hold one block.  The run is in
one of two modes:

* qr (lyapunov_spectrum): each cleanup also re-orthonormalizes the columns
  by QR, sums their log growth after the burn-in and, on the zero-field
  hyperbolic 2-d chart, recentres q so the run never nears the chart's
  boundary.  A QR event's J-separation margin is read at the next step's k1,
  the stage point of the post-cleanup, post-QR (q, v, frame), so a Lyapunov
  run of n steps has 4 n + 1 stage points.
* raw columns (linearized_run, and a frame-only run with k = 0): the columns
  are never renormalized, q stays in the starting chart, and each column also
  carries its along-flow coordinate xi0 (one more row of the linear system,
  xi0' = phi(e_a) xi_a); every sample records phi(v) and <R xi, xi>, the
  inputs of the J-form check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameCollapseError, NonFiniteStateError, UnsupportedConfigurationError
from .flows import g_norm, isokinetic_accel, rk4_step, step_count
from .geometry import _jacobi
from .metrics import ConstantCurvatureChart, matvec, vecmat
from .scenario import PointRecord

CLEANUP_EVERY = 10   # steps between frame cleanups in linearized_run
BLOCK = 64           # steps per two-pass block of the co-integration


@dataclass
class TangentVector:
    """Quotient Jacobi data (xi, chi) plus the along-flow coordinate xi0."""

    xi0: float
    xi: np.ndarray
    chi: np.ndarray


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
    basis = [v / math.sqrt(v.dot(g).dot(v))]
    for cand in rows:
        for b in basis:
            cand = cand - b.dot(g).dot(cand) * b
        norm = math.sqrt(max(cand.dot(g).dot(cand), 0.0))
        if norm > tol:
            basis.append(cand / norm)
            if len(basis) == n:
                return np.array(basis[1:])
    raise FrameCollapseError("could not complete an orthonormal frame")


def burn_steps(burn_in, dt, renorm_every):
    """The burn-in in steps, rounded up to a renormalization event so that the
    exponent sums start at a clean QR."""
    steps = int(round(burn_in / dt))
    return renorm_every * -(-steps // renorm_every)


def _propagators(A, dt):
    """RK4 propagators (b, d, d) of y' = A(t) y from its (4 b, d, d) stage
    matrices A_1..A_4 of each step, in step order, and each step's stage maps
    (b, 3, d, d):

        P = I + dt/6 (K1 + 2 K2 + 2 K3 + K4),  K1 = A_1,  K2 = A_2 (I + dt/2 K1),
        K3 = A_3 (I + dt/2 K2),  K4 = A_4 (I + dt K3),

    so that P y is the classical RK4 step of y, and the maps I + dt/2 K1,
    I + dt/2 K2 and I + dt K3 take y to the step's stage points 2, 3 and 4.
    """
    A1, A2, A3, A4 = A[0::4], A[1::4], A[2::4], A[3::4]
    K2 = A2 + (0.5 * dt) * (A2 @ A1)
    K3 = A3 + (0.5 * dt) * (A3 @ K2)
    K4 = A4 + dt * (A4 @ K3)
    P = (dt / 6.0) * (A1 + 2.0 * (K2 + K3) + K4)
    maps = np.stack((A1, K2, K3), axis=1) * np.array([0.5 * dt, 0.5 * dt, dt])[:, None, None]
    d = A.shape[-1]
    for X in (P, maps):
        X.reshape(-1, d * d)[:, :: d + 1] += 1.0
    return P, maps


def _first_nonfinite(Mh, a, b):
    """Raise NonFiniteStateError at the first sample a..b-1 with a non-finite column."""
    finite = np.isfinite(Mh[a:b]).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteStateError(
            f"non-finite tangent growth at step {a + int(np.argmin(finite))}")


def _co_integrate(scenario, initial, T, dt, renorm_every, M0, qr=False, burn_in=0.0):
    """Co-integrate the flow, its frame and the tangent columns M0, (2(n-1), k).

    k = 0 transports the frame alone.  Every renorm_every steps the frame is
    cleaned up; with qr the columns are also re-orthonormalized (see the
    module docstring), otherwise they stay raw and the run also records xi0,
    phi(v) and <R xi, xi> per sample.  Each block of BLOCK steps runs pass 1
    (q, v and int phi, recording the stages) then pass 2 (the frame, then the
    columns), so a frame failure surfaces once its block's pass 1 is done.
    """
    n = scenario.dim
    nm1 = n - 1
    k = M0.shape[1]
    point = scenario.point

    fam = scenario.metric_family
    flat = fam.is_flat
    recenter = (qr and isinstance(fam, ConstantCurvatureChart) and fam.K < 0
                and fam.dim == 2 and scenario.field_is_zero)

    n_steps = step_count(T, dt)
    burn = burn_steps(burn_in, dt, renorm_every)
    if qr and burn >= n_steps:
        raise UnsupportedConfigurationError(
            f"burn_in={burn_in!r} rounds up to step {burn} of {n_steps} (a QR event every "
            f"{renorm_every} steps), leaving no steps to average over")
    m = n_steps + 1
    block = min(BLOCK, n_steps)
    S = 4 * block + 1          # stage rows of a block: 4 per step and the next step's k1

    # pass 1 state y = [q, v, int_phi]; int_phi has derivative phi(v)
    hist = np.empty((m, 2 * n + 1))
    frames = np.empty((m, nm1, n))
    # the column state [xi; chi] (and, raw, the row xi0' = phi(e_a) xi_a): M' = A M
    d = 2 * nm1 + (0 if qr else 1)
    Mh = np.empty((m, d, k))
    Mh[0, :2 * nm1] = M0
    Mh[0, 2 * nm1:] = 0.0
    out = {
        "times": initial.t + dt * np.arange(m),
        "q": hist[:, :n], "v": hist[:, n:-1], "frames": frames,
        "M": Mh[:, :2 * nm1], "int_phi": hist[:, -1],
    }
    if qr:
        lsum = np.zeros(k)
        windows = {"t": [], "lam": [], "sbar": [], "jsep": []}
        out.update(lsum=lsum, windows=windows, burn_steps=burn)
    else:
        out.update(xi0=Mh[:, 2 * nm1], phi_v=np.empty(m), curv_quad=np.empty((m, k)))

    # stage rows: rk4_step's k1..k4 (phi(v) in the last column) and what pass 2 reads:
    # the stage's [q, v, int_phi] and its point record but phi (g, g^-1, dg, Gamma, E)
    kst = np.empty((S, 2 * n + 1))
    yst = np.empty((S, 2 * n + 1))
    ptst = [np.empty((S,) + (n,) * rank) for rank in (2, 2, 3, 3, 1)]
    stages = [kst, yst, *ptst]
    # what each step's cleanup reads: g and v, and q before a recentring move
    g_c, v_c, q_c = np.empty((block, n, n)), np.empty((block, n)), np.empty((block, n))
    if k:
        fst = np.empty((S, nm1, n))
        pst = np.empty((S, nm1))
        Rst = np.empty((S, nm1, nm1))
        stages += [pst, Rst]
        diag = np.arange(nm1)
        A = np.zeros((S - 1, d, d))
        A[:, diag, diag + nm1] = 1.0
    row = [0]

    def rhs(y):
        # pass 1: the base derivative, written into its stage row with the point record
        r = row[0]
        row[0] = r + 1
        v = y[n:-1]
        pt = point(y[:n])
        dv, phi_v, _ = isokinetic_accel(pt, v, flat)
        yst[r] = y
        for buf, a in zip(ptst, pt):
            buf[r] = a
        return np.concatenate((v, dv, [phi_v]), out=kst[r])

    def pass2(i0, b):
        # steps i0..i0+b-1, whose stage rows 0..4b are written; row 0 of a later block is
        # the last block's final row, whose Jacobi matrix is already made.  The frame first:
        # its rows obey F' = F Af^T, Af = E (g v)^T - v (g E)^T - Gamma v at each stage
        g, E, v = ptst[0][:4 * b], ptst[4][:4 * b], yst[:4 * b, n:-1]
        Af = (E[:, :, None] * matvec(g, v)[:, None, :] - v[:, :, None] * matvec(g, E)[:, None, :]
              - vecmat(v[:, None, :], ptst[3][:4 * b]))
        P, maps = _propagators(Af, dt)
        for j in range(b):
            s = i0 + j + 1
            frame = frames[s]
            frames[s - 1].dot(P[j].T, out=frame)
            if s % renorm_every == 0:
                if not np.isfinite(frame).all():
                    raise NonFiniteStateError(f"non-finite state by step {s}")
                gram = frame.dot(g_c[j]).dot(frame.T)
                if np.abs(gram - np.eye(nm1)).max() > 0.5:
                    raise FrameCollapseError("frame drifted too far between cleanups")
                frame[:] = _g_gram_schmidt(g_c[j], v_c[j], frame, 1e-6)
                if recenter:
                    q = q_c[j]
                    push = fam.recenter_map(q)[1]
                    frame[:] = [push(q, e) for e in frame]
        # then the columns
        i1 = i0 + b
        rows = slice(0, 4 * b + 1, 4)          # the stage rows of samples i0..i1
        if not qr:
            out["phi_v"][i0:i1 + 1] = kst[rows, -1]
        if not k:
            return
        # the stage frames: F at each step's start, then F (I + ...)^T by its stage maps
        F = frames[i0:i1, None]
        fst4 = fst[:4 * b].reshape(b, 4, nm1, n)
        fst4[:, :1] = F
        fst4[:, 1:] = F @ maps.transpose(0, 1, 3, 2)
        fst[4 * b] = frames[i1]
        lo, hi = (1 if i0 else 0), 4 * b + 1
        pts = PointRecord(*(buf[lo:hi] for buf in ptst), None)
        Rst[lo:hi], pst[lo:hi] = _jacobi(scenario, yst[lo:hi, :n], pts, yst[lo:hi, n:-1],
                                         fst[lo:hi])
        Ab = A[:4 * b]
        Ab[:, diag, diag] = -kst[:4 * b, -1, None]
        Ab[:, nm1:2 * nm1, :nm1] = -Rst[:4 * b]
        if not qr:
            Ab[:, 2 * nm1, :nm1] = pst[:4 * b]
        P = _propagators(Ab, dt)[0]
        events = []
        checked = i0 + 1
        for j in range(b):
            s = i0 + j + 1
            M = Mh[s]
            np.matmul(P[j], Mh[s - 1], out=M)
            if qr and s % renorm_every == 0:
                _first_nonfinite(Mh, checked, s + 1)
                checked = s + 1
                Q, R = np.linalg.qr(M)
                dR = np.diag(R)
                M[:] = Q * np.where(dR >= 0, 1.0, -1.0)
                if s > burn:
                    lsum[:] += np.log(np.abs(dR))
                    windows["t"].append(initial.t + s * dt)
                    windows["lam"].append(lsum / ((s - burn) * dt))
                    windows["sbar"].append(-float(hist[s, -1]) / (s * dt))
                    events.append(s)
        _first_nonfinite(Mh, checked, i1 + 1)
        if events:
            # each margin reads the post-cleanup, post-QR state at the next step's k1
            ev = np.array(events)
            windows["jsep"].extend(_jsep_margins(Mh[ev, :, 0], Rst[4 * (ev - i0)]))
        if not qr:
            Mxi = Mh[i0:i1 + 1, :nm1]
            out["curv_quad"][i0:i1 + 1] = np.einsum("sab,saj,sbj->sj", Rst[rows], Mxi, Mxi)

    q = np.array(initial.q, dtype=float)
    v = np.array(initial.v, dtype=float)
    v = v / scenario.norm(q, v)
    frames[0] = complete_frame(scenario, q, v)
    y = np.concatenate((q, v, [0.0]))
    hist[0] = y
    rhs(y)
    i0 = 0
    while i0 < n_steps:
        b = min(block, n_steps - i0)
        if i0:
            # the last block's final row is this block's first k1
            for buf in stages:
                buf[0] = buf[4 * block]
            row[0] = 1
        for j in range(b):
            y = rk4_step(rhs, y, dt, kst[4 * j])
            q, v = y[:n], y[n:-1]
            g = point(q).g      # the identity on a flat metric
            v /= g_norm(v, None if flat else g)
            step_no = i0 + j + 1
            if step_no % renorm_every == 0:
                if not np.isfinite(y).all():
                    raise NonFiniteStateError(f"non-finite state by step {step_no}")
                g_c[j], v_c[j] = g, v
                if recenter:
                    q_c[j] = q
                    move, push = fam.recenter_map(q)
                    v[:] = push(q, v)
                    q[:] = move(q)
            hist[step_no] = y
            rhs(y)
        pass2(i0, b)
        i0 += b
    return out


def _jsep_margins(cols, Rmat):
    """(|chi|^2 - <R xi, xi>) / (|xi|^2 + |chi|^2) for stacks of first columns
    [xi; chi] (e, 2(n-1)) and their Jacobi matrices (e, n-1, n-1)."""
    nm1 = Rmat.shape[-1]
    xi, chi = cols[:, :nm1], cols[:, nm1:]
    chi2 = (chi * chi).sum(axis=1)
    num = chi2 - np.einsum("ea,eab,eb->e", xi, Rmat, xi)
    return (num / ((xi * xi).sum(axis=1) + chi2)).tolist()


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
