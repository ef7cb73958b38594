"""Weyl curvature operators, sectional curvatures and the Jacobi matrix.

The sectional Weyl curvature of a plane Pi = span{X, Y} (g-orthonormal) is
computed two ways and both are reported:

  (a) tensor route:   Khat = < Rhat_a(X,Y) Y, X >
  (b) formula route:  Khat = K(Pi) - |E_perp|^2 - div_Pi E

where Rhat_a is the g-antisymmetric part of the Weyl curvature operator,
E_perp the component of E orthogonal to Pi, and div_Pi E the partial
divergence  <grad_X E, X> + <grad_Y E, Y>  (Levi-Civita).

Shapes: the plane functions take one plane at a point q (shape (n,)) as two
(n,) vectors, or a stack of P planes at q as two (P, n) arrays.  A stack
gives (P, n, n) curvature operators and a CurvatureSample of (P,) curvatures
and (P, n) vectors; one plane gives an (n, n) operator and float curvatures,
from the same code with P = 1.  No intermediate holds more than P n^2 floats.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegeneratePlaneError
from .metrics import matvec, vecdot, vecmat

ZERO_CENSUS_TOL = 1e-9  # |Khat| below this counts as an analytic zero in scans


@dataclass
class CurvatureSample:
    """One plane (float fields, (n,) vectors) or a stack of P planes ((P,) and (P, n))."""

    q: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    K: float
    Khat: float            # formula route (the reported value)
    Khat_tensor: float     # tensor route
    route_discrepancy: float
    E_perp_sq: float
    div_plane: float
    E_plane_sq: float

    @property
    def margin(self):
        """Khat + E_Pi^2 / 4; negative certifies the Anosov sufficient condition."""
        return self.Khat + 0.25 * self.E_plane_sq


def _rows(V):
    return np.atleast_2d(np.asarray(V, dtype=float))


def _dot(U, V):
    """Row-wise dot products of two (P, n) stacks."""
    return (U * V).sum(axis=-1)


def _orthonormalize(g, X, Y):
    """g-orthonormalize the rows of (X, Y); also returns the (P,) masks of a zero
    first vector and of any degenerate row (|X| < 1e-12, or |Y - <X, Y> X| < 1e-10)."""
    xx = _dot(X @ g, X)
    X = X / np.sqrt(np.maximum(xx, 1e-24))[:, None]    # the floors only keep bad rows finite
    Y = Y - _dot(X @ g, Y)[:, None] * X
    yy = _dot(Y @ g, Y)
    zero = xx < 1e-24
    return X, Y / np.sqrt(np.maximum(yy, 1e-20))[:, None], zero, zero | (yy < 1e-20)


def gram_schmidt_plane(scenario, q, X, Y):
    """Orthonormalize (X, Y) w.r.t. g at q; raises on a degenerate plane.

    X, Y are (n,) vectors or (P, n) stacks of P planes; the result has their shape.
    """
    single = np.ndim(X) == 1
    X, Y, zero, bad = _orthonormalize(scenario.metric(q), _rows(X), _rows(Y))
    if zero.any():
        raise DegeneratePlaneError(f"zero vector in plane basis at q={q}")
    if bad.any():
        raise DegeneratePlaneError(f"vectors do not span a plane at q={q}")
    return (X[0], Y[0]) if single else (X, Y)


def antisymmetric_split(scenario, q, A):
    """Split operator A (n, n), or a (P, n, n) stack, into g-antisymmetric and
    g-symmetric parts at q."""
    pt = scenario.point(q)
    adjoint = pt.ginv @ np.swapaxes(A, -1, -2) @ pt.g
    return 0.5 * (A - adjoint), 0.5 * (A + adjoint)


def _plane_operator(R, X, Y):
    """(P, n, n) stack [p, d, c] = R^d_{cab} X_p^a Y_p^b.

    One (P, n^2) x (n^2, n^2) product over the outer products X_p (x) Y_p, so no
    intermediate is larger than P n^2 floats.
    """
    P, n = X.shape
    XY = (X[:, :, None] * Y[:, None, :]).reshape(P, n * n)
    return (XY @ R.reshape(n * n, n * n).T).reshape(P, n, n)


def sectional_weyl(scenario, q, X, Y):
    """Sectional Weyl curvature of span{X, Y} by both routes.

    X, Y are (n,) vectors, giving float fields, or (P, n) stacks of P planes at
    the one point q, giving (P,) fields; either way one pass of array operations.
    """
    q = np.asarray(q, dtype=float)
    single = np.ndim(X) == 1
    X, Y = gram_schmidt_plane(scenario, q, _rows(X), _rows(Y))
    pt = scenario.point(q)
    gX, gY = X @ pt.g, Y @ pt.g                         # rows: <X_p, .>, <Y_p, .>

    # Gram-Schmidt has already rejected dependent pairs
    A = _plane_operator(scenario.curvature_hat_tensor(q), X, Y)
    op_a, _ = antisymmetric_split(scenario, q, A)
    khat_tensor = _dot(gX, np.einsum("pdc,pc->pd", op_a, Y))

    A_lc = _plane_operator(scenario.lc_curvature(q, pt.gamma), X, Y)
    K = _dot(gX, np.einsum("pdc,pc->pd", A_lc, Y))

    e_x = gX @ pt.E
    e_y = gY @ pt.E
    E_perp = pt.E - e_x[:, None] * X - e_y[:, None] * Y
    E_perp_sq = _dot(E_perp @ pt.g, E_perp)
    E_plane_sq = e_x**2 + e_y**2

    N = scenario.field_derivative(q, pt)[1]
    div_plane = _dot(gX, X @ N.T) + _dot(gY, Y @ N.T)

    khat_formula = K - E_perp_sq - div_plane
    values = dict(K=K, Khat=khat_formula, Khat_tensor=khat_tensor,
                  route_discrepancy=np.abs(khat_formula - khat_tensor),
                  E_perp_sq=E_perp_sq, div_plane=div_plane, E_plane_sq=E_plane_sq)
    if single:
        return CurvatureSample(q=q, X=X[0], Y=Y[0],
                               **{k: float(v[0]) for k, v in values.items()})
    return CurvatureSample(q=np.broadcast_to(q, X.shape), X=X, Y=Y, **values)


def _jacobi_inputs(scenario, q, pt, v):
    """The point part of the Jacobi matrix at q, from its point record pt and
    the unit vector v: the operator W = R(., v) v - N, with components
    W[d, a] = R^d_{cab} v^c v^b - N^d_a, and the shift < grad_v E, v >.
    q, pt and v may carry leading axes, a stack of points.

    N is identically 0 on a zero field and on a homogeneous scenario; its terms
    are skipped there, and W is None when nothing is left (flat and N = 0).
    """
    flat = scenario.metric_family.is_flat
    W = None
    shift = 0.0
    if not flat:
        n = v.shape[-1]
        R = scenario.lc_curvature(q, pt.gamma)
        Rv = matvec(R.reshape(R.shape[:-4] + (n ** 3, n)), v)     # [d, c, a]
        W = vecmat(v[..., None, :], Rv.reshape(Rv.shape[:-1] + (n, n, n)))
    if not (scenario.is_homogeneous or scenario.field_is_zero):
        N = scenario.field_derivative(q, pt)[1]
        shift = vecdot(v if flat else matvec(pt.g, v), matvec(N, v))
        W = -N if W is None else W - N
    return W, shift


def _jacobi(scenario, q, pt, v, frame):
    """Jacobi matrices R (..., n-1, n-1) and phi_e = phi(e_a) (..., n-1) at q,
    from the point record pt there, the unit vector v and its frame (n-1, n);
    each may carry leading axes, a stack of points.

    The curvature and field terms share one sandwich ge @ (W @ frame^T), with
    ge = frame @ g (the frame itself when flat) and W from _jacobi_inputs.
    The field term < grad_{e_b} E, e_a > is not symmetrized: for a non-closed E
    the matrix is not symmetric.
    """
    ge = frame if scenario.metric_family.is_flat else frame @ pt.g
    phi_e = matvec(ge, pt.E)
    W, shift = _jacobi_inputs(scenario, q, pt, v)
    Rmat = phi_e[..., :, None] * phi_e[..., None, :]
    if W is not None:
        Rmat += ge @ (W @ np.swapaxes(frame, -1, -2))
    diag = np.arange(phi_e.shape[-1])
    Rmat[..., diag, diag] -= ((phi_e * phi_e).sum(axis=-1) + shift)[..., None]
    return Rmat, phi_e


def anosov_margin(scenario, q, X, Y):
    """Khat(Pi) + E_Pi^2/4 = K - div_Pi E - E^2 + (5/4) E_Pi^2; < 0 certifies Anosov."""
    return sectional_weyl(scenario, q, X, Y).margin


def sample_plane(scenario, q, rng, count=None):
    """Orthonormalized pairs of standard Gaussian vectors: uniform on the Grassmannian.

    One plane as two (n,) vectors, or with count=P two (P, n) stacks drawn as
    one (P, 2, n) block, the same stream as P single draws.  A degenerate row
    (probability zero) is redrawn after the block.
    """
    g = scenario.metric(q)
    Z = rng.standard_normal((1 if count is None else count, 2, scenario.dim))
    X, Y, _, bad = _orthonormalize(g, Z[:, 0], Z[:, 1])
    for _ in range(64):
        if not bad.any():
            return (X[0], Y[0]) if count is None else (X, Y)
        Z = rng.standard_normal((int(bad.sum()), 2, scenario.dim))
        X[bad], Y[bad], _, redo = _orthonormalize(g, Z[:, 0], Z[:, 1])
        bad[bad] = redo
    raise DegeneratePlaneError("could not draw an independent pair")


@dataclass
class SignCensus:
    min: float
    max: float
    count_negative: int
    count_zero: int
    count_positive: int
    samples: CurvatureSample   # every field stacked over all planes of all points


def curvature_sign_scan(scenario, n_points, n_planes, seed, include_field_planes=False):
    """Sign census of Khat over seeded random points and Grassmannian planes.

    With include_field_planes, one plane containing E is added per point
    (skipped where E vanishes).  Zero threshold is ZERO_CENSUS_TOL absolute.
    Each point's planes go through sectional_weyl as one stack.
    """
    rng = np.random.default_rng(np.random.Philox(seed))
    per_point = []
    for _ in range(n_points):
        q = scenario.sample_point(rng)
        X, Y = sample_plane(scenario, q, rng, n_planes)
        if include_field_planes:
            E = scenario.field(q)
            if scenario.norm(q, E) > 1e-12:
                try:
                    x, y = gram_schmidt_plane(scenario, q, E, rng.standard_normal(scenario.dim))
                except DegeneratePlaneError:
                    pass
                else:
                    X, Y = np.vstack([X, x]), np.vstack([Y, y])
        per_point.append(sectional_weyl(scenario, q, X, Y))
    samples = CurvatureSample(**{f.name: np.concatenate([getattr(s, f.name) for s in per_point])
                                 for f in fields(CurvatureSample)})
    values = samples.Khat
    return SignCensus(
        min=float(values.min()),
        max=float(values.max()),
        count_negative=int((values < -ZERO_CENSUS_TOL).sum()),
        count_zero=int((np.abs(values) <= ZERO_CENSUS_TOL).sum()),
        count_positive=int((values > ZERO_CENSUS_TOL).sum()),
        samples=samples,
    )


def compatibility_residual(scenario, q, X, step=1e-5):
    """Finite-difference check of the defining identity  grad-hat_X g = -2 phi(X) g.

    Returns max |X^k d_k g_ij - Ghat^l_ki X^k g_lj - Ghat^l_kj X^k g_il + 2 phi(X) g_ij|.
    """
    q = np.asarray(q, dtype=float)
    X = np.asarray(X, dtype=float)
    n = scenario.dim
    dg_X = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        dg_X += X[k] * (scenario.metric(q + e) - scenario.metric(q - e)) / (2 * step)
    g = scenario.metric(q)
    ghat = scenario.weyl_christoffel(q)
    corr = (np.einsum("lki,k,lj->ij", ghat, X, g)
            + np.einsum("lkj,k,il->ij", ghat, X, g))
    resid = dg_X - corr + 2.0 * float(scenario.point(q).phi @ X) * g
    return float(np.abs(resid).max())

