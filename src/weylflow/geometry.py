"""Connection coefficients, Weyl curvature operators and sectional curvatures.

The sectional Weyl curvature of a plane Pi = span{X, Y} (g-orthonormal) is
computed two ways and both are reported:

  (a) tensor route:   Khat = < Rhat_a(X,Y) Y, X >
  (b) formula route:  Khat = K(Pi) - |E_perp|^2 - div_Pi E

where Rhat_a is the g-antisymmetric part of the Weyl curvature operator,
E_perp the component of E orthogonal to Pi, and div_Pi E the partial
divergence  <grad_X E, X> + <grad_Y E, Y>  (Levi-Civita).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlaneError
from .scenario import WeylScenario, product_scenario  # noqa: F401  (re-export)

ZERO_CENSUS_TOL = 1e-9  # |Khat| below this counts as an analytic zero in scans


@dataclass
class ConnectionCoefficients:
    """Levi-Civita and Weyl coefficients at a base point, both (n,n,n) [k,i,j]."""

    q: np.ndarray
    gamma: np.ndarray
    gamma_weyl: np.ndarray


@dataclass
class CurvatureSample:
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


def gram_schmidt_plane(scenario, q, X, Y):
    """Orthonormalize (X, Y) w.r.t. g at q; raises on a degenerate plane."""
    g = scenario.metric(q)
    nx = np.sqrt(max(X @ g @ X, 0.0))
    if nx < 1e-12:
        raise DegeneratePlaneError(f"zero vector in plane basis at q={q}")
    X = X / nx
    Y = Y - (X @ g @ Y) * X
    ny = np.sqrt(max(Y @ g @ Y, 0.0))
    if ny < 1e-10:
        raise DegeneratePlaneError(f"vectors do not span a plane at q={q}")
    return X, Y / ny


def christoffel(scenario, q):
    """Levi-Civita coefficients from g and its first derivatives."""
    q = np.asarray(q, dtype=float)
    scenario.metric_family.check_point(q)
    gamma = scenario.christoffel(q)
    return ConnectionCoefficients(q=q, gamma=gamma, gamma_weyl=gamma)


def weyl_connection(scenario, q):
    """Both connections; gamma_weyl = gamma + (delta phi + delta phi - g E)."""
    q = np.asarray(q, dtype=float)
    scenario.metric_family.check_point(q)
    gamma = scenario.christoffel(q)
    return ConnectionCoefficients(q=q, gamma=gamma,
                                  gamma_weyl=gamma + scenario.weyl_correction(q))


def antisymmetric_split(scenario, q, A):
    """Split operator A into g-antisymmetric and g-symmetric parts at q."""
    loc = scenario.local(q)
    adjoint = loc.ginv @ A.T @ loc.g
    return 0.5 * (A - adjoint), 0.5 * (A + adjoint)


def curvature_operator(scenario, q, X, Y):
    """Matrix of the Weyl curvature operator Rhat(X, Y) acting on tangent vectors at q."""
    q = np.asarray(q, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gram = (X @ X) * (Y @ Y) - (X @ Y) ** 2
    if gram < 1e-20:
        raise DegeneratePlaneError(f"X, Y linearly dependent at q={q}")
    return np.einsum("dcab,a,b->dc", scenario.curvature_hat_tensor(q), X, Y)


def sectional_weyl(scenario, q, X, Y):
    """Sectional Weyl curvature of span{X, Y} by both routes."""
    q = np.asarray(q, dtype=float)
    X, Y = gram_schmidt_plane(scenario, q, np.asarray(X, float), np.asarray(Y, float))
    loc = scenario.local(q)
    g = loc.g

    op_a, _ = antisymmetric_split(scenario, q, curvature_operator(scenario, q, X, Y))
    khat_tensor = float(X @ g @ (op_a @ Y))

    R_lc = scenario.curvature_lc_tensor(q)
    K = float(X @ g @ np.einsum("dcab,c,a,b->d", R_lc, Y, X, Y))

    E = loc.E
    e_x = float(X @ g @ E)
    e_y = float(Y @ g @ E)
    E_plane = e_x * X + e_y * Y
    E_perp = E - E_plane
    E_perp_sq = float(E_perp @ g @ E_perp)
    E_plane_sq = e_x**2 + e_y**2

    div_plane = float(X @ g @ (loc.N @ X) + Y @ g @ (loc.N @ Y))

    khat_formula = K - E_perp_sq - div_plane
    return CurvatureSample(
        q=q, X=X, Y=Y, K=K,
        Khat=khat_formula, Khat_tensor=khat_tensor,
        route_discrepancy=abs(khat_formula - khat_tensor),
        E_perp_sq=E_perp_sq, div_plane=div_plane, E_plane_sq=E_plane_sq,
    )


def jacobi_operator(scenario, q, v, frame):
    """Jacobi matrix R[a, b] = < Rhat_a(e_b, v) v, e_a > in closed form.

    frame holds g-orthonormal vectors e_1..e_{n-1} completing the unit vector
    v.  With the Levi-Civita R and grad, phi_c = phi(e_c) and N X = grad_X E:

        R[a, b] = < R(e_b, v) v, e_a > - (sum_c phi_c^2 + < grad_v E, v >) delta_ab
                  + phi_a phi_b - < grad_{e_b} E, e_a >

    The last term is not symmetrized: for a non-closed E the matrix is not
    symmetric.  N is identically 0 on a zero field and on a homogeneous
    scenario; its terms are skipped there, where they would cost about a
    quarter of a kernel call.
    """
    loc = scenario.local(q)
    flat = scenario.metric_family.is_flat
    ge = frame if flat else frame @ loc.g       # rows: <e_a, .>
    phi_e = ge @ loc.E
    Rmat = np.outer(phi_e, phi_e)
    shift = float(phi_e @ phi_e)
    if not (scenario.is_homogeneous or scenario.field_is_zero):
        shift += float((v if flat else loc.g @ v) @ (loc.N @ v))
        Rmat -= ge @ (loc.N @ frame.T)
    Rmat.flat[:: len(Rmat) + 1] -= shift
    if not flat:
        n = scenario.dim
        R = scenario.curvature_lc_tensor(q)
        Rvv = v @ (R.reshape(-1, n) @ v).reshape(n, n, n)  # [d, a] = R^d_{cab} v^c v^b
        Rmat += ge @ (Rvv @ frame.T)
    return Rmat


def anosov_margin(scenario, q, X, Y):
    """Khat(Pi) + E_Pi^2/4 = K - div_Pi E - E^2 + (5/4) E_Pi^2; < 0 certifies Anosov."""
    return sectional_weyl(scenario, q, X, Y).margin


def sample_plane(scenario, q, rng):
    """Orthonormalized pair of standard Gaussian vectors: uniform on the Grassmannian."""
    for _ in range(64):
        Z = rng.standard_normal((2, scenario.dim))
        try:
            return gram_schmidt_plane(scenario, q, Z[0], Z[1])
        except DegeneratePlaneError:
            continue
    raise DegeneratePlaneError("could not draw an independent pair")


@dataclass
class SignCensus:
    min: float
    max: float
    count_negative: int
    count_zero: int
    count_positive: int
    samples: list


def curvature_sign_scan(scenario, n_points, n_planes, seed, include_field_planes=False):
    """Sign census of Khat over seeded random points and Grassmannian planes.

    With include_field_planes, one plane containing E is added per point
    (skipped where E vanishes).  Zero threshold is ZERO_CENSUS_TOL absolute.
    """
    rng = np.random.default_rng(np.random.Philox(seed))
    values = []
    samples = []
    for _ in range(n_points):
        q = scenario.sample_point(rng)
        planes = [sample_plane(scenario, q, rng) for _ in range(n_planes)]
        if include_field_planes:
            E = scenario.field(q)
            if scenario.norm(q, E) > 1e-12:
                try:
                    planes.append(gram_schmidt_plane(
                        scenario, q, E, rng.standard_normal(scenario.dim)))
                except DegeneratePlaneError:
                    pass
        for X, Y in planes:
            s = sectional_weyl(scenario, q, X, Y)
            values.append(s.Khat)
            samples.append(s)
    values = np.array(values)
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
    resid = dg_X - corr + 2.0 * scenario.phi(q, X) * g
    return float(np.abs(resid).max())


def christoffel_d1_fd(scenario, q, weyl=False, step=1e-5):
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
