"""WeylScenario: a chart-based manifold with metric g and thermostat field E.

The pair (g, E) defines the Weyl structure; phi = g E is the associated
1-form.  The scenario is the single entry point the rest of the package uses
to evaluate metric data, field data, connection coefficients and curvature.

``point(q)`` is the one point record: the metric family's jet, the field's
value E and phi = g E.  The per-quantity views (metric, field, christoffel,
norm, ...) read it.  The curvature formulas that read grad E also call
``field_derivative(q, pt)`` for dE, the field's Jacobian, and N = grad E (the
Levi-Civita derivative of E, N[k, m] = d_m E^k + Gamma^k_mj E^j).  It and
``lc_curvature`` (the Levi-Civita R) take q with leading axes, so the
co-integration builds them once per block over all its stage points, from
point records it stored.

One caching rule covers the per-point quantities (``point``,
``weyl_christoffel``, ``curvature_hat_tensor``): each is remembered for the
last point it was computed at, keyed by the bytes of q, or for every point on
a homogeneous scenario, where it is q-independent.  So the views, the flows'
stage points and the ~100 planes of a census point share one evaluation, and
a caller may mutate its q freely between calls.
Remembered arrays are shared with every later caller: read-only by contract,
never mutated.
"""
from __future__ import annotations

from functools import wraps
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetricError
from .fields import ProductField, ZeroField
from .metrics import ConstantCurvatureChart, FlatTorus, MetricJet, ProductMetric, matvec


class PointRecord(NamedTuple):
    """Metric data, E and phi at a point or a stack of points (shared arrays: do not mutate)."""

    g: np.ndarray       # g_ij
    ginv: np.ndarray    # g^ij
    dg: np.ndarray      # d_m g_ij, [m, i, j]
    gamma: np.ndarray   # Gamma^k_ij, [k, i, j]
    E: np.ndarray       # E^k
    phi: np.ndarray     # phi_j = g_jk E^k

    @property
    def jet(self):
        return MetricJet(*self[:4])


def _point_key(q):
    return np.asarray(q, dtype=float).tobytes()


def _per_point(build):
    """Remember build(self, q) for the last q, or for all q on a homogeneous scenario."""
    name = build.__name__

    @wraps(build)
    def method(self, q):
        # a homogeneous hit is one dict read: the flows look up q-independent data every stage
        hit = self._memo.get(name)
        if hit is not None and self.is_homogeneous:
            return hit[1]
        key = _point_key(q)
        if hit is None or hit[0] != key:
            hit = self._memo[name] = key, build(self, q)
        return hit[1]

    return method


class WeylScenario:
    def __init__(self, metric_family, field=None, name=""):
        self.metric_family = metric_family
        self.dim = metric_family.dim
        self.field_spec = ZeroField(self.dim) if field is None else field
        self.name = name
        # constant metric and constant field components: all Weyl data is q-independent
        self.is_homogeneous = (metric_family.is_constant_metric
                               and self.field_spec.constant_on(self))
        self.field_is_zero = self.field_spec.is_zero   # read by every Jacobi evaluation
        self._memo = {}    # quantity name -> (key, value), see _per_point
        self._validate()

    def _validate(self):
        # the family jet alone: construction does not evaluate the field
        rng = np.random.default_rng(0)
        for _ in range(4):
            q = self.metric_family.sample_point(rng)
            g = self.metric_family.jet(q).g
            if not np.isfinite(g).all():
                raise DegenerateMetricError(f"metric not finite at q={q}")
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise DegenerateMetricError(f"metric not positive definite at q={q}")

    @_per_point
    def point(self, q):
        """PointRecord at q: the metric family's jet, the field's value and phi."""
        jet = self.metric_family.jet(q)
        E = self.field_spec.value(q, jet)
        return PointRecord(*jet, E, jet.g.dot(E))

    def field_derivative(self, q, pt):
        """(dE, N) at q, given the point record pt there; q and pt may carry
        leading axes, a stack of points."""
        dE = self.field_spec.jacobian(q, pt.jet, pt.E)
        return dE, dE + matvec(pt.gamma, pt.E[..., None, :])

    # -- metric data --------------------------------------------------------

    def metric(self, q):
        return self.point(q).g

    def metric_inv(self, q):
        return self.point(q).ginv

    def norm(self, q, X):
        return float(np.sqrt(max(X @ self.metric(q) @ X, 0.0)))

    # -- field data ----------------------------------------------------------

    def field(self, q):
        return self.point(q).E

    def sample_point(self, rng):
        return self.metric_family.sample_point(rng)

    # -- connection and curvature arrays --------------------------------------

    def christoffel(self, q):
        return self.point(q).gamma

    def christoffel_d1(self, q):
        return self.metric_family.christoffel_d1(q)

    def weyl_correction(self, q):
        """C^k_ij = delta^k_i phi_j + delta^k_j phi_i - g_ij E^k."""
        pt = self.point(q)
        eye = np.eye(self.dim)
        return (np.einsum("ki,j->kij", eye, pt.phi)
                + np.einsum("kj,i->kij", eye, pt.phi)
                - np.einsum("ij,k->kij", pt.g, pt.E))

    def weyl_correction_d1(self, q):
        pt = self.point(q)
        dE = self.field_derivative(q, pt)[0]
        # dphi[m, j] = d_m (g_jl E^l) = d_m g_jl E^l + g_jl d_m E^l, the derivative of phi
        dphi = pt.dg @ pt.E + (pt.g @ dE).T
        eye = np.eye(self.dim)
        return (np.einsum("ki,mj->mkij", eye, dphi)
                + np.einsum("kj,mi->mkij", eye, dphi)
                - np.einsum("mij,k->mkij", pt.dg, pt.E)
                - np.einsum("ij,km->mkij", pt.g, dE))

    @_per_point
    def weyl_christoffel(self, q):
        return self.christoffel(q) + self.weyl_correction(q)

    def weyl_christoffel_d1(self, q):
        return self.christoffel_d1(q) + self.weyl_correction_d1(q)

    @_per_point
    def curvature_hat_tensor(self, q):
        """Weyl curvature tensor R^d_{cab}: R(X,Y)Z^d = R^d_{cab} Z^c X^a Y^b."""
        return _riemann(self.weyl_christoffel(q), self.weyl_christoffel_d1(q))

    def lc_curvature(self, q, gamma):
        """Levi-Civita R^d_{cab} at q, given Gamma there: the family's closed form,
        or the assembly from Gamma and its derivatives.  q and gamma may carry
        leading axes, a stack of points."""
        closed = self.metric_family.riemann_tensor(q)
        return _riemann(gamma, self.christoffel_d1(q)) if closed is None else closed


def _riemann(G, dG):
    """R^d_{cab} = d_a G^d_bc - d_b G^d_ac + G^d_ae G^e_bc - G^d_be G^e_ac of a
    connection G^k_ij with derivatives dG[m, k, i, j] = d_m G^k_ij (leading axes allowed)."""
    t1 = np.einsum("...adbc->...dcab", dG)
    t2 = np.einsum("...bdac->...dcab", dG)
    t3 = np.einsum("...dae,...ebc->...dcab", G, G)
    t4 = np.einsum("...dbe,...eac->...dcab", G, G)
    return t1 - t2 + t3 - t4


def flat_torus_scenario(periods=(1.0, 1.0), field=None, name=""):
    return WeylScenario(FlatTorus(periods), field, name=name)


def constant_curvature_scenario(K, dim=2, field=None, name=""):
    return WeylScenario(ConstantCurvatureChart(K, dim), field, name=name)


def product_scenario(s1, s2, name=""):
    """Cartesian product with block metric and concatenated field (E1, E2)."""
    fam = ProductMetric(s1, s2)
    field = ProductField(s1.field_spec, s1.dim, s2.field_spec, s2.dim)
    return WeylScenario(fam, field, name=name or f"product({s1.name},{s2.name})")
