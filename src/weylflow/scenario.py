"""WeylScenario: a chart-based manifold with metric g and thermostat field E.

The pair (g, E) defines the Weyl structure; phi = g E is the associated
1-form.  The scenario is the single entry point the rest of the package uses
to evaluate metric data, field data, connection coefficients and curvature.

``local(q)`` is the one evaluation of a point: the metric family's jet and the
field's jet, computed once, with phi = g E and N = grad E (the Levi-Civita
derivative of E, N[k, m] = d_m E^k + Gamma^k_mj E^j) assembled from them.  The
per-quantity methods (metric, field, christoffel, ...) are thin views of it.

One caching rule covers the per-point quantities (``local``,
``weyl_christoffel``, ``curvature_hat_tensor``, ``curvature_lc_tensor``): each
is remembered for the last point it was computed at, keyed by the bytes of
q, or for every point on a homogeneous scenario, where it is q-independent.
So the views, the kernel's Jacobi operator and the ~100 planes of a census
point share one evaluation, and a caller may mutate its q freely between
calls.  Remembered arrays are shared with every later caller: read-only by
contract, never mutated.
"""
from __future__ import annotations

from functools import wraps
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetricError
from .fields import ProductField, ZeroField
from .metrics import ConstantCurvatureChart, FlatTorus, ProductMetric


class LocalGeometry(NamedTuple):
    """Metric and field data at one point (shared arrays: do not mutate)."""

    g: np.ndarray       # g_ij
    ginv: np.ndarray    # g^ij
    dg: np.ndarray      # d_m g_ij, [m, i, j]
    gamma: np.ndarray   # Gamma^k_ij, [k, i, j]
    E: np.ndarray       # E^k
    dE: np.ndarray      # d_m E^k, [k, m]
    phi: np.ndarray     # phi_j = g_jk E^k
    N: np.ndarray       # grad_m E^k = d_m E^k + Gamma^k_mj E^j, [k, m]


def _point_key(q):
    return np.asarray(q, dtype=float).tobytes()


def _per_point(build):
    """Remember build(self, q) for the last q, or for all q on a homogeneous scenario."""
    name = build.__name__

    @wraps(build)
    def method(self, q):
        # a homogeneous hit is one dict read: the flows look up q-independent data every stage
        hit = self._memo.get(name)
        if hit is not None and (self.is_homogeneous or hit[0] == _point_key(q)):
            return hit[1]
        hit = self._memo[name] = _point_key(q), build(self, q)
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
    def local(self, q):
        """LocalGeometry at q from one pass over the metric and field data."""
        jet = self.metric_family.jet(q)
        E, dE = self.field_spec.jet(q, jet)
        return LocalGeometry(*jet, E, dE, jet.g @ E, dE + jet.gamma @ E)

    # -- metric data --------------------------------------------------------

    def metric(self, q):
        return self.local(q).g

    def metric_inv(self, q):
        return self.local(q).ginv

    def metric_inv_d1(self, q):
        """d_m g^{kl} = -(g^{-1} d_m g g^{-1})^{kl}, shape [m, k, l]."""
        loc = self.local(q)
        return -(loc.ginv @ loc.dg @ loc.ginv)

    def inner(self, q, X, Y):
        return float(X @ self.metric(q) @ Y)

    def norm(self, q, X):
        return float(np.sqrt(max(X @ self.metric(q) @ X, 0.0)))

    # -- field data ----------------------------------------------------------

    def field(self, q):
        return self.local(q).E

    def field_jac(self, q):
        return self.local(q).dE

    def one_form(self, q):
        return self.local(q).phi

    def one_form_d1(self, q):
        """dphi[m, j] = d_m phi_j with phi = g E."""
        # d_m (g_jl E^l) = d_m g_jl E^l + g_jl d_m E^l
        loc = self.local(q)
        return loc.dg @ loc.E + (loc.g @ loc.dE).T

    def phi(self, q, X):
        return float(self.one_form(q) @ X)

    @property
    def field_is_zero(self):
        return self.field_spec.is_zero

    def sample_point(self, rng):
        return self.metric_family.sample_point(rng)

    # -- connection and curvature arrays --------------------------------------

    def christoffel(self, q):
        return self.local(q).gamma

    def christoffel_d1(self, q):
        return self.metric_family.christoffel_d1(q)

    def weyl_correction(self, q):
        """C^k_ij = delta^k_i phi_j + delta^k_j phi_i - g_ij E^k."""
        loc = self.local(q)
        eye = np.eye(self.dim)
        return (np.einsum("ki,j->kij", eye, loc.phi)
                + np.einsum("kj,i->kij", eye, loc.phi)
                - np.einsum("ij,k->kij", loc.g, loc.E))

    def weyl_correction_d1(self, q):
        loc = self.local(q)
        dphi = self.one_form_d1(q)
        eye = np.eye(self.dim)
        return (np.einsum("ki,mj->mkij", eye, dphi)
                + np.einsum("kj,mi->mkij", eye, dphi)
                - np.einsum("mij,k->mkij", loc.dg, loc.E)
                - np.einsum("ij,km->mkij", loc.g, loc.dE))

    @_per_point
    def weyl_christoffel(self, q):
        return self.christoffel(q) + self.weyl_correction(q)

    def weyl_christoffel_d1(self, q):
        return self.christoffel_d1(q) + self.weyl_correction_d1(q)

    @_per_point
    def curvature_hat_tensor(self, q):
        """Weyl curvature tensor R^d_{cab}: R(X,Y)Z^d = R^d_{cab} Z^c X^a Y^b."""
        return self._curvature_tensor(q, weyl=True)

    @_per_point
    def curvature_lc_tensor(self, q):
        closed = self.metric_family.riemann_tensor(q)
        return self._curvature_tensor(q, weyl=False) if closed is None else closed

    def _curvature_tensor(self, q, weyl):
        if weyl:
            G, dG = self.weyl_christoffel(q), self.weyl_christoffel_d1(q)
        else:
            G, dG = self.christoffel(q), self.christoffel_d1(q)
        t1 = np.einsum("adbc->dcab", dG)
        t2 = np.einsum("bdac->dcab", dG)
        t3 = np.einsum("dae,ebc->dcab", G, G)
        t4 = np.einsum("dbe,eac->dcab", G, G)
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
