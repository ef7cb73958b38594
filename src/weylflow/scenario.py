"""WeylScenario: a chart-based manifold with metric g and thermostat field E.

The pair (g, E) defines the Weyl structure; phi = g E is the associated
1-form.  The scenario is the single entry point the rest of the package uses
to evaluate metric data, field data, connection coefficients and curvature.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateMetricError
from .fields import ZeroField
from .metrics import ConstantCurvatureChart, FlatTorus, ProductMetric


class WeylScenario:
    def __init__(self, metric_family, field=None, name=""):
        self.metric_family = metric_family
        self.dim = metric_family.dim
        self.field_spec = ZeroField(self.dim) if field is None else field
        self.name = name
        self._cache = {}
        self._validate()

    def _validate(self):
        rng = np.random.default_rng(0)
        for _ in range(4):
            q = self.metric_family.sample_point(rng)
            g = self.metric(q)
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise DegenerateMetricError(f"metric not positive definite at q={q}")

    # -- metric data --------------------------------------------------------

    def metric(self, q):
        return self.metric_family.metric(q)

    def metric_inv(self, q):
        return self.metric_family.metric_inv(q)

    def metric_d1(self, q):
        return self.metric_family.metric_d1(q)

    def metric_d2(self, q):
        return self.metric_family.metric_d2(q)

    def metric_inv_d1(self, q, ginv=None):
        """d_m g^{kl} = -(g^{-1} d_m g g^{-1})^{kl}, shape [m, k, l].

        ginv: the inverse metric at q, when the caller already holds it.
        """
        if ginv is None:
            ginv = self.metric_inv(q)
        return -(ginv @ self.metric_d1(q) @ ginv)

    def inner(self, q, X, Y):
        return float(X @ self.metric(q) @ Y)

    def norm(self, q, X):
        return float(np.sqrt(max(X @ self.metric(q) @ X, 0.0)))

    # -- field data ----------------------------------------------------------

    def field(self, q):
        return self.field_spec.components(q, self)

    def field_jac(self, q):
        return self.field_spec.jacobian(q, self)

    def one_form(self, q):
        return self.metric(q) @ self.field(q)

    def one_form_d1(self, q):
        """dphi[m, j] = d_m phi_j with phi = g E."""
        dg = self.metric_d1(q)
        E = self.field(q)
        dE = self.field_jac(q)
        g = self.metric(q)
        return np.einsum("mjl,l->mj", dg, E) + np.einsum("jl,lm->mj", g, dE)

    def phi(self, q, X):
        return float(self.one_form(q) @ X)

    @property
    def field_is_zero(self):
        return self.field_spec.is_zero

    @property
    def is_homogeneous(self):
        """Constant metric and constant field components: all Weyl data is q-independent."""
        return (self.metric_family.is_constant_metric
                and self.field_spec.constant_on(self))

    def sample_point(self, rng):
        return self.metric_family.sample_point(rng)

    # -- connection and curvature arrays (hot-path helpers) ------------------

    def christoffel(self, q):
        closed = self.metric_family.christoffel(q)
        if closed is not None:
            return closed
        g = self.metric(q)
        dg = self.metric_d1(q)
        ginv = np.linalg.inv(g)
        S = 0.5 * (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg)
        return np.einsum("kl,lij->kij", ginv, S)

    def christoffel_d1(self, q):
        closed = self.metric_family.christoffel_d1(q)
        if closed is not None:
            return closed
        dg = self.metric_d1(q)
        ddg = self.metric_d2(q)
        ginv = self.metric_inv(q)
        dginv = self.metric_inv_d1(q, ginv)
        S = 0.5 * (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg)
        dS = 0.5 * (np.einsum("milj->mlij", ddg) + np.einsum("mjli->mlij", ddg)
                    - np.einsum("mlij->mlij", ddg))
        return (np.einsum("mkl,lij->mkij", dginv, S)
                + np.einsum("kl,mlij->mkij", ginv, dS))

    def weyl_correction(self, q):
        """C^k_ij = delta^k_i phi_j + delta^k_j phi_i - g_ij E^k."""
        phi = self.one_form(q)
        E = self.field(q)
        g = self.metric(q)
        eye = np.eye(self.dim)
        return (np.einsum("ki,j->kij", eye, phi)
                + np.einsum("kj,i->kij", eye, phi)
                - np.einsum("ij,k->kij", g, E))

    def weyl_correction_d1(self, q):
        dphi = self.one_form_d1(q)
        dg = self.metric_d1(q)
        E = self.field(q)
        dE = self.field_jac(q)
        g = self.metric(q)
        eye = np.eye(self.dim)
        return (np.einsum("ki,mj->mkij", eye, dphi)
                + np.einsum("kj,mi->mkij", eye, dphi)
                - np.einsum("mij,k->mkij", dg, E)
                - np.einsum("ij,km->mkij", g, dE))

    def weyl_christoffel(self, q):
        if self.is_homogeneous:
            key = "weyl_christoffel"
            if key not in self._cache:
                self._cache[key] = self.christoffel(q) + self.weyl_correction(q)
            return self._cache[key]
        return self.christoffel(q) + self.weyl_correction(q)

    def weyl_christoffel_d1(self, q):
        return self.christoffel_d1(q) + self.weyl_correction_d1(q)

    def curvature_hat_tensor(self, q):
        """Weyl curvature tensor R^d_{cab}: R(X,Y)Z^d = R^d_{cab} Z^c X^a Y^b."""
        if self.is_homogeneous:
            key = "curvature_hat"
            if key not in self._cache:
                self._cache[key] = self._curvature_tensor(q, weyl=True)
            return self._cache[key]
        if self.field_is_zero:
            closed = self.metric_family.riemann_tensor(q)
            if closed is not None:
                return closed
        return self._curvature_tensor(q, weyl=True)

    def curvature_lc_tensor(self, q):
        closed = self.metric_family.riemann_tensor(q)
        if closed is not None:
            return closed
        if self.metric_family.is_constant_metric:
            n = self.dim
            return np.zeros((n, n, n, n))
        return self._curvature_tensor(q, weyl=False)

    def _curvature_tensor(self, q, weyl):
        if weyl:
            G = self.weyl_christoffel(q)
            dG = self.weyl_christoffel_d1(q)
        else:
            G = self.christoffel(q)
            dG = self.christoffel_d1(q)
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
    from .fields import ProductField

    fam = ProductMetric(s1, s2)
    field = ProductField(s1.field_spec, s1.dim, s2.field_spec, s2.dim)
    return WeylScenario(fam, field, name=name or f"product({s1.name},{s2.name})")
