"""Metric families: g, its first two coordinate derivatives, and chart bookkeeping.

Every family supplies closed-form metric derivatives; finite differences exist
only as a cross-check in the tests.  Index conventions:

    metric(q)[i, j]          = g_ij
    metric_d1(q)[m, i, j]    = d_m g_ij
    metric_d2(q)[m, k, i, j] = d_m d_k g_ij
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DegenerateMetricError, UnsupportedConfigurationError


@lru_cache(maxsize=None)
def _curvature_basis(n):
    """delta^d_a delta_cb - delta^d_b delta_ca as R^d_{cab} (shared, read-only).

    For g = lam^2 I, R(X,Y)Z = K (<Y,Z> X - <X,Z> Y) is K lam^2 times this tensor.
    """
    eye = np.eye(n)
    basis = (eye[:, None, :, None] * eye[None, :, None, :]
             - eye[:, None, None, :] * eye[None, :, :, None])
    basis.flags.writeable = False
    return basis


class MetricFamily:
    dim = None
    is_flat = False            # identically zero curvature and zero Christoffels
    is_constant_metric = False # g does not depend on q

    def metric(self, q):
        raise NotImplementedError

    def metric_d1(self, q):
        n = self.dim
        return np.zeros((n, n, n))

    def metric_d2(self, q):
        n = self.dim
        return np.zeros((n, n, n, n))

    def check_point(self, q):
        """Raise DegenerateMetricError if q is outside the chart domain."""

    def sample_point(self, rng):
        raise NotImplementedError

    # Optional closed-form hooks; None means "use the generic assembly".
    def christoffel(self, q):
        return None

    def christoffel_d1(self, q):
        return None

    def riemann_tensor(self, q):
        """Closed-form R^d_{cab} of the Levi-Civita connection, or None."""
        return None

    def metric_inv(self, q):
        return np.linalg.inv(self.metric(q))


class FlatTorus(MetricFamily):
    """Euclidean metric on a torus with the given periods.

    Returned arrays are shared caches; callers must not mutate them.
    """

    is_flat = True
    is_constant_metric = True

    def __init__(self, periods=(1.0, 1.0)):
        self.periods = np.asarray(periods, dtype=float)
        self.dim = n = len(self.periods)
        self._eye = np.eye(n)
        self._z3 = np.zeros((n, n, n))
        self._z4 = np.zeros((n, n, n, n))

    def metric(self, q):
        return self._eye

    def metric_inv(self, q):
        return self._eye

    def christoffel(self, q):
        return self._z3

    def christoffel_d1(self, q):
        return self._z4

    def riemann_tensor(self, q):
        return self._z4

    def sample_point(self, rng):
        return rng.uniform(0.0, self.periods)

    def wrap(self, q):
        return np.mod(q, self.periods)


class ConstantCurvatureChart(MetricFamily):
    """Conformal model of constant sectional curvature K.

    g = F(q)^2 I with F = 1 / (1 + (K/4) |q|^2).  For K < 0 the chart is the
    ball of radius 2/sqrt(-K).
    """

    def __init__(self, curvature, dim=2):
        self.K = float(curvature)
        self.dim = int(dim)
        self.c = self.K / 4.0
        self.chart_radius = 2.0 / np.sqrt(-self.K) if self.K < 0 else np.inf
        self._eye = np.eye(self.dim)

    def _factor(self, q):
        d = 1.0 + self.c * float(q @ q)
        if d <= 1e-9:
            raise DegenerateMetricError(f"chart degenerate at q={np.asarray(q)}")
        return 1.0 / d

    def conformal_factor(self, q):
        return self._factor(q)

    def conformal_factor_grad(self, q):
        F = self._factor(q)
        return -2.0 * self.c * np.asarray(q, dtype=float) * F**2

    def check_point(self, q):
        self._factor(q)

    def metric(self, q):
        F = self._factor(q)
        return F**2 * self._eye

    def metric_inv(self, q):
        F = self._factor(q)
        return self._eye / F**2

    def metric_d1(self, q):
        q = np.asarray(q, dtype=float)
        F = self._factor(q)
        Fm = -2.0 * self.c * q * F**2
        return 2.0 * F * Fm[:, None, None] * self._eye[None]

    def metric_d2(self, q):
        q = np.asarray(q, dtype=float)
        n = self.dim
        F = self._factor(q)
        Fm = -2.0 * self.c * q * F**2
        Fmk = -2.0 * self.c * np.eye(n) * F**2 - 4.0 * self.c * np.einsum("k,m->mk", q, Fm) * F
        block = 2.0 * (np.einsum("m,k->mk", Fm, Fm) + F * Fmk)
        return np.einsum("mk,ij->mkij", block, np.eye(n))

    def _h(self, q):
        # h_i = d_i ln F
        q = np.asarray(q, dtype=float)
        F = self._factor(q)
        return -2.0 * self.c * q * F

    def christoffel(self, q):
        h = self._h(q)
        eye = self._eye
        # Gamma^k_ij = delta^k_i h_j + delta^k_j h_i - delta_ij h_k
        return (eye[:, :, None] * h[None, None, :]
                + eye[:, None, :] * h[None, :, None]
                - eye[None, :, :] * h[:, None, None])

    def christoffel_d1(self, q):
        q = np.asarray(q, dtype=float)
        F = self._factor(q)
        Fm = -2.0 * self.c * q * F**2
        # dh[m, i] = d_m h_i = -2c (delta_mi F + q_i F_m)
        dh = -2.0 * self.c * (self._eye * F + np.outer(Fm, q))
        eye = self._eye
        return (eye[None, :, :, None] * dh[:, None, None, :]
                + eye[None, :, None, :] * dh[:, None, :, None]
                - eye[None, None, :, :] * dh[:, :, None, None])

    def riemann_tensor(self, q):
        return (self.K * self._factor(q) ** 2) * _curvature_basis(self.dim)

    def sample_point(self, rng):
        if self.K < 0:
            while True:
                q = rng.uniform(-0.7 * self.chart_radius, 0.7 * self.chart_radius, self.dim)
                if np.linalg.norm(q) < 0.7 * self.chart_radius:
                    return q
        return rng.uniform(-1.0, 1.0, self.dim)

    def recenter_map(self, q):
        """Hyperbolic isometry of the 2d chart moving q to the origin.

        Returns (move_point, push_vector) callables.  Only dim 2, K < 0.
        """
        if self.dim != 2 or self.K >= 0:
            raise UnsupportedConfigurationError("recentering needs a 2d chart with K < 0")
        R = self.chart_radius
        z0 = complex(q[0], q[1]) / R

        def move(p):
            z = complex(p[0], p[1]) / R
            w = (z - z0) / (1.0 - z0.conjugate() * z)
            return np.array([w.real, w.imag]) * R

        def push(p, u):
            z = complex(p[0], p[1]) / R
            du = (1.0 - abs(z0) ** 2) / (1.0 - z0.conjugate() * z) ** 2
            w = du * complex(u[0], u[1])
            return np.array([w.real, w.imag])

        return move, push


class SolGroup(MetricFamily):
    """SOL geometry chart: e^{2z} dx^2 + e^{-2z} dy^2 + dz^2."""

    dim = 3

    def metric(self, q):
        z = q[2]
        return np.diag([np.exp(2 * z), np.exp(-2 * z), 1.0])

    def metric_inv(self, q):
        z = q[2]
        return np.diag([np.exp(-2 * z), np.exp(2 * z), 1.0])

    def metric_d1(self, q):
        z = q[2]
        d = np.zeros((3, 3, 3))
        d[2, 0, 0] = 2 * np.exp(2 * z)
        d[2, 1, 1] = -2 * np.exp(-2 * z)
        return d

    def metric_d2(self, q):
        z = q[2]
        d = np.zeros((3, 3, 3, 3))
        d[2, 2, 0, 0] = 4 * np.exp(2 * z)
        d[2, 2, 1, 1] = 4 * np.exp(-2 * z)
        return d

    def christoffel(self, q):
        z = q[2]
        G = np.zeros((3, 3, 3))
        G[0, 0, 2] = G[0, 2, 0] = 1.0
        G[1, 1, 2] = G[1, 2, 1] = -1.0
        G[2, 0, 0] = -np.exp(2 * z)
        G[2, 1, 1] = np.exp(-2 * z)
        return G

    def christoffel_d1(self, q):
        z = q[2]
        D = np.zeros((3, 3, 3, 3))
        D[2, 2, 0, 0] = -2 * np.exp(2 * z)
        D[2, 2, 1, 1] = -2 * np.exp(-2 * z)
        return D

    def sample_point(self, rng):
        return np.array([rng.uniform(), rng.uniform(), rng.uniform(-1.0, 1.0)])


class ConformalTorus(MetricFamily):
    """g = e^{2 sigma(q)} I on the torus for a closed-form scalar field sigma."""

    def __init__(self, sigma, periods=None):
        self.sigma = sigma
        self.dim = sigma.dim
        self.periods = np.ones(self.dim) if periods is None else np.asarray(periods, dtype=float)
        self._eye = np.eye(self.dim)

    def metric(self, q):
        return np.exp(2 * self.sigma.value(q)) * self._eye

    def metric_inv(self, q):
        return np.exp(-2 * self.sigma.value(q)) * self._eye

    def metric_d1(self, q):
        s = self.sigma.value(q)
        gs = self.sigma.grad(q)
        return 2 * np.exp(2 * s) * gs[:, None, None] * self._eye[None]

    def metric_d2(self, q):
        s = self.sigma.value(q)
        gs = self.sigma.grad(q)
        hs = self.sigma.hess(q)
        block = np.exp(2 * s) * (4 * np.einsum("m,k->mk", gs, gs) + 2 * hs)
        return np.einsum("mk,ij->mkij", block, np.eye(self.dim))

    def christoffel(self, q):
        gs = self.sigma.grad(q)
        eye = self._eye
        return (eye[:, :, None] * gs[None, None, :]
                + eye[:, None, :] * gs[None, :, None]
                - eye[None, :, :] * gs[:, None, None])

    def christoffel_d1(self, q):
        hs = self.sigma.hess(q)
        eye = self._eye
        return (eye[None, :, :, None] * hs[:, None, None, :]
                + eye[None, :, None, :] * hs[:, None, :, None]
                - eye[None, None, :, :] * hs[:, :, None, None])

    def riemann_tensor(self, q):
        """Closed form in dim 2 only: Gauss curvature K = -e^{-2 sigma} lap sigma."""
        if self.dim != 2:
            return None
        # K e^{2 sigma} = -lap sigma
        return -np.trace(self.sigma.hess(q)) * _curvature_basis(2)

    def sample_point(self, rng):
        return rng.uniform(0.0, self.periods)


class ProductMetric(MetricFamily):
    """Block-diagonal metric of two factor scenarios."""

    def __init__(self, scenario1, scenario2):
        self.s1 = scenario1
        self.s2 = scenario2
        self.n1 = scenario1.dim
        self.n2 = scenario2.dim
        self.dim = self.n1 + self.n2
        self.is_flat = scenario1.metric_family.is_flat and scenario2.metric_family.is_flat
        self.is_constant_metric = (scenario1.metric_family.is_constant_metric
                                   and scenario2.metric_family.is_constant_metric)

    def factor_scenarios(self, scenario):
        return self.s1, self.s2

    def split(self, q):
        return q[: self.n1], q[self.n1:]

    def metric(self, q):
        q1, q2 = self.split(q)
        g = np.zeros((self.dim, self.dim))
        g[: self.n1, : self.n1] = self.s1.metric(q1)
        g[self.n1:, self.n1:] = self.s2.metric(q2)
        return g

    def metric_inv(self, q):
        q1, q2 = self.split(q)
        g = np.zeros((self.dim, self.dim))
        g[: self.n1, : self.n1] = self.s1.metric_inv(q1)
        g[self.n1:, self.n1:] = self.s2.metric_inv(q2)
        return g

    def metric_d1(self, q):
        q1, q2 = self.split(q)
        d = np.zeros((self.dim,) * 3)
        d[: self.n1, : self.n1, : self.n1] = self.s1.metric_d1(q1)
        d[self.n1:, self.n1:, self.n1:] = self.s2.metric_d1(q2)
        return d

    def metric_d2(self, q):
        q1, q2 = self.split(q)
        d = np.zeros((self.dim,) * 4)
        d[: self.n1, : self.n1, : self.n1, : self.n1] = self.s1.metric_d2(q1)
        d[self.n1:, self.n1:, self.n1:, self.n1:] = self.s2.metric_d2(q2)
        return d

    def check_point(self, q):
        q1, q2 = self.split(q)
        self.s1.metric_family.check_point(q1)
        self.s2.metric_family.check_point(q2)

    def sample_point(self, rng):
        return np.concatenate([
            self.s1.metric_family.sample_point(rng),
            self.s2.metric_family.sample_point(rng),
        ])
