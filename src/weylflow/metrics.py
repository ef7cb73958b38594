"""Metric families: the metric's 1-jet, the Christoffel derivatives, chart bookkeeping.

Each family evaluates its local data once per point in ``jet(q)``, which
returns a ``MetricJet`` sharing the family's intermediates (the conformal
factor and its gradient, e^{+-2z} on SOL, the factors' jets on a product).
Every family has closed-form Christoffel symbols and derivatives; finite
differences exist only as a cross-check in the tests.  The flat torus, the
constant-curvature chart, SOL and the 2-dimensional conformal torus also give
the Levi-Civita curvature tensor in closed form (``riemann_tensor``); the
others return None there and the scenario assembles R from the Christoffels.
Index conventions:

    jet(q).g[i, j]              = g_ij
    jet(q).ginv[i, j]           = g^ij
    jet(q).dg[m, i, j]          = d_m g_ij
    jet(q).gamma[k, i, j]       = Gamma^k_ij
    christoffel_d1(q)[m, k, i, j] = d_m Gamma^k_ij

``jet`` takes one point.  ``christoffel_d1``, ``riemann_tensor`` and the
MetricJet methods also take q (and jets) with leading axes, a stack of
points, and give the stack of the single-point results: the co-integration
evaluates a block's stage points in one call.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetricError, InvalidStateError, UnsupportedConfigurationError


# Products over leading axes, one matrix-vector or dot product per point
# (np.vecdot needs NumPy 2.0, np.matvec and np.vecmat 2.2).  One point (a 1-d
# vector) takes the plain @ product, which gives the same bits and costs one
# numpy call; a row of a stack gives the bits of that point alone.

def matvec(A, x):
    """A x over leading axes: (..., m, n) and (..., n) give (..., m)."""
    return A @ x if x.ndim == 1 else (A @ x[..., None])[..., 0]


def vecmat(x, A):
    """x A over leading axes: (..., m) and (..., m, n) give (..., n)."""
    return x @ A if x.ndim == 1 else (x[..., None, :] @ A)[..., 0, :]


def vecdot(x, y):
    """sum_i x_i y_i over leading axes: (..., n) and (..., n) give (...)."""
    return x @ y if x.ndim == y.ndim == 1 else (x[..., None, :] @ y[..., :, None])[..., 0, 0]


class MetricJet(NamedTuple):
    """g, g^{-1}, dg and the Levi-Civita Gamma at a point or a stack of points
    (shared arrays: do not mutate)."""

    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    gamma: np.ndarray

    def raise_index(self, w):
        """E = g^{-1} w for a covector w."""
        return matvec(self.ginv, w)

    def raised_jacobian(self, E, dw):
        """The Jacobian dE[k, m] = d_m E^k of E = g^{-1} w, given E and dw[l, m] =
        d_m w_l:  d_m E = g^{-1} (d_m w - d_m g E)."""
        return self.ginv @ (dw - np.swapaxes(matvec(self.dg, E[..., None, :]), -1, -2))

    def block(self, lo, hi):
        """The jet of the factor spanning coordinates lo:hi of a block-diagonal metric."""
        s = slice(lo, hi)
        return MetricJet(self.g[..., s, s], self.ginv[..., s, s], self.dg[..., s, s, s],
                         self.gamma[..., s, s, s])


def check_periods(periods, dim=None):
    """Periods as a float array; raises InvalidStateError unless all are positive and finite."""
    p = np.asarray(periods, dtype=float)
    if p.ndim != 1 or len(p) == 0 or (dim is not None and len(p) != dim):
        raise InvalidStateError(f"expected {dim or 'at least one'} periods, got {periods!r}")
    if not (np.isfinite(p).all() and (p > 0).all()):
        raise InvalidStateError(f"periods must be positive and finite, got {periods!r}")
    return p


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


@lru_cache(maxsize=None)
def _conformal_basis(n):
    """delta^k_i delta_jl + delta^k_j delta_il - delta_ij delta_kl as [k, i, j, l] (read-only).

    For g = w I with h = d ln sqrt(w), Gamma^k_ij = (this tensor) @ h.
    """
    eye = np.eye(n)
    basis = (eye[:, :, None, None] * eye[None, None, :, :]
             + eye[:, None, :, None] * eye[None, :, None, :]
             - eye[None, :, :, None] * eye[:, None, None, :])
    basis.flags.writeable = False
    return basis


def _conformal_jet(w, h, eye):
    """Jet of g = w I, given w and h = d ln sqrt(w)."""
    return MetricJet(w * eye, eye / w, np.multiply.outer((2.0 * w) * h, eye),
                     _conformal_basis(len(h)) @ h)


def _conformal_christoffel_d1(dh):
    """d_m Gamma^k_ij of g = w I from dh[m, i] = d_m h_i."""
    n = dh.shape[-1]
    return (dh @ _conformal_basis(n).reshape(-1, n).T).reshape(dh.shape[:-2] + (n,) * 4)


class MetricFamily:
    dim = None
    is_flat = False            # identically zero curvature and zero Christoffels
    is_constant_metric = False # g does not depend on q

    def jet(self, q):
        """MetricJet (g, g^{-1}, dg, Gamma) at q."""
        raise NotImplementedError

    def christoffel_d1(self, q):
        raise NotImplementedError

    def riemann_tensor(self, q):
        """Closed-form R^d_{cab} of the Levi-Civita connection, or None."""
        return None

    def check_point(self, q):
        """Raise DegenerateMetricError if q is outside the chart domain."""

    def sample_point(self, rng):
        raise NotImplementedError


class FlatTorus(MetricFamily):
    """Euclidean metric on a torus with the given periods.

    Returned arrays are shared caches; callers must not mutate them.
    """

    is_flat = True
    is_constant_metric = True

    def __init__(self, periods=(1.0, 1.0)):
        self.periods = check_periods(periods)
        self.dim = n = len(self.periods)
        eye = np.eye(n)
        self._jet = MetricJet(eye, eye, np.zeros((n, n, n)), np.zeros((n, n, n)))

    def jet(self, q):
        return self._jet

    def christoffel_d1(self, q):
        return np.zeros(np.shape(q)[:-1] + (self.dim,) * 4)

    def riemann_tensor(self, q):
        return self.christoffel_d1(q)

    def sample_point(self, rng):
        return rng.uniform(0.0, self.periods)


class ConstantCurvatureChart(MetricFamily):
    """Conformal model of constant sectional curvature K.

    g = F(q)^2 I with F = 1 / (1 + (K/4) |q|^2).  For K < 0 the chart is the
    ball of radius 2/sqrt(-K).  With c = K/4, h = d ln F = -2c q F.
    """

    def __init__(self, curvature, dim=2):
        self.K = float(curvature)
        self.dim = int(dim)
        self.c = self.K / 4.0
        self.chart_radius = 2.0 / np.sqrt(-self.K) if self.K < 0 else np.inf
        self._eye = np.eye(self.dim)

    def _factor(self, q):
        d = 1.0 + self.c * vecdot(q, q)
        if (d <= 1e-9).any():
            raise DegenerateMetricError(f"chart degenerate at q={np.asarray(q)}")
        return 1.0 / d

    def check_point(self, q):
        self._factor(np.asarray(q, dtype=float))

    def jet(self, q):
        q = np.asarray(q, dtype=float)
        F = self._factor(q)
        return _conformal_jet(F**2, -2.0 * self.c * q * F, self._eye)

    def christoffel_d1(self, q):
        q = np.asarray(q, dtype=float)
        F = self._factor(q)[..., None, None]
        # dh[m, i] = d_m h_i = -2c (delta_mi F + q_i d_m F),  d_m F = -2c q_m F^2
        dF = -2.0 * self.c * q[..., :, None] * F**2
        dh = -2.0 * self.c * (self._eye * F + dF * q[..., None, :])
        return _conformal_christoffel_d1(dh)

    def riemann_tensor(self, q):
        return np.multiply.outer(self.K * self._factor(q) ** 2, _curvature_basis(self.dim))

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


_SOL_PLANE_CURVATURE = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, -1.0], [-1.0, -1.0, 0.0]])


class SolGroup(MetricFamily):
    """SOL geometry chart: e^{2z} dx^2 + e^{-2z} dy^2 + dz^2."""

    dim = 3

    def jet(self, q):
        a, b = np.exp(2 * q[2]), np.exp(-2 * q[2])
        dg = np.zeros((3, 3, 3))
        dg[2, 0, 0] = 2 * a
        dg[2, 1, 1] = -2 * b
        G = np.zeros((3, 3, 3))
        G[0, 0, 2] = G[0, 2, 0] = 1.0
        G[1, 1, 2] = G[1, 2, 1] = -1.0
        G[2, 0, 0] = -a
        G[2, 1, 1] = b
        return MetricJet(np.diag([a, b, 1.0]), np.diag([b, a, 1.0]), dg, G)

    def christoffel_d1(self, q):
        z = np.asarray(q, dtype=float)[..., 2]
        D = np.zeros(z.shape + (3, 3, 3, 3))
        D[..., 2, 2, 0, 0] = -2 * np.exp(2 * z)
        D[..., 2, 2, 1, 1] = -2 * np.exp(-2 * z)
        return D

    def riemann_tensor(self, q):
        """R^d_{cab} = K_ab g_cc (delta^d_a delta_cb - delta^d_b delta_ca): the coordinate
        planes have sectional curvature K_xy = 1, K_xz = K_yz = -1 and R is diagonal on them."""
        z = np.asarray(q, dtype=float)[..., 2]
        g_diag = np.stack([np.exp(2 * z), np.exp(-2 * z), np.ones_like(z)], axis=-1)
        return _curvature_basis(3) * (g_diag[..., None, :, None, None] * _SOL_PLANE_CURVATURE)

    def sample_point(self, rng):
        return np.array([rng.uniform(), rng.uniform(), rng.uniform(-1.0, 1.0)])


class ConformalTorus(MetricFamily):
    """g = e^{2 sigma(q)} I on the torus for a closed-form scalar field sigma."""

    def __init__(self, sigma, periods=None):
        self.sigma = sigma
        self.dim = sigma.dim
        self.periods = np.ones(self.dim) if periods is None else check_periods(periods, self.dim)
        self._eye = np.eye(self.dim)

    def jet(self, q):
        sigma, dsigma = self.sigma.value_grad(q)
        return _conformal_jet(np.exp(2 * sigma), dsigma, self._eye)

    def christoffel_d1(self, q):
        return _conformal_christoffel_d1(self.sigma.hess(q))

    def riemann_tensor(self, q):
        """Closed form in dim 2 only: Gauss curvature K = -e^{-2 sigma} lap sigma."""
        if self.dim != 2:
            return None
        # K e^{2 sigma} = -lap sigma
        lap = np.trace(self.sigma.hess(q), axis1=-2, axis2=-1)
        return np.multiply.outer(-lap, _curvature_basis(2))

    def sample_point(self, rng):
        return rng.uniform(0.0, self.periods)


class ProductMetric(MetricFamily):
    """Block-diagonal metric of two factor scenarios.

    g, dg, Gamma and dGamma are the block diagonals of the factors' tensors:
    every component whose indices mix the factors is 0.
    """

    def __init__(self, scenario1, scenario2):
        self.s1 = scenario1
        self.s2 = scenario2
        self.n1 = scenario1.dim
        self.n2 = scenario2.dim
        self.dim = self.n1 + self.n2
        self.is_flat = scenario1.metric_family.is_flat and scenario2.metric_family.is_flat
        self.is_constant_metric = (scenario1.metric_family.is_constant_metric
                                   and scenario2.metric_family.is_constant_metric)
        self._jet = None   # the q-independent jet of a constant metric, once built

    def split(self, q):
        return q[..., : self.n1], q[..., self.n1:]

    def _blocks(self, a1, a2, rank):
        """The block diagonal of two stacks of rank-index tensors of the factors."""
        lead = np.broadcast_shapes(a1.shape[:a1.ndim - rank], a2.shape[:a2.ndim - rank])
        out = np.zeros(lead + (self.dim,) * rank)
        out[(...,) + (slice(None, self.n1),) * rank] = a1
        out[(...,) + (slice(self.n1, None),) * rank] = a2
        return out

    def jet(self, q):
        if self._jet is not None:
            return self._jet
        q1, q2 = self.split(q)
        j1 = self.s1.metric_family.jet(q1)
        j2 = self.s2.metric_family.jet(q2)
        jet = MetricJet(*(self._blocks(a1, a2, a1.ndim) for a1, a2 in zip(j1, j2)))
        if self.is_constant_metric:
            self._jet = jet
        return jet

    def christoffel_d1(self, q):
        q1, q2 = self.split(q)
        return self._blocks(self.s1.christoffel_d1(q1), self.s2.christoffel_d1(q2), 4)

    def check_point(self, q):
        q1, q2 = self.split(q)
        self.s1.metric_family.check_point(q1)
        self.s2.metric_family.check_point(q2)

    def sample_point(self, rng):
        return np.concatenate([
            self.s1.metric_family.sample_point(rng),
            self.s2.metric_family.sample_point(rng),
        ])
