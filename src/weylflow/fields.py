"""Scalar and vector field families with closed-form derivatives.

Scalar fields expose value/grad/hess and value_grad, the value and gradient
from one evaluation, bit for bit equal to value and grad (the conformal
metric reads sigma through it).  A FourierField also has grad_hess: both
derivatives from one cos/sin evaluation, bit for bit equal to grad and hess;
the reduced field's Jacobian reads its potential through it.

Vector (thermostat) fields expose ``value(q, metric)``, the contravariant
components E, and ``jacobian(q, metric, E)``, their Jacobian given E, raising
indices with the metric's jet at q (see metrics.MetricJet).  E has one
formula, so the flows and the frame transport, which read E alone, pay
nothing for the Jacobian.

Every scalar method and every ``jacobian`` also takes q with leading axes, a
stack of points (with a MetricJet and E of the same stack), and gives the
stack of the single-point results.  Everything is evaluated in chart coordinates and is deterministic:
the same point always returns the same bits.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateMetricError
from .metrics import check_periods, matvec, vecdot, vecmat


class FourierField:
    """Finite trigonometric sum  f(q) = sum_k a_k cos(2pi k.q/L) + b_k sin(2pi k.q/L).

    Wavevectors k are integer tuples; periods default to 1 per axis and must be
    positive and finite.  First and second derivatives are closed form.
    """

    def __init__(self, dim, terms=(), periods=None):
        self.dim = int(dim)
        terms = list(terms)
        if terms:
            self.ks = np.array([t[0] for t in terms], dtype=float)
            self.a = np.array([t[1] for t in terms], dtype=float)
            self.b = np.array([t[2] for t in terms], dtype=float)
        else:
            self.ks = np.zeros((0, self.dim))
            self.a = np.zeros(0)
            self.b = np.zeros(0)
        if self.ks.shape[1:] != (self.dim,):
            raise ValueError("wavevector dimension mismatch")
        periods = np.ones(self.dim) if periods is None else check_periods(periods, self.dim)
        self.freq = 2.0 * np.pi * self.ks / periods  # per-term angular frequency vector

    def _trig(self, q):
        """cos and sin of the phases freq . q, (..., terms); with no terms every
        sum below is empty and gives 0."""
        arg = matvec(self.freq, np.asarray(q, dtype=float))
        return np.cos(arg), np.sin(arg)

    def value(self, q):
        cos, sin = self._trig(q)
        return vecdot(cos, self.a) + vecdot(sin, self.b)

    def grad(self, q):
        cos, sin = self._trig(q)
        return vecmat(-self.a * sin + self.b * cos, self.freq)

    def hess(self, q):
        cos, sin = self._trig(q)
        return (self.freq.T * (-self.a * cos - self.b * sin)[..., None, :]) @ self.freq

    def value_grad(self, q):
        """(value(q), grad(q)) from one evaluation of the cosines and sines."""
        cos, sin = self._trig(q)
        return (vecdot(cos, self.a) + vecdot(sin, self.b),
                vecmat(-self.a * sin + self.b * cos, self.freq))

    def grad_hess(self, q):
        """(grad(q), hess(q)) from one evaluation of the cosines and sines."""
        cos, sin = self._trig(q)
        return (vecmat(-self.a * sin + self.b * cos, self.freq),
                (self.freq.T * (-self.a * cos - self.b * sin)[..., None, :]) @ self.freq)

    @property
    def is_zero(self):
        return len(self.a) == 0 or (not self.a.any() and not self.b.any())


class HalfLogField:
    """sigma(q) = 0.5 * ln(h - W(q)), the conformal exponent of the Maupertuis factor."""

    def __init__(self, h, potential):
        self.h = float(h)
        self.potential = potential
        self.dim = potential.dim

    def _margin(self, q, w=None):
        """h - W(q), from W(q) = w when the caller has it; raises unless positive."""
        m = self.h - (self.potential.value(q) if w is None else w)
        if (m <= 0.0).any():
            raise DegenerateMetricError(f"h - W <= 0 at q={np.asarray(q)}")
        return m

    def value(self, q):
        return 0.5 * np.log(self._margin(q))

    def value_grad(self, q):
        """(value(q), grad(q)) from one evaluation of the potential."""
        w, gw = self.potential.value_grad(q)
        m = self._margin(q, w)
        return 0.5 * np.log(m), -0.5 * gw / m[..., None]

    def grad(self, q):
        m = self._margin(q)
        return -0.5 * self.potential.grad(q) / m[..., None]

    def hess(self, q):
        m = self._margin(q)[..., None, None]
        g = self.potential.grad(q)
        return -0.5 * self.potential.hess(q) / m - 0.5 * (g[..., :, None] * g[..., None, :]) / m**2

    @property
    def is_zero(self):
        return False


# ---------------------------------------------------------------------------
# Thermostat (vector) fields.  value(q, metric) returns the contravariant
# components E^k, and jacobian(q, metric, E) returns dE[k, m] = d E^k / d q_m
# given E = value(q, metric), each from the MetricJet at q.
# ---------------------------------------------------------------------------

class VectorField:
    is_constant = False
    reads_metric = True    # False: value and jacobian ignore their metric argument

    def value(self, q, metric):
        raise NotImplementedError

    def jacobian(self, q, metric, E):
        raise NotImplementedError

    def constant_on(self, scenario):
        """True when the components are q-independent for this scenario."""
        return self.is_constant

    @property
    def is_zero(self):
        return False


class ConstantField(VectorField):
    """Constant contravariant components in the chart.

    Returned arrays are shared; callers must not mutate them.
    """

    is_constant = True
    reads_metric = False

    def __init__(self, components):
        self.c = np.asarray(components, dtype=float)
        self._jac = np.zeros((len(self.c), len(self.c)))

    def value(self, q, metric):
        return self.c

    def jacobian(self, q, metric, E):
        return self._jac

    @property
    def is_zero(self):
        return not self.c.any()


class ZeroField(ConstantField):
    def __init__(self, dim):
        super().__init__(np.zeros(dim))


class FourierComponentsField(VectorField):
    """Each contravariant component is an independent FourierField."""

    reads_metric = False

    def __init__(self, components):
        self.fields = tuple(components)

    def value(self, q, metric):
        return np.array([f.value(q) for f in self.fields])    # one point; np.stack costs 10x

    def jacobian(self, q, metric, E):
        return np.stack([f.grad(q) for f in self.fields], axis=-2)

    @property
    def is_zero(self):
        return all(f.is_zero for f in self.fields)


class GradientField(VectorField):
    """E = -grad U with the index raised by the scenario metric."""

    def __init__(self, potential):
        self.potential = potential

    def value(self, q, metric):
        return metric.raise_index(-self.potential.grad(q))

    def jacobian(self, q, metric, E):
        return metric.raised_jacobian(E, -self.potential.hess(q))

    @property
    def is_zero(self):
        return self.potential.is_zero


class ClosedOneFormField(VectorField):
    """E = g^{-1} c for a constant covector c: closed, locally potential, not exact."""

    def __init__(self, covector):
        self.cov = np.asarray(covector, dtype=float)
        self._dcov = np.zeros((len(self.cov), len(self.cov)))

    def value(self, q, metric):
        return metric.raise_index(self.cov)

    def jacobian(self, q, metric, E):
        return metric.raised_jacobian(E, self._dcov)

    def constant_on(self, scenario):
        return scenario.metric_family.is_constant_metric

    @property
    def is_zero(self):
        return not self.cov.any()


class SolLeftInvariantField(VectorField):
    """Constant combination of the SOL frame (e^{-z} dx, e^{z} dy, dz)."""

    _RATES = np.array([-1.0, 1.0, 0.0])    # E^k = c_k e^{rate_k z}
    reads_metric = False

    def __init__(self, c1=0.0, c2=0.0, c3=1.0):
        self.c = np.array([c1, c2, c3], dtype=float)

    def value(self, q, metric):
        return self.c * np.exp(self._RATES * np.asarray(q, dtype=float)[..., 2, None])

    def jacobian(self, q, metric, E):
        jac = np.zeros(np.shape(E) + (3,))
        jac[..., 2] = self._RATES * E
        return jac

    @property
    def is_zero(self):
        return not self.c.any()


class RotationalField(VectorField):
    """Divergence-free field of constant g-norm on a conformal chart g = lam^2 I.

    E = (c / (lam r)) * (-q2, q1); singular at the chart origin.
    """

    _DPERP = np.array([[0.0, -1.0], [1.0, 0.0]])   # d(-q2, q1)/dq

    def __init__(self, c):
        self.cnorm = float(c)

    def _polar(self, q, metric):
        """q, lam, r (each with a trailing axis of 1) and perp = (-q2, q1)."""
        q = np.asarray(q, dtype=float)
        lam = np.sqrt(metric.g[..., 0, 0])[..., None]
        r = np.hypot(q[..., 0], q[..., 1])[..., None]
        if (r < 1e-12).any():
            raise DegenerateMetricError("rotational field undefined at the chart origin")
        return q, lam, r, np.stack([-q[..., 1], q[..., 0]], axis=-1)

    def value(self, q, metric):
        _, lam, r, perp = self._polar(q, metric)
        return (self.cnorm / (lam * r)) * perp

    def jacobian(self, q, metric, E):
        q, lam, r, perp = self._polar(q, metric)
        dlam = metric.dg[..., :, 0, 0] / (2.0 * lam)
        # E = c * perp / (lam r): product rule on 1/(lam r)
        dinv = -(dlam * r + lam * q / r) / (lam * r) ** 2
        return self.cnorm * (self._DPERP / (lam * r)[..., None]
                             + perp[..., :, None] * dinv[..., None, :])

    @property
    def is_zero(self):
        return self.cnorm == 0.0


class ProductField(VectorField):
    """Concatenation (E1, E2) on a product scenario."""

    def __init__(self, f1, n1, f2, n2):
        self.f1, self.n1 = f1, n1
        self.f2, self.n2 = f2, n2
        self.reads_metric = f1.reads_metric or f2.reads_metric

    def value(self, q, metric):
        n1, n = self.n1, self.n1 + self.n2
        # the factors' jets are views that cost a call each: build them only when read
        m1, m2 = (metric.block(0, n1), metric.block(n1, n)) if self.reads_metric else (None, None)
        return np.concatenate([self.f1.value(q[:n1], m1), self.f2.value(q[n1:], m2)])

    def jacobian(self, q, metric, E):
        n1, n = self.n1, self.n1 + self.n2
        jac = np.zeros(np.shape(q)[:-1] + (n, n))
        jac[..., :n1, :n1] = self.f1.jacobian(q[..., :n1], metric.block(0, n1), E[..., :n1])
        jac[..., n1:, n1:] = self.f2.jacobian(q[..., n1:], metric.block(n1, n), E[..., n1:])
        return jac

    def constant_on(self, scenario):
        fam = scenario.metric_family
        return self.f1.constant_on(fam.s1) and self.f2.constant_on(fam.s2)

    @property
    def is_zero(self):
        return self.f1.is_zero and self.f2.is_zero


class ReducedField(VectorField):
    """E_tilde = (-grad W + E) / (2 (h - W)): the isoenergetic-to-W-flow reduction."""

    def __init__(self, potential, base_field, h):
        self.potential = potential
        self.base = base_field
        self.h = float(h)

    def value(self, q, metric):
        m = self.h - self.potential.value(q)
        num = self.base.value(q, metric) - metric.raise_index(self.potential.grad(q))
        return num / (2.0 * m)

    def jacobian(self, q, metric, E):
        m = (self.h - self.potential.value(q))[..., None, None]
        gw, hw = self.potential.grad_hess(q)
        grad_w = metric.raise_index(gw)
        # num = E_base - grad W = 2 m E_tilde, so
        # d/dq_m [num_k / (2m)] = dnum/(2m) + num_k W_m / (2 m^2) = (dnum + 2 E_tilde_k W_m) / (2m)
        E_base = 2.0 * m[..., 0] * E + grad_w
        dnum = self.base.jacobian(q, metric, E_base) - metric.raised_jacobian(grad_w, hw)
        return (dnum + 2.0 * E[..., :, None] * gw[..., None, :]) / (2.0 * m)
