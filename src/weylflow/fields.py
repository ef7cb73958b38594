"""Scalar and vector field families with closed-form derivatives.

Scalar fields expose value/grad/hess and value_grad, the value and gradient
from one evaluation, bit for bit equal to value and grad (the conformal
metric reads sigma through it).  A FourierField also has grad_hess: both
derivatives from one cos/sin evaluation, bit for bit equal to grad and hess;
the gradient and reduced fields read their potential through it.

Vector (thermostat) fields expose one ``jet(q, metric)`` that returns the
contravariant components and their Jacobian together, raising indices with
the metric's jet at q (see metrics.MetricJet), so a point costs one
evaluation.  Everything is evaluated in chart coordinates and is
deterministic: the same point always returns the same bits.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateMetricError
from .metrics import check_periods


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

    def value(self, q):
        if len(self.a) == 0:
            return 0.0
        arg = self.freq @ np.asarray(q, dtype=float)
        return float(self.a @ np.cos(arg) + self.b @ np.sin(arg))

    def grad(self, q):
        if len(self.a) == 0:
            return np.zeros(self.dim)
        arg = self.freq @ np.asarray(q, dtype=float)
        coef = -self.a * np.sin(arg) + self.b * np.cos(arg)
        return coef @ self.freq

    def hess(self, q):
        if len(self.a) == 0:
            return np.zeros((self.dim, self.dim))
        arg = self.freq @ np.asarray(q, dtype=float)
        coef = -self.a * np.cos(arg) - self.b * np.sin(arg)
        return (self.freq.T * coef) @ self.freq

    def value_grad(self, q):
        """(value(q), grad(q)) from one evaluation of the cosines and sines."""
        if len(self.a) == 0:
            return 0.0, np.zeros(self.dim)
        arg = self.freq @ np.asarray(q, dtype=float)
        cos, sin = np.cos(arg), np.sin(arg)
        return (float(self.a @ cos + self.b @ sin),
                (-self.a * sin + self.b * cos) @ self.freq)

    def grad_hess(self, q):
        """(grad(q), hess(q)) from one evaluation of the cosines and sines."""
        if len(self.a) == 0:
            return np.zeros(self.dim), np.zeros((self.dim, self.dim))
        arg = self.freq @ np.asarray(q, dtype=float)
        cos, sin = np.cos(arg), np.sin(arg)
        return ((-self.a * sin + self.b * cos) @ self.freq,
                (self.freq.T * (-self.a * cos - self.b * sin)) @ self.freq)

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
        if m <= 0.0:
            raise DegenerateMetricError(f"h - W <= 0 at q={np.asarray(q)}")
        return m

    def value(self, q):
        return 0.5 * np.log(self._margin(q))

    def value_grad(self, q):
        """(value(q), grad(q)) from one evaluation of the potential."""
        w, gw = self.potential.value_grad(q)
        m = self._margin(q, w)
        return 0.5 * np.log(m), -0.5 * gw / m

    def grad(self, q):
        m = self._margin(q)
        return -0.5 * self.potential.grad(q) / m

    def hess(self, q):
        m = self._margin(q)
        g = self.potential.grad(q)
        return -0.5 * self.potential.hess(q) / m - 0.5 * np.outer(g, g) / m**2

    @property
    def is_zero(self):
        return False


# ---------------------------------------------------------------------------
# Thermostat (vector) fields.  jet(q, metric) returns (E, dE): contravariant
# components E^k and dE[k, m] = d E^k / d q_m, given the MetricJet at q, from
# one evaluation of the field's data.
# ---------------------------------------------------------------------------

class VectorField:
    is_constant = False

    def jet(self, q, metric):
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

    def __init__(self, components):
        self.c = np.asarray(components, dtype=float)
        self._jac = np.zeros((len(self.c), len(self.c)))

    def jet(self, q, metric):
        return self.c, self._jac

    @property
    def is_zero(self):
        return not self.c.any()


class ZeroField(ConstantField):
    def __init__(self, dim):
        super().__init__(np.zeros(dim))


class FourierComponentsField(VectorField):
    """Each contravariant component is an independent FourierField."""

    def __init__(self, components):
        self.fields = tuple(components)

    def jet(self, q, metric):
        values, grads = zip(*(f.value_grad(q) for f in self.fields))
        return np.array(values), np.array(grads)

    @property
    def is_zero(self):
        return all(f.is_zero for f in self.fields)


class GradientField(VectorField):
    """E = -grad U with the index raised by the scenario metric."""

    def __init__(self, potential):
        self.potential = potential

    def jet(self, q, metric):
        grad, hess = self.potential.grad_hess(q)
        return metric.raise_index(-grad, -hess)

    @property
    def is_zero(self):
        return self.potential.is_zero


class ClosedOneFormField(VectorField):
    """E = g^{-1} c for a constant covector c: closed, locally potential, not exact."""

    def __init__(self, covector):
        self.cov = np.asarray(covector, dtype=float)
        self._dcov = np.zeros((len(self.cov), len(self.cov)))

    def jet(self, q, metric):
        return metric.raise_index(self.cov, self._dcov)

    def constant_on(self, scenario):
        return scenario.metric_family.is_constant_metric

    @property
    def is_zero(self):
        return not self.cov.any()


class SolLeftInvariantField(VectorField):
    """Constant combination of the SOL frame (e^{-z} dx, e^{z} dy, dz)."""

    def __init__(self, c1=0.0, c2=0.0, c3=1.0):
        self.c = np.array([c1, c2, c3], dtype=float)

    def jet(self, q, metric):
        a, b = self.c[0] * np.exp(-q[2]), self.c[1] * np.exp(q[2])
        jac = np.zeros((3, 3))
        jac[0, 2] = -a
        jac[1, 2] = b
        return np.array([a, b, self.c[2]]), jac

    @property
    def is_zero(self):
        return not self.c.any()


class RotationalField(VectorField):
    """Divergence-free field of constant g-norm on a conformal chart g = lam^2 I.

    E = (c / (lam r)) * (-q2, q1); singular at the chart origin.
    """

    def __init__(self, c):
        self.cnorm = float(c)

    def jet(self, q, metric):
        lam = np.sqrt(metric.g[0, 0])
        dlam = metric.dg[:, 0, 0] / (2.0 * lam)
        r = float(np.hypot(q[0], q[1]))
        if r < 1e-12:
            raise DegenerateMetricError("rotational field undefined at the chart origin")
        perp = np.array([-q[1], q[0]])
        dperp = np.array([[0.0, -1.0], [1.0, 0.0]])
        # E = c * perp / (lam r): product rule on 1/(lam r)
        dinv = -(dlam * r + lam * np.asarray(q) / r) / (lam * r) ** 2
        return ((self.cnorm / (lam * r)) * perp,
                self.cnorm * (dperp / (lam * r) + np.outer(perp, dinv)))

    @property
    def is_zero(self):
        return self.cnorm == 0.0


class ProductField(VectorField):
    """Concatenation (E1, E2) on a product scenario."""

    def __init__(self, f1, n1, f2, n2):
        self.f1, self.n1 = f1, n1
        self.f2, self.n2 = f2, n2

    def jet(self, q, metric):
        n1, n = self.n1, self.n1 + self.n2
        E1, dE1 = self.f1.jet(q[:n1], metric.block(0, n1))
        E2, dE2 = self.f2.jet(q[n1:], metric.block(n1, n))
        jac = np.zeros((n, n))
        jac[:n1, :n1] = dE1
        jac[n1:, n1:] = dE2
        return np.concatenate([E1, E2]), jac

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

    def jet(self, q, metric):
        m = self.h - self.potential.value(q)
        gw, hw = self.potential.grad_hess(q)
        grad_w, dgrad_w = metric.raise_index(gw, hw)
        E, dE = self.base.jet(q, metric)
        num = E - grad_w
        dnum = dE - dgrad_w
        # d/dq_m [num_k / (2m)] = dnum/(2m) + num_k * W_m / (2 m^2)
        return num / (2.0 * m), dnum / (2.0 * m) + np.outer(num, gw) / (2.0 * m**2)
