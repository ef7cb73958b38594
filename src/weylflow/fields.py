"""Scalar and vector field families with closed-form derivatives.

Scalar fields expose value/grad/hess; vector (thermostat) fields expose
contravariant components and their Jacobian.  Everything is evaluated in
chart coordinates and is deterministic: the same point always returns the
same bits.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateMetricError


class FourierField:
    """Finite trigonometric sum  f(q) = sum_k a_k cos(2pi k.q/L) + b_k sin(2pi k.q/L).

    Wavevectors k are integer tuples; periods default to 1 per axis.
    First and second derivatives are closed form.
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
        periods = np.ones(self.dim) if periods is None else np.asarray(periods, dtype=float)
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
        return np.einsum("m,mi,mj->ij", coef, self.freq, self.freq)

    @property
    def is_zero(self):
        return len(self.a) == 0 or (not self.a.any() and not self.b.any())


class HalfLogField:
    """sigma(q) = 0.5 * ln(h - W(q)), the conformal exponent of the Maupertuis factor."""

    def __init__(self, h, potential):
        self.h = float(h)
        self.potential = potential
        self.dim = potential.dim

    def _margin(self, q):
        m = self.h - self.potential.value(q)
        if m <= 0.0:
            raise DegenerateMetricError(f"h - W <= 0 at q={np.asarray(q)}")
        return m

    def value(self, q):
        return 0.5 * np.log(self._margin(q))

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
# Thermostat (vector) fields.  Components are contravariant; jacobian(q)[k, m]
# is d E^k / d q_m.  Fields that raise an index receive the owning scenario.
# ---------------------------------------------------------------------------

class VectorField:
    is_constant = False

    def components(self, q, scenario):
        raise NotImplementedError

    def jacobian(self, q, scenario):
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

    def components(self, q, scenario):
        return self.c

    def jacobian(self, q, scenario):
        return self._jac

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

    def components(self, q, scenario):
        return np.array([f.value(q) for f in self.fields])

    def jacobian(self, q, scenario):
        return np.array([f.grad(q) for f in self.fields])

    @property
    def is_zero(self):
        return all(f.is_zero for f in self.fields)


class GradientField(VectorField):
    """E = -grad U with the index raised by the scenario metric."""

    def __init__(self, potential):
        self.potential = potential

    def components(self, q, scenario):
        ginv = scenario.metric_inv(q)
        return -ginv @ self.potential.grad(q)

    def jacobian(self, q, scenario):
        ginv = scenario.metric_inv(q)
        gu = self.potential.grad(q)
        hu = self.potential.hess(q)
        return -((scenario.metric_inv_d1(q, ginv) @ gu).T + ginv @ hu)

    @property
    def is_zero(self):
        return self.potential.is_zero


class ClosedOneFormField(VectorField):
    """E = g^{-1} c for a constant covector c: closed, locally potential, not exact."""

    def __init__(self, covector):
        self.cov = np.asarray(covector, dtype=float)

    def components(self, q, scenario):
        return scenario.metric_inv(q) @ self.cov

    def jacobian(self, q, scenario):
        return (scenario.metric_inv_d1(q) @ self.cov).T

    def constant_on(self, scenario):
        return scenario.metric_family.is_constant_metric

    @property
    def is_zero(self):
        return not self.cov.any()


class SolLeftInvariantField(VectorField):
    """Constant combination of the SOL frame (e^{-z} dx, e^{z} dy, dz)."""

    def __init__(self, c1=0.0, c2=0.0, c3=1.0):
        self.c = np.array([c1, c2, c3], dtype=float)

    def components(self, q, scenario):
        z = q[2]
        c1, c2, c3 = self.c
        return np.array([c1 * np.exp(-z), c2 * np.exp(z), c3])

    def jacobian(self, q, scenario):
        z = q[2]
        c1, c2, c3 = self.c
        jac = np.zeros((3, 3))
        jac[0, 2] = -c1 * np.exp(-z)
        jac[1, 2] = c2 * np.exp(z)
        return jac

    @property
    def is_zero(self):
        return not self.c.any()


class RotationalField(VectorField):
    """Divergence-free field of constant g-norm on a conformal chart g = lam^2 I.

    E = (c / (lam r)) * (-q2, q1); singular at the chart origin.
    """

    def __init__(self, c):
        self.cnorm = float(c)

    def components(self, q, scenario):
        lam = scenario.metric_family.conformal_factor(q)
        r = float(np.hypot(q[0], q[1]))
        if r < 1e-12:
            raise DegenerateMetricError("rotational field undefined at the chart origin")
        return (self.cnorm / (lam * r)) * np.array([-q[1], q[0]])

    def jacobian(self, q, scenario):
        fam = scenario.metric_family
        lam = fam.conformal_factor(q)
        dlam = fam.conformal_factor_grad(q)
        r = float(np.hypot(q[0], q[1]))
        if r < 1e-12:
            raise DegenerateMetricError("rotational field undefined at the chart origin")
        perp = np.array([-q[1], q[0]])
        dperp = np.array([[0.0, -1.0], [1.0, 0.0]])
        # E = c * perp / (lam r): product rule on 1/(lam r)
        dinv = -(dlam * r + lam * np.asarray(q) / r) / (lam * r) ** 2
        return self.cnorm * (dperp / (lam * r) + np.outer(perp, dinv))

    @property
    def is_zero(self):
        return self.cnorm == 0.0


class ProductField(VectorField):
    """Concatenation (E1, E2) on a product scenario."""

    def __init__(self, f1, n1, f2, n2):
        self.f1, self.n1 = f1, n1
        self.f2, self.n2 = f2, n2

    def components(self, q, scenario):
        s1, s2 = scenario.metric_family.factor_scenarios(scenario)
        return np.concatenate([
            self.f1.components(q[: self.n1], s1),
            self.f2.components(q[self.n1:], s2),
        ])

    def constant_on(self, scenario):
        s1, s2 = scenario.metric_family.factor_scenarios(scenario)
        return self.f1.constant_on(s1) and self.f2.constant_on(s2)

    def jacobian(self, q, scenario):
        s1, s2 = scenario.metric_family.factor_scenarios(scenario)
        n = self.n1 + self.n2
        jac = np.zeros((n, n))
        jac[: self.n1, : self.n1] = self.f1.jacobian(q[: self.n1], s1)
        jac[self.n1:, self.n1:] = self.f2.jacobian(q[self.n1:], s2)
        return jac

    @property
    def is_zero(self):
        return self.f1.is_zero and self.f2.is_zero


class ReducedField(VectorField):
    """E_tilde = (-grad W + E) / (2 (h - W)): the isoenergetic-to-W-flow reduction."""

    def __init__(self, potential, base_field, h):
        self.potential = potential
        self.base = base_field
        self.h = float(h)

    def components(self, q, scenario):
        m = self.h - self.potential.value(q)
        ginv = scenario.metric_inv(q)
        num = -ginv @ self.potential.grad(q) + self.base.components(q, scenario)
        return num / (2.0 * m)

    def jacobian(self, q, scenario):
        m = self.h - self.potential.value(q)
        ginv = scenario.metric_inv(q)
        gw = self.potential.grad(q)
        hw = self.potential.hess(q)
        num = -ginv @ gw + self.base.components(q, scenario)
        dnum = (-(scenario.metric_inv_d1(q, ginv) @ gw).T - ginv @ hw
                + self.base.jacobian(q, scenario))
        # d/dq_m [num_k / (2m)] = dnum/(2m) + num_k * W_m / (2 m^2)
        return dnum / (2.0 * m) + np.outer(num, gw) / (2.0 * m**2)
