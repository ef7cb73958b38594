"""Thermostatted Lorentz gas on the flat 2-torus with circular scatterers.

Free flight follows the exact thermostat curves (in field-aligned
coordinates the translates of  a x = -ln cos(a y), or the two straight lines
along +-E).  Collisions are found by marching along the flight (``_search``):
a lower bound on the distance to each nearby scatterer image, from
u'' >= -|E|, gives steps that no entry can hide in.  Where the bound comes
within one cell of a circle, the cell is bracketed by a sign change or a dip
of the distance and refined to 1e-12 in time by a safeguarded Newton method
(``_rtsafe``) with analytic derivatives.  The rotation between world and
field-aligned coordinates has one formula (``BilliardTable._turn``), shared
by arrays and by the per-step arithmetic on float pairs.
The quotient tangent dynamics is propagated in closed form across flights
(curvature vanishes on the 2-torus with constant field) and a curvature kick
at each specular reflection, as scalar arithmetic: a unit vector and two
log-sums, renormalised by a closed-form 2x2 Gram-Schmidt at every event.  The
exponents obey the pair identity lambda1 + lambda2 = sbar, the time average
of -phi(v), which ``run_billiard`` reports as a residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GrazingCollisionError,
    InvalidStateError,
    NoOrbitError,
    UnsupportedConfigurationError,
    ZeroFieldError,
)

GRAZING_TOL = 1e-10
GRAZE_SKIP = 1e-9            # time a grazing restart runs on past the tangency
FLIGHT_CAP_FACTOR = 10.0
BISECT_TOL = 1e-12
MAX_CONSECUTIVE_CAPS = 100   # capped flights in a row before an infinite-horizon abort
HORIZON_MAX_INDEX = 4        # largest lattice-direction index the horizon test checks
PARABOLIC_TOL = 1e-9         # |trace| within this of 2 classifies a monodromy as parabolic
ELLIPTIC_PHASES = np.linspace(2.7, 3.6, 7)   # separations |E| d tried by find_first_elliptic
ELLIPTIC_SEEDS = 12          # boundary-angle seeds per circle in find_first_elliptic


@dataclass
class Scatterer:
    center: np.ndarray
    radius: float


class BilliardTable:
    """Flat torus with disjoint circular scatterers and a constant field E.

    The field is stored as magnitude and direction angle; flight evaluation
    happens in field-aligned coordinates (rotation recorded in field_angle).
    """

    def __init__(self, periods, scatterers, field_magnitude=0.0, field_angle=0.0):
        self.periods = np.asarray(periods, dtype=float)
        self.scatterers = [Scatterer(np.asarray(c, dtype=float), float(r))
                           for c, r in scatterers]
        self.a = float(field_magnitude)
        self.field_angle = float(field_angle)
        if self.periods.shape != (2,) or not np.all(np.isfinite(self.periods) & (self.periods > 0)):
            raise InvalidStateError(f"periods must be two positive numbers, got {periods!r}")
        if not 0.0 <= self.a < np.inf:
            raise InvalidStateError(f"field magnitude must be >= 0, got {field_magnitude!r}")
        if not math.isfinite(self.field_angle):
            raise InvalidStateError(f"field angle must be finite, got {field_angle!r}")
        if not self.scatterers:
            raise InvalidStateError("a table needs at least one scatterer")
        for s in self.scatterers:
            if s.center.shape != (2,) or not np.isfinite(s.center).all():
                raise InvalidStateError(f"scatterer centre must be 2 finite numbers: {s.center}")
            if not 0.0 < s.radius < np.inf:
                raise InvalidStateError(f"scatterer radius must be positive, got {s.radius}")
        self._check_disjoint()
        ca, sa = math.cos(self.field_angle), math.sin(self.field_angle)
        self._cos, self._sin = ca, sa
        self._rot = np.array([[ca, sa], [-sa, ca]])      # world -> aligned, as a matrix
        self.field = self.a * np.array([ca, sa])
        self._period_xy = tuple(self.periods.tolist())
        self._discs = [(tuple(s.center.tolist()), s.radius) for s in self.scatterers]
        # search cell length (see _search): h <= r/4 on every scatterer,
        # h <= 1/(4|E|) and h <= sqrt(1 - r|E|)/|E| on every scatterer with r|E| < 1
        bounds = [s.radius / 4.0 for s in self.scatterers]
        if self.a > 0:
            bounds += [0.25 / self.a] + [math.sqrt(1.0 - s.radius * self.a) / self.a
                                         for s in self.scatterers if s.radius * self.a < 1.0]
        self.cell = min(bounds)
        self.horizon_finite = self._compute_horizon()

    def _turn(self, x, y, s):
        """The one rotation formula, on floats and arrays alike: s = -sin(field_angle)
        takes world to aligned coordinates, s = sin(field_angle) back.  Scalar
        and array paths share it, so their aligned angles agree bit for bit."""
        c = self._cos
        return c * x - s * y, s * x + c * y

    def _rotate(self, x, s):
        x = np.asarray(x, dtype=float)
        return np.stack(self._turn(x[..., 0], x[..., 1], s), axis=-1)

    def to_aligned(self, x):
        """World -> field-aligned coordinates of a vector or of rows (..., 2)."""
        return self._rotate(x, -self._sin)

    def from_aligned(self, x):
        """Field-aligned -> world coordinates of a vector or of rows (..., 2)."""
        return self._rotate(x, self._sin)

    def wrap(self, q):
        return np.mod(q, self.periods)

    def _check_disjoint(self):
        """Every pair of discs, and every disc and its own images, stay 1e-9
        apart.  The nearest image of one centre seen from another is the
        closest of all, so it is the only one to test."""
        L = self.periods
        for i, s in enumerate(self.scatterers):
            for j, t in enumerate(self.scatterers[i:], start=i):
                off = (t.center - s.center + 0.5 * L) % L - 0.5 * L   # nearest-image offset
                gap = (np.linalg.norm(off) if j > i else L.min()) - s.radius - t.radius
                if gap < 1e-9:
                    raise InvalidStateError(f"scatterers {i} and {j} overlap (gap {gap:.2g})")

    def _compute_horizon(self):
        """True when every primitive lattice corridor with |p|, |q| <= HORIZON_MAX_INDEX
        is blocked."""
        Lx, Ly = self.periods
        H = HORIZON_MAX_INDEX
        dirs = [(p, q_) for p in range(-H, H + 1) for q_ in range(H + 1)
                if (q_ == 0 and p == 1) or (q_ > 0 and math.gcd(abs(p), q_) == 1)]
        for p, q_ in dirs:
            w = np.array([p * Lx, q_ * Ly])
            spacing = Lx * Ly / np.linalg.norm(w)
            nhat = np.array([-w[1], w[0]]) / np.linalg.norm(w)
            taus = [(float(s.center @ nhat) % spacing, s.radius) for s in self.scatterers]
            if not _intervals_cover_circle([(t - r, t + r) for t, r in taus], spacing):
                return False
        return True

    def outside(self, q, tol=0.0):
        """True unless q lies deeper than tol inside a scatterer image.  Only the
        nearest image can hold q: a disc misses its own images, so r < min(L)/2."""
        (Lx, Ly), qx, qy = self._period_xy, float(q[0]), float(q[1])
        qx, qy = qx % Lx, qy % Ly
        for (cx, cy), r in self._discs:
            ox, oy = qx - cx, qy - cy
            if math.hypot(ox - Lx * round(ox / Lx), oy - Ly * round(oy / Ly)) < r - tol:
                return False
        return True


def draw_q(table, rng):
    """A uniform point of the fundamental cell, by rejection of points deeper
    than 1e-9 inside a scatterer."""
    while True:
        q = rng.uniform(0, table.periods)
        if table.outside(q, tol=1e-9):
            return q


def draw_v(rng):
    """A unit velocity at a uniform angle."""
    th = rng.uniform(0, 2 * np.pi)
    return np.array([np.cos(th), np.sin(th)])


def _intervals_cover_circle(intervals, period):
    segs = []
    for lo, hi in intervals:
        if hi - lo >= period:
            return True
        lo_m = lo % period
        hi_m = lo_m + (hi - lo)
        if hi_m <= period:
            segs.append((lo_m, hi_m))
        else:
            segs.append((lo_m, period))
            segs.append((0.0, hi_m - period))
    segs.sort()
    cover = 0.0
    for lo, hi in segs:
        if lo > cover + 1e-12:
            return False
        cover = max(cover, hi)
    return cover >= period - 1e-12


class ThermostatFlight:
    """Closed-form thermostat trajectory in field-aligned coordinates.

    Unit speed; arc length equals elapsed time.  theta is the velocity angle
    measured from the field direction and obeys  dtheta/dt = -a sin(theta).
    """

    def __init__(self, q0, v0, a):
        self.x0, self.y0 = float(q0[0]), float(q0[1])
        self.vx0, self.vy0 = float(v0[0]), float(v0[1])
        self.a = float(a)
        self.theta0 = math.atan2(self.vy0, self.vx0)
        self.straight = self.a == 0.0 or abs(math.sin(self.theta0)) < 1e-12
        self.bend = 0.0 if self.straight else self.a    # bound on the curvature
        if not self.straight:
            self.T0 = math.tan(0.5 * self.theta0)
            self._den0 = 1.0 + self.T0**2

    def theta(self, t):
        t = np.asarray(t, dtype=float)
        if self.straight:
            return np.full_like(t, self.theta0)
        return 2.0 * np.arctan(self.T0 * np.exp(-self.a * t))

    def pos_vel(self, t):
        """Positions and unit velocities at the times t (each t.shape + (2,))."""
        t = np.asarray(t, dtype=float)
        pos = np.empty(t.shape + (2,))
        vel = np.empty(t.shape + (2,))
        if self.straight:
            pos[..., 0], pos[..., 1] = self.x0 + t * self.vx0, self.y0 + t * self.vy0
            vel[...] = (self.vx0, self.vy0)
            return pos, vel
        T = self.T0 * np.exp(-self.a * t)
        TT = T * T
        den = 1.0 + TT
        pos[..., 0] = self.x0 + t + np.log(den / self._den0) / self.a
        pos[..., 1] = self.y0 + (self.theta0 - 2.0 * np.arctan(T)) / self.a
        vel[..., 0] = (1.0 - TT) / den
        vel[..., 1] = 2.0 * T / den
        return pos, vel

    def pos(self, t):
        return self.pos_vel(t)[0]

    def vel(self, t):
        return self.pos_vel(t)[1]

    def pos_vel_scalar(self, t):
        """(x, y, vx, vy) at one time t, as floats: the root refinement's path."""
        if self.straight:
            return self.x0 + t * self.vx0, self.y0 + t * self.vy0, self.vx0, self.vy0
        T = self.T0 * math.exp(-self.a * t)
        den = 1.0 + T * T
        x = self.x0 + t + math.log(den / self._den0) / self.a
        y = self.y0 + (self.theta0 - 2.0 * math.atan(T)) / self.a
        return x, y, (1.0 - T * T) / den, 2.0 * T / den


@dataclass
class CollisionEvent:
    time_of_flight: float
    scatterer: int
    point: np.ndarray           # impact point, same (unwrapped) frame as the flight
    normal: np.ndarray          # outward unit normal of the hit image circle
    v_in: np.ndarray
    v_out: np.ndarray
    cos_incidence: float
    image_shift: np.ndarray
    grazing: bool
    theta_in_aligned: float
    theta_out_aligned: float


@dataclass
class OpenFlight:
    time_of_flight: float
    end_q: np.ndarray
    end_v: np.ndarray
    theta_end_aligned: float    # velocity angle at the cap, before rotating back to world


def free_flight(table, q, v):
    """Advance along the exact thermostat curve to the first scatterer crossing.

    Returns a CollisionEvent (v_out filled with the specular image) or an
    OpenFlight capped at ``FLIGHT_CAP_FACTOR * max(periods)``.  The search
    (``_search``) marches by steps that a distance bound proves free of
    entries, so its cost follows the flight's nearness to the scatterers,
    not its length.
    """
    qx, qy = float(q[0]), float(q[1])
    vx, vy = float(v[0]), float(v[1])
    n = math.hypot(vx, vy)
    vx, vy = vx / n, vy / n
    if not table.outside((qx, qy), tol=1e-12):
        raise InvalidStateError(f"flight starts inside a scatterer at q={np.array([qx, qy])}")
    t_cap = FLIGHT_CAP_FACTOR * max(table._period_xy)
    to_a, back = -table._sin, table._sin
    flight = ThermostatFlight(table._turn(qx, qy, to_a), table._turn(vx, vy, to_a), table.a)
    best = _search(flight, table, t_cap)
    if best is None:
        return _coast(table, flight, t_cap)

    t_star, idx, (cx, cy), shift = best
    x, y, vax, vay = flight.pos_vel_scalar(t_star)
    px, py = table._turn(x, y, back)
    vx, vy = table._turn(vax, vay, back)
    nx, ny = px - cx, py - cy
    n = math.hypot(nx, ny)
    nx, ny = nx / n, ny / n
    vn = vx * nx + vy * ny
    ox, oy = vx - 2.0 * vn * nx, vy - 2.0 * vn * ny
    oax, oay = table._turn(ox, oy, to_a)
    return CollisionEvent(
        time_of_flight=t_star, scatterer=idx, point=np.array([px, py]),
        normal=np.array([nx, ny]), v_in=np.array([vx, vy]), v_out=np.array([ox, oy]),
        cos_incidence=-vn, image_shift=np.array(shift), grazing=abs(vn) < GRAZING_TOL,
        theta_in_aligned=math.atan2(vay, vax), theta_out_aligned=math.atan2(oay, oax),
    )


def _coast(table, flight, t):
    """The OpenFlight of flight run for time t with no reflection."""
    x, y, vx, vy = flight.pos_vel_scalar(t)
    return OpenFlight(t, table.from_aligned((x, y)), table.from_aligned((vx, vy)),
                      math.atan2(vy, vx))


def _search(flight, table, t_cap):
    """Earliest scatterer entry in [0, t_cap] as (t_star, scatterer, world
    image centre, image shift), or None.

    Bound.  Let u = |p - c| for an image c of a centre, g = <p - c, v> = u u',
    and k the flight's curvature bound: |E| on a curved flight, 0 on a
    straight one.  Since |v| = 1 and |v'| <= k,
    u'' = (1 - u'^2 + <p - c, v'>)/u >= -k for every r|E|, so
    u(t + s) >= u + u's - k s^2/2 and the flight cannot enter the disc before
    the first s at which this bound reaches r (``_entry_bound``).

    March.  At time t the bound is taken over the 2x2 block of images whose
    centres surround p.  Every other image is at least min(L) from p, and
    r < min(L)/2 (no disc meets its own image), so none is entered within
    min(L)/2.  When every bound exceeds the cell length h = ``table.cell``,
    the march advances by min(bounds, min(L)/2) - h/2: the margin stops each
    step short of the earliest possible entry, and each step is at least h/2
    long.  Otherwise the cell [t, t + h] is checked by ``_first_crossing``
    for each image whose bound is at most h and whose distance d = u - r
    exceeds BISECT_TOL at t, and the march goes on from t + h.

    Cells.  ``_first_crossing`` brackets an entry by a sign change of d, or
    by the closest approach of a dip (g from - to +); both find the first
    entry when u has no local maximum on the cell before it.  At a zero of g,
    p - c = +-u Jv, so g' = 1 + <p - c, v'> = 1 +- kappa u with |kappa| <= k:
    g can fall through zero (u has a local maximum) only where u >= 1/k.
    * r k < 1: within time h of such a point u >= 1/k - k h^2/2 > r, because
      h <= sqrt(1 - r|E|)/|E| gives 1 - r k > (h k)^2/2.  A cell with a
      local maximum of u holds no entry, and on every other cell u first
      falls and then rises.
    * r k >= 1: no cell length suffices, since where c is the flight's centre
      of curvature a local maximum and minimum of u can lie arbitrarily
      close.  ``_first_crossing`` then halves the cell until each part is
      either excluded by the bound taken from both of its ends, or has g'
      of one sign, so that g crosses zero at most once.  The halving stops at
      parts shorter than BISECT_TOL: u moves less than that on such a part,
      which starts more than BISECT_TOL outside, so it holds no entry.
    """
    h, to_a, back = table.cell, -table._sin, table._sin
    Lx, Ly = table._period_xy
    t, state = 0.0, (flight.x0, flight.y0, flight.vx0, flight.vy0)
    while True:
        px, py = table._turn(state[0], state[1], back)
        near, step = [], 0.5 * min(Lx, Ly)
        for idx, ((cx, cy), r) in enumerate(table._discs):
            mx, my = math.floor((px - cx) / Lx), math.floor((py - cy) / Ly)
            for shift in ((mx * Lx, my * Ly), ((mx + 1) * Lx, my * Ly),
                          (mx * Lx, (my + 1) * Ly), ((mx + 1) * Lx, (my + 1) * Ly)):
                c = cx + shift[0], cy + shift[1]
                d = math.hypot(px - c[0], py - c[1]) - r
                if d > step and d > h:
                    continue        # at unit speed the bound is at least d
                c_a = table._turn(*c, to_a)
                e = _radial(state, c_a, r, flight.bend)
                s = _entry_bound(e[0], e[1], flight.bend)
                if s <= h:
                    near.append((idx, c, c_a, r, shift, e))
                elif s < step:
                    step = s
        t1 = min(t + h if near else t + step - 0.5 * h, t_cap)
        state = flight.pos_vel_scalar(t1)
        hits = [(_first_crossing(flight, c_a, r, t, t1, e, _radial(state, c_a, r, flight.bend)),
                 idx, c, shift) for idx, c, c_a, r, shift, e in near if e[0] > BISECT_TOL]
        hits = [hit for hit in hits if hit[0] is not None]
        if hits or t1 >= t_cap:
            return min(hits, key=lambda hit: hit[0], default=None)
        t = t1


def _radial(state, c, r, k):
    """(d, d', g, g') of the aligned flight state (x, y, vx, vy) about the
    aligned centre c: d = |p - c| - r, g = <p - c, v> and
    g' = 1 + <p - c, v'> with v' = -k sin(theta) (-sin(theta), cos(theta))."""
    x, y, vx, vy = state
    px, py = x - c[0], y - c[1]
    rho = math.hypot(px, py)
    g = px * vx + py * vy
    return rho - r, g / rho, g, 1.0 + k * vy * (px * vy - py * vx)


def _entry_bound(d, du, k):
    """Least s > 0 at which the lower bound u + u's - k s^2/2 on the distance u
    to a centre can reach the radius r, from d = u - r and du = u'; at least d,
    since the flight has unit speed."""
    d = d if d > 0.0 else 0.0
    root = math.sqrt(du * du + 2.0 * k * d)
    if du < 0.0:
        return max(d, 2.0 * d / (root - du))
    return (du + root) / k if k > 0.0 else math.inf


def _first_crossing(flight, c_a, r, t0, t1, e0, e1):
    """First entry into the circle of radius r about c_a (aligned frame)
    within the cell [t0, t1], or None.

    e0 and e1 are ``_radial``'s (d, d', g, g') at the cell ends, with
    d > BISECT_TOL at t0.  A sign change of d, or the closest approach of a
    dip (g from - to +), is refined by ``_rtsafe``.  With r k >= 1 (k the
    flight's curvature bound) the cell is first halved until g' keeps one
    sign on it, as ``_search`` sets out: g' does so when it has one sign at
    both ends and its Lipschitz bound, |g''| = |<p - c, v''>| <= u k^2 with
    u <= (u0 + u1 + t1 - t0)/2, cannot bring it to zero in between.
    """
    k = flight.bend
    (d0, _, g0, dg0), (d1, _, g1, dg1) = e0, e1

    def distance(t):
        return _radial(flight.pos_vel_scalar(t), c_a, r, k)

    def approach(t):
        f, _, g, dg = distance(t)
        return -g, -dg, f

    drift = 0.5 * k * k * (d0 + d1 + 2.0 * r + t1 - t0) * (t1 - t0)   # of g' on the cell
    if r * k >= 1.0 and t1 - t0 >= BISECT_TOL and not (
            dg0 * dg1 > 0.0 and abs(dg0) + abs(dg1) > drift):
        tm = 0.5 * (t0 + t1)
        em = distance(tm)
        for a, b, ea, eb in ((t0, tm, e0, em), (tm, t1, em, e1)):
            # skip a half that starts inside, or that the bounds from both ends cover
            if ea[0] > BISECT_TOL and (eb[0] <= BISECT_TOL or _entry_bound(ea[0], ea[1], k)
                                       + _entry_bound(eb[0], -eb[1], k) <= b - a):
                hit = _first_crossing(flight, c_a, r, a, b, ea, eb)
                if hit is not None:
                    return hit
        return None
    if d1 <= BISECT_TOL:
        return _rtsafe(distance, t0, t1, d0, d1)[0]
    if g0 < 0.0 < g1:
        # dip: the closest approach (g from - to +) decides whether the arc enters
        t_min, (_, _, f_min) = _rtsafe(approach, t0, t1, -g0, -g1)
        if f_min <= -BISECT_TOL:
            return _rtsafe(distance, t0, t_min, d0, f_min)[0]
    return None


def _rtsafe(fdf, xl, xh, fl, fh):
    """Root of a function falling from fl > 0 at xl to fh <= 0 at xh.

    Safeguarded Newton (Numerical Recipes ``rtsafe``): fdf(x) returns the
    value and the derivative first.  The iteration starts at the secant point
    and keeps the bracket; a Newton step that would leave it, or that does not
    at least halve the step before last, becomes a bisection step.  Stops
    once a step is below BISECT_TOL.  Returns the root and fdf's tuple at the
    last point evaluated.
    """
    x = xl + (xh - xl) * fl / (fl - fh)
    if not xl < x < xh:
        x = 0.5 * (xl + xh)
    step = step_old = xh - xl
    for _ in range(100):
        vals = fdf(x)
        f, df = vals[0], vals[1]
        if f == 0.0:
            break
        if f > 0:
            xl = x
        else:
            xh = x
        newton = df != 0.0 and xl < x - f / df < xh and abs(2.0 * f) <= abs(step_old * df)
        step_old = step
        step = f / df if newton else x - 0.5 * (xl + xh)
        x -= step
        if abs(step) < BISECT_TOL:
            break
    return x, vals


def reflect(event):
    """Specular reflection v' = v - 2 <v, N> N; grazing events are rejected."""
    if abs(event.cos_incidence) < GRAZING_TOL:
        raise GrazingCollisionError(
            f"tangential collision at {event.point} (cos={event.cos_incidence:.2e})")
    return event.point.copy(), event.v_out.copy()


@dataclass
class ConvexityReport:
    convex: bool
    margin: float
    strict_boundary: bool  # margin == 0: the sharp case r|E| = 1


def weyl_convexity(table):
    """Weyl convexity margin  min over the boundary of (1/r + <N, E>) = 1/r - |E|.

    Positive margin (r|E| < 1) keeps every scatterer image strictly convex.
    """
    margin = min((1.0 / s.radius - table.a for s in table.scatterers), default=float("inf"))
    return ConvexityReport(convex=margin > 0, margin=margin, strict_boundary=margin == 0.0)


def exp_map_check(samples_aligned, field_magnitude):
    """Map flight samples through F(z) = e^{|E| z} and measure collinearity.

    Returns the max perpendicular deviation of interior image points from the
    line through the first and last image.
    """
    if field_magnitude == 0.0:
        raise ZeroFieldError("exponential straightening needs a nonzero field")
    samples = np.asarray(samples_aligned, dtype=float)
    if samples.ndim != 2 or len(samples) < 3:
        raise InvalidStateError("need at least 3 flight samples")
    z = samples[:, 0] + 1j * samples[:, 1]
    w = np.exp(field_magnitude * z)
    chord = w[-1] - w[0]
    chord = chord / abs(chord)
    dev = np.imag(np.conj(chord) * (w - w[0]))
    return float(np.abs(dev[1:-1]).max())


# -- tangent propagation -------------------------------------------------------

def _flight_entries(a, theta0, theta1, tof):
    """(F00, F01) of the flight map F = [[F00, F01], [0, 1]] from theta0 to theta1.

    F00 = sin(theta1)/sin(theta0) = e^{-int phi}; along +-E it is the decay
    e^{-+a tof}, and with a = 0 the map is the free shear [[1, tof], [0, 1]].
    """
    if a == 0.0:
        return 1.0, tof
    s0, s1 = math.sin(theta0), math.sin(theta1)
    if abs(s0) < 1e-12:  # straight flight along +-E
        sign = 1.0 if abs(theta0) < np.pi / 2 else -1.0
        decay = math.exp(-sign * a * tof)
        return decay, (1.0 - decay) / (sign * a)
    return s1 / s0, (1.0 / a) * (math.cos(theta1) - s1 * math.cos(theta0) / s0)


def flight_tangent_matrix(a, theta0, theta1, tof):
    """Quotient tangent map of a flight in the (xi, chi) frame coordinates.

    From the linearized system  xi' = -a cos(theta) xi + chi, chi' = 0
    (zero Weyl curvature on the flat 2-torus with constant field).
    """
    f, shear = _flight_entries(a, theta0, theta1, tof)
    return np.array([[f, shear], [0.0, 1.0]])


def _reflection_kick(table, r, normal, cos_incidence=1.0):
    """Kick 2 (1/r + <N, E>) / cos(theta) of a reflection off a circle of radius r;
    cos 1 is normal incidence."""
    return 2.0 * (1.0 / r + float(table.field @ normal)) / cos_incidence


def _reflection_matrix(table, r, normal, cos_incidence=1.0):
    """-[[1, 0], [kick, 1]], the tangent map in the (xi, chi) frame across a
    reflection off a circle of radius r: to first order, the event-synchronized
    reflection is xi+ = -xi-, chi+ = -(chi- + kick xi-)."""
    kick = _reflection_kick(table, r, normal, cos_incidence)
    return -np.array([[1.0, 0.0], [kick, 1.0]])


@dataclass
class BilliardRun:
    events: list
    total_time: float
    grazing_count: int
    open_count: int
    lambda1: float
    exponents: np.ndarray
    collision_times: np.ndarray
    sbar: float             # time average of -phi(v) = -<E, q_end - q0> / total_time
    pair_residual: float    # |lambda1 + lambda2 - sbar|


def _aligned_angle(table, v):
    """Angle of the world vector v from the field direction."""
    vx, vy = table._turn(float(v[0]), float(v[1]), -table._sin)
    return math.atan2(vy, vx)


def _tangent_step(tangent, f, shear, kick):
    """One flight, or flight and reflection, of the quotient tangent map.

    tangent = (u0, u1, l0, l1): u is the first column of Q in the running
    factorisation M = Q R' (Q orthogonal, diag(R') > 0) and l0, l1 are the
    log-sums of diag(R').  The step applies A = R F with F = [[f, shear],
    [0, 1]] and R = [[1, 0], [kick, 1]] (kick 0 for a flight alone; the
    reflection map is -R, whose sign flips Q only).  Closed-form Gram-Schmidt
    of A Q: r11 = |A u| and the new u is A u / r11; Q's second column is u
    turned by a quarter turn and is never needed, since r22 = |det(A Q)| / r11
    and |det(A Q)| = |f| (det R = 1).  Taking |f| in place of a0 c1 - a1 c0
    keeps r22's digits on strongly contracting flights.
    """
    u0, u1, l0, l1 = tangent
    a0 = f * u0 + shear * u1
    c0 = kick * a0 + u1
    r11 = math.hypot(a0, c0)
    log_r11 = math.log(r11)
    return a0 / r11, c0 / r11, l0 + log_r11, l1 + math.log(abs(f)) - log_r11


def run_billiard(table, q0, v0, n_collisions):
    """Iterate free flight + specular reflection for n_collisions events.

    The 2x2 quotient tangent map is carried as four floats
    (``_tangent_step``): a unit vector and two log-sums, renormalised by a
    closed-form Gram-Schmidt after every flight and every collision.  The
    exponents are the log-sums per unit time.  The flight map needs the
    aligned velocity angle at each end of each flight: the end angle comes
    with the event, and the start angle is carried over from the previous
    event (``theta_out_aligned`` after a reflection).

    Before every flight q is wrapped into the fundamental cell and the
    lattice shift it took off is added to two integers, so q never grows
    past the digits the flight's start check needs, however far the field
    drives the particle.

    Pair identity: det F = sin(theta1)/sin(theta0) = e^{-int phi} and
    det R = 1, so lambda1 + lambda2 equals ``sbar``, the time average of
    -phi(v).  The flights' int phi telescope along the unwrapped path to
    <E, q_end + shift * periods - q0>, so ``sbar`` costs one dot product;
    ``pair_residual`` is the gap between the two.

    Grazing collisions are skipped (counted) by restarting the flight
    GRAZE_SKIP past the impact: the clock and the tangent map take the
    flight up to the restart, the same no-reflection path as a capped
    flight, and only the reflection is dropped.
    """
    q = np.asarray(q0, dtype=float)
    v = np.asarray(v0, dtype=float)
    v = v / np.linalg.norm(v)
    start = q
    shift = np.zeros(2, dtype=np.int64)          # lattice cells left behind by the wraps
    events = []
    t_total = 0.0
    grazing = 0
    open_count = 0
    consecutive_caps = 0
    tangent = (1.0, 0.0, 0.0, 0.0)
    th0 = _aligned_angle(table, v)              # aligned angle at the flight's start
    times = []

    while len(events) < n_collisions:
        cells, q = np.divmod(q, table.periods)
        shift += cells.astype(np.int64)
        ev = free_flight(table, q, v)
        if isinstance(ev, OpenFlight):
            open_count += 1
            consecutive_caps += 1
            if consecutive_caps > MAX_CONSECUTIVE_CAPS:
                raise InvalidStateError("infinite-horizon abort: too many capped flights")
        else:
            consecutive_caps = 0
            if ev.grazing:
                grazing += 1
                # restart just past the tangency, keeping the incoming direction
                fl = ThermostatFlight(table.to_aligned(q), table.to_aligned(v), table.a)
                ev = _coast(table, fl, ev.time_of_flight + GRAZE_SKIP)
        t_total += ev.time_of_flight
        if isinstance(ev, OpenFlight):      # capped or restarted: no reflection
            f, shear = _flight_entries(table.a, th0, ev.theta_end_aligned, ev.time_of_flight)
            tangent = _tangent_step(tangent, f, shear, 0.0)
            q, v = ev.end_q, ev.end_v
            th0 = _aligned_angle(table, v)
            continue
        f, shear = _flight_entries(table.a, th0, ev.theta_in_aligned, ev.time_of_flight)
        kick = _reflection_kick(table, table.scatterers[ev.scatterer].radius,
                                ev.normal, ev.cos_incidence)
        tangent = _tangent_step(tangent, f, shear, kick)
        q, v = reflect(ev)
        th0 = ev.theta_out_aligned
        events.append(ev)
        times.append(t_total)

    sbar = -float(table.field @ (q + shift * table.periods - start)) / t_total
    exps = np.sort([tangent[2] / t_total, tangent[3] / t_total])[::-1]
    return BilliardRun(events=events, total_time=t_total, grazing_count=grazing,
                       open_count=open_count, lambda1=float(exps[0]), exponents=exps,
                       collision_times=np.array(times),
                       sbar=sbar, pair_residual=abs(float(exps.sum()) - sbar))


# -- periodic orbits -----------------------------------------------------------

@dataclass
class OrbitStability:
    monodromy: np.ndarray
    trace: float
    eigenvalues: np.ndarray
    classification: str      # 'hyperbolic' | 'elliptic' | 'parabolic'
    period: float
    re_product: float        # r |E| of the smaller scatterer involved


def _classify(trace):
    if abs(trace) < 2.0 - PARABOLIC_TOL:
        return "elliptic"
    if abs(trace) > 2.0 + PARABOLIC_TOL:
        return "hyperbolic"
    return "parabolic"


def _period_two_stability(table, s1, s2, F12, F21, N1, N2, period):
    """The OrbitStability of the period-2 orbit whose flights F12 (s1 to s2) and
    F21 (back) reflect off s2 along the normal N2 and off s1 along N1."""
    R1 = _reflection_matrix(table, s1.radius, N1)
    R2 = _reflection_matrix(table, s2.radius, N2)
    M = R1 @ F21 @ R2 @ F12
    tr = float(np.trace(M))
    return OrbitStability(
        monodromy=M, trace=tr, eigenvalues=np.linalg.eigvals(M),
        classification=_classify(tr), period=period,
        re_product=min(s1.radius, s2.radius) * table.a,
    )


def bouncing_axis(table):
    """(s1, s2, dhat, Ehat, L) of the axis between the first two scatterers: its unit
    vector, E's direction and the gap L.  Raises unless the axis is parallel to E
    (or E = 0), L > 0 and no other scatterer blocks it."""
    if len(table.scatterers) < 2:
        raise UnsupportedConfigurationError("need two scatterers")
    s1, s2 = table.scatterers[0], table.scatterers[1]
    delta = s2.center - s1.center
    dist = np.linalg.norm(delta)
    dhat = delta / dist
    Ehat = np.array([np.cos(table.field_angle), np.sin(table.field_angle)])
    cross = abs(dhat[0] * Ehat[1] - dhat[1] * Ehat[0])
    if table.a > 0 and cross > 1e-9:
        raise UnsupportedConfigurationError("scatterer axis not parallel to E")
    L = dist - s1.radius - s2.radius
    if L <= 0:
        raise NoOrbitError("scatterers too close for a bouncing orbit")
    p1 = s1.center + s1.radius * dhat
    for k, s in enumerate(table.scatterers[2:], start=2):
        t = np.clip((s.center - p1) @ dhat, 0.0, L)
        if np.linalg.norm(p1 + t * dhat - s.center) < s.radius + 1e-12:
            raise NoOrbitError(f"axis segment blocked by scatterer {k}")
    return s1, s2, dhat, Ehat, L


def periodic_orbit_stability(table):
    """Monodromy of the period-2 bouncing orbit between two scatterers whose
    axis is parallel to E (on-axis flights are the invariant straight lines)."""
    s1, s2, dhat, Ehat, L = bouncing_axis(table)
    sign = 1.0 if dhat @ Ehat >= 0 else -1.0
    th_fwd = 0.0 if sign > 0 else np.pi
    th_bwd = np.pi if sign > 0 else 0.0
    F_fwd = flight_tangent_matrix(table.a, th_fwd, th_fwd, L)
    F_bwd = flight_tangent_matrix(table.a, th_bwd, th_bwd, L)
    return _period_two_stability(table, s1, s2, F_fwd, F_bwd, dhat, -dhat, 2.0 * L)


@dataclass
class PeriodTwoOrbit:
    stability: OrbitStability
    image_trace: float        # classical trace in the straightened picture
    normal_residual: float


def _image_data(table, center_w, radius, psi):
    """Aligned-frame boundary point, outward normal angle and exp-image data."""
    c_a = table.to_aligned(center_w)
    z = c_a + radius * np.array([np.cos(psi), np.sin(psi)])
    a = table.a
    w = np.exp(a * (z[0] + 1j * z[1]))
    n_im_angle = psi + a * z[1]
    kappa_im = (1.0 / radius + a * np.cos(psi)) / (a * np.exp(a * z[0]))
    return z, w, n_im_angle, kappa_im


def find_period_two_orbit(table, pair, seed_psis):
    """Locate a period-2 orbit hitting both circles normally.

    Solved in the exponential-straightened picture: the image chord must be
    parallel to both image normals.  Validated by shooting the actual flight;
    stability is the composed thermostat monodromy, cross-checked against the
    classical two-mirror trace computed from image curvatures.  Loads
    ``scipy.optimize`` on its first call; nothing else in the module needs it.
    """
    from scipy.optimize import root
    if table.a <= 0:
        raise ZeroFieldError("period-2 search in the image picture needs a > 0")
    i, j = pair
    s1, s2 = table.scatterers[i], table.scatterers[j]

    def eqs(x):
        psi1, psi2 = x
        _, w1, n1, _ = _image_data(table, s1.center, s1.radius, psi1)
        _, w2, n2, _ = _image_data(table, s2.center, s2.radius, psi2)
        ch = w2 - w1
        return [np.imag(np.conj(ch) * np.exp(1j * n1)),
                np.imag(np.conj(ch) * np.exp(1j * n2))]

    sol = root(eqs, list(seed_psis), tol=1e-13)
    if not sol.success:
        raise NoOrbitError("period-2 root solve failed")
    psi1, psi2 = sol.x
    z1, w1, n1, kim1 = _image_data(table, s1.center, s1.radius, psi1)
    z2, w2, n2, kim2 = _image_data(table, s2.center, s2.radius, psi2)
    ch = w2 - w1
    # orientation: leave circle 1 along its outward normal, arrive against 2's
    if np.real(np.conj(ch) * np.exp(1j * n1)) < 0:
        raise NoOrbitError("chord leaves circle 1 inward")
    if np.real(np.conj(ch) * np.exp(1j * n2)) > 0:
        raise NoOrbitError("chord arrives along circle 2's outward normal")

    p1_w = table.from_aligned(z1)
    N1_w = table.from_aligned(np.array([np.cos(psi1), np.sin(psi1)]))
    ev = free_flight(table, p1_w + 1e-12 * N1_w, N1_w)
    if isinstance(ev, OpenFlight):
        raise NoOrbitError("flight from circle 1 does not return to a scatterer")
    p2_expected = table.from_aligned(z2)
    miss = np.linalg.norm(ev.point - p2_expected)
    if ev.scatterer != j or miss > 1e-6:
        raise NoOrbitError(f"flight misses the partner impact point by {miss:.2e}")
    normal_residual = abs(abs(ev.cos_incidence) - 1.0)
    if normal_residual > 1e-6:
        raise NoOrbitError(f"incidence not normal (residual {normal_residual:.2e})")

    th_out1 = psi1                      # departure velocity = N1 in aligned frame
    th_in2 = ev.theta_in_aligned
    tof = ev.time_of_flight
    F12 = flight_tangent_matrix(table.a, th_out1, th_in2, tof)
    th_out2 = np.arctan2(-np.sin(th_in2), -np.cos(th_in2))
    th_in1 = np.arctan2(-np.sin(th_out1), -np.cos(th_out1))
    F21 = flight_tangent_matrix(table.a, th_out2, th_in1, tof)
    N2_w = table.from_aligned(np.array([np.cos(psi2), np.sin(psi2)]))
    stab = _period_two_stability(table, s1, s2, F12, F21, N1_w, N2_w, 2.0 * tof)

    D = abs(ch)
    pt, qt = 2.0 * kim2, 2.0 * kim1
    tr_image = 2.0 + 2.0 * pt * D + 2.0 * qt * D + pt * qt * D * D
    return PeriodTwoOrbit(stability=stab, image_trace=tr_image,
                          normal_residual=normal_residual)


def find_first_elliptic(radius, re_values):
    """Scan r|E| values for an elliptic period-2 orbit between a scatterer and
    its perpendicular translate (separation perpendicular to E, spacing chosen
    so the concave image arcs face each other)."""
    records = []
    for re in re_values:
        if re <= 1.0:
            continue
        a = re / radius
        found = None
        for phase in ELLIPTIC_PHASES:
            d = phase / a
            if d < 2 * radius + 0.05:
                continue
            periods = (max(1.0, 4 * radius), max(1.0, d + 2 * radius + 0.5))
            table = BilliardTable(periods, [((0.3, 0.3), radius),
                                            ((0.3, 0.3 + d), radius)],
                                  field_magnitude=a)
            psis = np.linspace(0, 2 * np.pi, ELLIPTIC_SEEDS, endpoint=False)
            for ps1 in psis:
                for ps2 in psis:
                    try:
                        orb = find_period_two_orbit(table, (0, 1), (ps1, ps2))
                    except (NoOrbitError, GrazingCollisionError, InvalidStateError):
                        continue
                    if orb.stability.classification == "elliptic":
                        found = (d, orb, table)
                        break
                if found:
                    break
            if found:
                break
        records.append((float(re), found))
        if found:
            return float(re), found[0], found[1], found[2], records
    return None, None, None, None, records
