"""Thermostatted Lorentz gas on the flat 2-torus with circular scatterers.

Free flight follows the exact thermostat curves (in field-aligned
coordinates the translates of  a x = -ln cos(a y), or the two straight lines
along +-E).  Collisions are located by sign-bracketing the distance to every
candidate circle image at once on arc subdivisions, then refined to 1e-12 in
time by a safeguarded Newton method (``_rtsafe``) with analytic derivatives.
The quotient tangent dynamics is propagated in closed form across flights
(curvature vanishes on the 2-torus with constant field) and a curvature kick
at each specular reflection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import root

from .errors import (
    GrazingCollisionError,
    InvalidStateError,
    NoOrbitError,
    UnsupportedConfigurationError,
    ZeroFieldError,
)

GRAZING_TOL = 1e-10
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
        if not self.scatterers:
            raise InvalidStateError("a table needs at least one scatterer")
        for s in self.scatterers:
            if s.center.shape != (2,):
                raise InvalidStateError(f"scatterer centre must have 2 entries, got {s.center}")
            if not 0.0 < s.radius < np.inf:
                raise InvalidStateError(f"scatterer radius must be positive, got {s.radius}")
        self._check_disjoint()
        ca, sa = np.cos(self.field_angle), np.sin(self.field_angle)
        self._rot = np.array([[ca, sa], [-sa, ca]])      # world -> aligned
        self._centers = np.array([s.center for s in self.scatterers])
        self._radii = np.array([s.radius for s in self.scatterers])
        shifts = np.array([(mx, my) for mx in (-1, 0, 1) for my in (-1, 0, 1)]) * self.periods
        self._image_centers = (self._centers[:, None, :] + shifts).reshape(-1, 2)
        self._image_radii = np.repeat(self._radii, len(shifts))
        # search cell width: h <= r_min/4 and h <= 1/(4|E|) (see _search_window)
        self.cell = self._radii.min() / 4.0
        if self.a > 0:
            self.cell = min(self.cell, 0.25 / self.a)
        self.horizon_finite = self._compute_horizon()

    @property
    def field(self):
        return self.a * np.array([np.cos(self.field_angle), np.sin(self.field_angle)])

    def to_aligned(self, x):
        return self._rot @ x

    def from_aligned(self, x):
        return self._rot.T @ x

    def wrap(self, q):
        return np.mod(q, self.periods)

    def _check_disjoint(self):
        items = self.scatterers
        for i, s in enumerate(items):
            for j, t in enumerate(items):
                shifts = [np.array([mx * self.periods[0], my * self.periods[1]])
                          for mx in (-1, 0, 1) for my in (-1, 0, 1)]
                for sh in shifts:
                    if i == j and not sh.any():
                        continue
                    gap = np.linalg.norm(t.center + sh - s.center) - s.radius - t.radius
                    if gap < 1e-9:
                        raise InvalidStateError(
                            f"scatterers {i} and {j} (shift {sh}) overlap or touch")

    def _compute_horizon(self):
        """True when every primitive lattice corridor with |p|, |q| <= HORIZON_MAX_INDEX
        is blocked."""
        Lx, Ly = self.periods
        dirs = []
        for p in range(-HORIZON_MAX_INDEX, HORIZON_MAX_INDEX + 1):
            for q_ in range(0, HORIZON_MAX_INDEX + 1):
                if p == 0 and q_ == 0:
                    continue
                if q_ == 0 and p != 1:
                    continue
                if q_ > 0 and np.gcd(abs(p), q_) != 1:
                    continue
                dirs.append((p, q_))
        for p, q_ in dirs:
            w = np.array([p * Lx, q_ * Ly])
            spacing = Lx * Ly / np.linalg.norm(w)
            nhat = np.array([-w[1], w[0]]) / np.linalg.norm(w)
            intervals = []
            for s in self.scatterers:
                tau = float(s.center @ nhat) % spacing
                intervals.append((tau - s.radius, tau + s.radius))
            if not _intervals_cover_circle(intervals, spacing):
                return False
        return True

    def outside(self, q, tol=0.0):
        off = self.wrap(q) - self._image_centers
        return not (np.hypot(off[:, 0], off[:, 1]) < self._image_radii - tol).any()


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
        self.q0 = np.asarray(q0, dtype=float)
        self.a = float(a)
        self.theta0 = float(np.arctan2(v0[1], v0[0]))
        self.straight = self.a == 0.0 or abs(np.sin(self.theta0)) < 1e-12
        self.v0 = np.asarray(v0, dtype=float)
        if not self.straight:
            self.T0 = float(np.tan(0.5 * self.theta0))

    def tanhalf(self, t):
        return self.T0 * np.exp(-self.a * np.asarray(t, dtype=float))

    def theta(self, t):
        if self.straight:
            return np.full_like(np.asarray(t, dtype=float), self.theta0)
        return 2.0 * np.arctan(self.tanhalf(t))

    def pos_vel(self, t):
        """Positions and unit velocities at the times t (each t.shape + (2,))."""
        t = np.asarray(t, dtype=float)
        if self.straight:
            return (self.q0 + t[..., None] * self.v0,
                    np.broadcast_to(self.v0, t.shape + (2,)).copy())
        T = self.tanhalf(t)
        den = 1.0 + T * T
        x = self.q0[0] + t + np.log(den / (1.0 + self.T0**2)) / self.a
        y = self.q0[1] + (self.theta0 - 2.0 * np.arctan(T)) / self.a
        return (np.stack([x, y], axis=-1),
                np.stack([(1.0 - T * T) / den, 2.0 * T / den], axis=-1))

    def pos(self, t):
        return self.pos_vel(t)[0]

    def vel(self, t):
        return self.pos_vel(t)[1]

    def pos_vel_scalar(self, t):
        """Scalar fast path for root refinement."""
        if self.straight:
            return (self.q0[0] + t * self.v0[0], self.q0[1] + t * self.v0[1],
                    self.v0[0], self.v0[1])
        T = self.T0 * math.exp(-self.a * t)
        den = 1.0 + T * T
        th = 2.0 * math.atan(T)
        x = self.q0[0] + t + math.log(den / (1.0 + self.T0**2)) / self.a
        y = self.q0[1] + (self.theta0 - th) / self.a
        return x, y, (1.0 - T * T) / den, 2.0 * T / den

    def int_phi(self, t):
        """Line integral of phi along the flight: a * (x(t) - x(0))."""
        if self.a == 0.0:
            return 0.0 * np.asarray(t, dtype=float)
        return self.a * (self.pos(t)[..., 0] - self.q0[0])


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


def free_flight(table, q, v):
    """Advance along the exact thermostat curve to the first scatterer crossing.

    Returns a CollisionEvent (v_out filled with the specular image) or an
    OpenFlight capped at ``FLIGHT_CAP_FACTOR * max(periods)``.  The search
    runs in stages of increasing span so short flights stay cheap.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    if not table.outside(q, tol=1e-12):
        raise InvalidStateError(f"flight starts inside a scatterer at q={q}")
    t_cap = FLIGHT_CAP_FACTOR * float(table.periods.max())

    qa = table.to_aligned(q)
    va = table.to_aligned(v)
    flight = ThermostatFlight(qa, va, table.a)

    span = float(table.periods.max())
    t_lo = 0.0
    best = None
    for t_hi in _stages(span, t_cap):
        best = _search_window(flight, table, t_lo, t_hi)
        if best is not None:
            break
        t_lo = t_hi
    if best is None:
        end_a, end_va = flight.pos_vel(t_cap)
        return OpenFlight(t_cap, table.from_aligned(end_a), table.from_aligned(end_va))

    t_star, idx, c, shift = best
    x, y, vx, vy = flight.pos_vel_scalar(t_star)
    p = table.from_aligned(np.array([x, y]))
    v_in = table.from_aligned(np.array([vx, vy]))
    N = (p - c) / np.linalg.norm(p - c)
    cos_in = float(-(v_in @ N))
    grazing = abs(cos_in) < GRAZING_TOL
    v_out = v_in - 2.0 * (v_in @ N) * N
    va_out = table.to_aligned(v_out)
    return CollisionEvent(
        time_of_flight=float(t_star), scatterer=idx, point=p, normal=N,
        v_in=v_in, v_out=v_out, cos_incidence=cos_in, image_shift=shift, grazing=grazing,
        theta_in_aligned=math.atan2(vy, vx),
        theta_out_aligned=math.atan2(va_out[1], va_out[0]),
    )


def _stages(span, t_cap):
    out = []
    t = min(1.5 * span, t_cap)
    while True:
        out.append(t)
        if t >= t_cap:
            return out
        t = min(4.0 * t, t_cap)


def _search_window(flight, table, t_lo, t_hi):
    """Earliest crossing in [t_lo, t_hi] over all candidate circle images.

    Every image of every scatterer within a padded bounding box of the arc is
    tested in one array pass: a ``(m_images, n_grid)`` table of signed
    distances d = |p - c| - r at the grid points.  Rows that come no closer
    than one cell are ruled out; the rest go to ``_first_crossing``.

    Completeness.  The grid cell is at most h = ``table.cell`` with
    h <= r_min/4 and h <= 1/(4|E|).

    * The flight has unit speed, so every point of the arc lies within half
      a cell of a grid point.  An image whose grid distances all exceed one
      cell is therefore more than half a cell away from the whole arc and
      cannot be hit.
    * Let u = |p - c| and g = <p - c, v> = u u'.  Since |v| = 1 and
      |v'| = |E sin(theta)| <= |E|, u'' = (1 - g^2/u^2 + <p - c, v'>)/u
      >= -|E|.  Where g falls through zero (the arc turns back towards c),
      g' = 1 + <p - c, v'> <= 0 forces u >= 1/|E|, and within time h of that
      point u >= 1/|E| - |E| h^2/2 > r whenever 1 - r|E| > (h|E|)^2/2.  The
      cell width guarantees this for every r|E| < 0.97 (h|E| <= r|E|/4 and
      <= 1/4).  Then on every cell that meets the disc g changes sign at
      most once, from - to +, so |p - c| first falls and then rises: an
      entry shows either as a sign change of d between two grid points or,
      when the arc enters and leaves inside one cell, as a dip (both ends
      outside, g < 0 at the start and > 0 at the end) whose closest
      approach lies inside the circle, and each bracket holds one root.
    """
    h = table.cell
    n_seg = max(2, int(np.ceil((t_hi - t_lo) / h)))
    cell = (t_hi - t_lo) / n_seg
    t_grid = t_lo + cell * np.arange(n_seg + 1)
    pos_a, vel_a = flight.pos_vel(t_grid)
    pos_w = pos_a @ table._rot
    vel_w = vel_a @ table._rot
    # image boxes [floor((lo - c - pad)/L), ceil((hi - c + pad)/L)] per scatterer
    L0, L1 = table.periods.tolist()
    lo0, lo1 = pos_w.min(axis=0).tolist()
    hi0, hi1 = pos_w.max(axis=0).tolist()
    images = []
    for i, ((cx, cy), r) in enumerate(zip(table._centers.tolist(), table._radii.tolist())):
        pad = r + 2 * h
        ys = range(math.floor((lo1 - cy - pad) / L1), math.ceil((hi1 - cy + pad) / L1) + 1)
        for mx in range(math.floor((lo0 - cx - pad) / L0), math.ceil((hi0 - cx + pad) / L0) + 1):
            for my in ys:
                images += (i, mx, my)
    images = np.array(images).reshape(-1, 3)
    owner = images[:, 0]
    shifts = images[:, 1:] * table.periods
    centers = table._centers[owner] + shifts
    radii = table._radii[owner]
    dx = pos_w[:, 0] - centers[:, :1]
    dy = pos_w[:, 1] - centers[:, 1:]
    reach = radii + (cell + 1e-9)      # the early exit d > cell, on |p - c|^2
    near = np.nonzero((dx * dx + dy * dy).min(axis=1) <= reach * reach)[0]
    if not len(near):
        return None

    # candidate cells of the rows left: outside at the start and either inside
    # at the end (a sign change of d) or a dip (outside at both ends, radial
    # velocity g = <p - c, v> going from - to +)
    dx, dy = dx[near], dy[near]
    d = np.hypot(dx, dy) - radii[near, None]
    g = dx * vel_w[:, 0] + dy * vel_w[:, 1]
    outside = d > BISECT_TOL
    dip = (g[:, :-1] < 0.0) & (g[:, 1:] > 0.0)
    rows, cells = np.nonzero(outside[:, :-1] & (dip | ~outside[:, 1:]))
    centers_a = centers[near] @ table._rot.T

    best = None
    settled = -1        # a row is settled by its first hit or by passing best
    for k, j in zip(rows.tolist(), cells.tolist()):
        if k == settled:
            continue
        if best is not None and t_grid[j] > best[0]:
            settled = k
            continue
        t_star = _first_crossing(flight, centers_a[k].tolist(), radii.item(near[k]),
                                 t_grid.item(j), t_grid.item(j + 1), d.item(k, j),
                                 d.item(k, j + 1), g.item(k, j), g.item(k, j + 1))
        if t_star is None:
            continue
        settled = k
        if best is None or t_star < best[0]:
            m = near[k]
            best = (t_star, int(owner[m]), centers[m], shifts[m])
    return best


def _first_crossing(flight, c_a, r, t0, t1, d0, d1, g0, g1):
    """First entry into the circle of radius r about c_a (aligned frame)
    within the candidate cell [t0, t1], or None when a dip stays outside.

    d0, d1 and g0, g1 are the signed distance and the radial velocity
    <p - c, v> at the cell ends.
    """
    bend = 0.0 if flight.straight else flight.a
    cx, cy = c_a

    def distance(t):
        # f = |p - c| - r, f' = g/|p - c|; also g = <p - c, v> and
        # g' = 1 + <p - c, v'> with v' = -a sin(theta) (-sin(theta), cos(theta))
        x, y, vx, vy = flight.pos_vel_scalar(t)
        px, py = x - cx, y - cy
        rho = math.hypot(px, py)
        g = px * vx + py * vy
        return rho - r, g / rho, g, 1.0 + bend * vy * (px * vy - py * vx)

    def approach(t):
        f, _, g, dg = distance(t)
        return -g, -dg, f

    if d1 <= BISECT_TOL:
        return _rtsafe(distance, t0, t1, d0, d1)[0]
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

def flight_tangent_matrix(a, theta0, theta1, tof):
    """Quotient tangent map of a flight in the (xi, chi) frame coordinates.

    From the linearized system  xi' = -a cos(theta) xi + chi, chi' = 0
    (zero Weyl curvature on the flat 2-torus with constant field).
    """
    if a == 0.0:
        return np.array([[1.0, tof], [0.0, 1.0]])
    s0, s1 = np.sin(theta0), np.sin(theta1)
    if abs(s0) < 1e-12:  # straight flight along +-E
        sign = 1.0 if abs(theta0) < np.pi / 2 else -1.0
        decay = np.exp(-sign * a * tof)
        return np.array([[decay, (1.0 - decay) / (sign * a)], [0.0, 1.0]])
    shear = (1.0 / a) * (np.cos(theta1) - s1 * np.cos(theta0) / s0)
    return np.array([[s1 / s0, shear], [0.0, 1.0]])


def reflection_tangent_matrix(table, event):
    """Tangent map across a specular reflection in the (xi, chi) frame.

    First-order analysis of the event-synchronized reflection (perturbed
    impact time, perturbed normal, thermostat force on both sides) collapses
    to a single kick by the projected Weyl shape operator:

        chi+ = -(chi- + 2 (kappa + <N, E>) / cos(theta) * xi-),  xi+ = -xi-.
    """
    if abs(event.cos_incidence) < GRAZING_TOL:
        raise GrazingCollisionError("tangent map undefined at grazing incidence")
    return _reflection_matrix(table, table.scatterers[event.scatterer].radius,
                              event.normal, event.cos_incidence)


def _reflection_matrix(table, r, normal, cos_incidence=1.0):
    """The kick of reflection_tangent_matrix off a circle of radius r; cos 1 is normal incidence."""
    kick = 2.0 * (1.0 / r + float(table.field @ normal)) / cos_incidence
    return -np.array([[1.0, 0.0], [kick, 1.0]])


@dataclass
class BilliardRun:
    events: list
    total_time: float
    grazing_count: int
    open_count: int
    lambda1: float = None
    exponents: np.ndarray = None
    collision_times: np.ndarray = None


def run_billiard(table, q0, v0, n_collisions, with_tangent=False):
    """Iterate free flight + specular reflection for n_collisions events.

    With tangent propagation, the 2x2 quotient map is accumulated per
    collision with QR renormalization and the top exponent is reported per
    unit time.  Grazing collisions are skipped (counted) by restarting the
    flight just past the impact.
    """
    q = np.asarray(q0, dtype=float)
    v = np.asarray(v0, dtype=float)
    v = v / np.linalg.norm(v)
    events = []
    t_total = 0.0
    grazing = 0
    open_count = 0
    consecutive_caps = 0
    M = np.eye(2)
    lsum = np.zeros(2)
    times = []

    while len(events) < n_collisions:
        ev = free_flight(table, q, v)
        if isinstance(ev, OpenFlight):
            open_count += 1
            consecutive_caps += 1
            if consecutive_caps > MAX_CONSECUTIVE_CAPS:
                raise InvalidStateError("infinite-horizon abort: too many capped flights")
            if with_tangent:
                fm = flight_tangent_matrix(
                    table.a,
                    float(np.arctan2(table.to_aligned(v)[1], table.to_aligned(v)[0])),
                    float(np.arctan2(table.to_aligned(ev.end_v)[1],
                                     table.to_aligned(ev.end_v)[0])),
                    ev.time_of_flight)
                M = fm @ M
            q, v = ev.end_q, ev.end_v
            t_total += ev.time_of_flight
            continue
        consecutive_caps = 0
        t_total += ev.time_of_flight
        if ev.grazing:
            grazing += 1
            # restart just past the tangency, keeping the incoming direction
            fl = ThermostatFlight(table.to_aligned(q), table.to_aligned(v), table.a)
            qa, va = fl.pos_vel(ev.time_of_flight + 1e-9)
            q, v = table.from_aligned(qa), table.from_aligned(va)
            continue
        if with_tangent:
            th0 = float(np.arctan2(table.to_aligned(v)[1], table.to_aligned(v)[0]))
            fm = flight_tangent_matrix(table.a, th0, ev.theta_in_aligned,
                                       ev.time_of_flight)
            rm = reflection_tangent_matrix(table, ev)
            M = rm @ fm @ M
            Q, R = np.linalg.qr(M)
            lsum += np.log(np.abs(np.diag(R)))
            M = Q * np.where(np.diag(R) >= 0, 1.0, -1.0)
        q, v = reflect(ev)
        events.append(ev)
        times.append(t_total)

    exps = np.sort(lsum / t_total)[::-1] if with_tangent else None
    return BilliardRun(events=events, total_time=t_total, grazing_count=grazing,
                       open_count=open_count,
                       lambda1=float(exps[0]) if with_tangent else None,
                       exponents=exps,
                       collision_times=np.array(times))


# -- periodic orbits -----------------------------------------------------------

@dataclass
class OrbitStability:
    monodromy: np.ndarray
    trace: float
    eigenvalues: np.ndarray
    classification: str      # 'hyperbolic' | 'elliptic' | 'parabolic'
    period: float
    points: list
    normals: list
    re_product: float        # r |E| of the smaller scatterer involved


def _classify(trace):
    if abs(trace) < 2.0 - PARABOLIC_TOL:
        return "elliptic"
    if abs(trace) > 2.0 + PARABOLIC_TOL:
        return "hyperbolic"
    return "parabolic"


def periodic_orbit_stability(table):
    """Monodromy of the period-2 bouncing orbit between two scatterers whose
    axis is parallel to E (on-axis flights are the invariant straight lines)."""
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
    p2 = s2.center - s2.radius * dhat
    for k, s in enumerate(table.scatterers[2:], start=2):
        t = np.clip((s.center - p1) @ dhat, 0.0, L)
        if np.linalg.norm(p1 + t * dhat - s.center) < s.radius + 1e-12:
            raise NoOrbitError(f"axis segment blocked by scatterer {k}")

    sign = 1.0 if dhat @ Ehat >= 0 else -1.0
    th_fwd = 0.0 if sign > 0 else np.pi
    th_bwd = np.pi if sign > 0 else 0.0
    F_fwd = flight_tangent_matrix(table.a, th_fwd, th_fwd, L)
    F_bwd = flight_tangent_matrix(table.a, th_bwd, th_bwd, L)
    N2 = -dhat
    N1 = dhat
    R2 = _reflection_matrix(table, s2.radius, N2)
    R1 = _reflection_matrix(table, s1.radius, N1)
    M = R1 @ F_bwd @ R2 @ F_fwd
    tr = float(np.trace(M))
    return OrbitStability(
        monodromy=M, trace=tr, eigenvalues=np.linalg.eigvals(M),
        classification=_classify(tr), period=2.0 * L,
        points=[p1, p2], normals=[N1, N2],
        re_product=min(s1.radius, s2.radius) * table.a,
    )


@dataclass
class PeriodTwoOrbit:
    psi: tuple                # boundary angles on the two circles (aligned frame)
    points: list              # impact points (world frame, unwrapped images)
    normals: list
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
    classical two-mirror trace computed from image curvatures.
    """
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
    R1 = _reflection_matrix(table, s1.radius, N1_w)
    R2 = _reflection_matrix(table, s2.radius, N2_w)
    M = R1 @ F21 @ R2 @ F12
    tr = float(np.trace(M))

    D = abs(ch)
    pt, qt = 2.0 * kim2, 2.0 * kim1
    tr_image = 2.0 + 2.0 * pt * D + 2.0 * qt * D + pt * qt * D * D

    stab = OrbitStability(
        monodromy=M, trace=tr, eigenvalues=np.linalg.eigvals(M),
        classification=_classify(tr), period=2.0 * tof,
        points=[p1_w, ev.point], normals=[N1_w, ev.normal],
        re_product=min(s1.radius, s2.radius) * table.a,
    )
    return PeriodTwoOrbit(psi=(float(psi1), float(psi2)),
                          points=[p1_w, ev.point], normals=[N1_w, ev.normal],
                          stability=stab, image_trace=tr_image,
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
