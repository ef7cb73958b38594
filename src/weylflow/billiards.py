"""Thermostatted Lorentz gas on the flat 2-torus with circular scatterers.

Free flight follows the exact thermostat curves (in field-aligned
coordinates the translates of  a x = -ln cos(a y), or the two straight lines
along +-E).  Collisions are located by sign-bracketing, on a grid of arc
subdivisions, the distance from each grid point to the nearest image of every
scatterer at once, then refined to 1e-12 in time by a safeguarded Newton
method (``_rtsafe``) with analytic derivatives.  The rotation between world
and field-aligned coordinates has one formula (``BilliardTable._turn``),
shared by the array grid and the per-collision arithmetic on float pairs.
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
        ca, sa = math.cos(self.field_angle), math.sin(self.field_angle)
        self._cos, self._sin = ca, sa
        self._rot = np.array([[ca, sa], [-sa, ca]])      # world -> aligned, as a matrix
        self.field = self.a * np.array([ca, sa])
        self._centers = np.array([s.center for s in self.scatterers])
        self._radii = np.array([s.radius for s in self.scatterers])
        self._period_xy = tuple(self.periods.tolist())
        self._discs = [(tuple(s.center.tolist()), s.radius) for s in self.scatterers]
        # search cell width (see _search_window): h <= r_min/4, r_max + h < min(L)/2
        # (taken as h <= (min(L)/2 - r_max)/2), h <= 1/(4|E|) and
        # h <= sqrt(1 - r|E|)/|E| on every scatterer with r|E| < 1
        self.cell = min(self._radii.min() / 4.0,
                        0.5 * (0.5 * self.periods.min() - self._radii.max()))
        if self.a > 0:
            self.cell = min(self.cell, 0.25 / self.a)
            re = self._radii * self.a
            if (re < 1.0).any():
                self.cell = min(self.cell, math.sqrt(1.0 - re[re < 1.0].max()) / self.a)
        self.horizon_finite = self._compute_horizon()

    def _turn(self, x, y, s):
        """The one rotation formula, on floats and arrays alike: s = -sin(field_angle)
        takes world to aligned coordinates, s = sin(field_angle) back.  Scalar
        and array paths share it, so their aligned angles agree bit for bit."""
        c = self._cos
        return c * x - s * y, s * x + c * y

    def _rotate(self, x, s):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        out[..., 0], out[..., 1] = self._turn(x[..., 0], x[..., 1], s)
        return out

    def to_aligned(self, x):
        """World -> field-aligned coordinates of a vector or of rows (..., 2)."""
        return self._rotate(x, -self._sin)

    def from_aligned(self, x):
        """Field-aligned -> world coordinates of a vector or of rows (..., 2)."""
        return self._rotate(x, self._sin)

    def wrap(self, q):
        return np.mod(q, self.periods)

    def _check_disjoint(self):
        shifts = [np.array([mx * self.periods[0], my * self.periods[1]])
                  for mx in (-1, 0, 1) for my in (-1, 0, 1)]
        for i, s in enumerate(self.scatterers):
            for j, t in enumerate(self.scatterers):
                for sh in shifts:
                    gap = np.linalg.norm(t.center + sh - s.center) - s.radius - t.radius
                    if gap < 1e-9 and (i != j or sh.any()):
                        raise InvalidStateError(
                            f"scatterers {i} and {j} (shift {sh}) overlap or touch")

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
    runs in stages of increasing span so short flights stay cheap.
    """
    qx, qy = float(q[0]), float(q[1])
    vx, vy = float(v[0]), float(v[1])
    n = math.hypot(vx, vy)
    vx, vy = vx / n, vy / n
    if not table.outside((qx, qy), tol=1e-12):
        raise InvalidStateError(f"flight starts inside a scatterer at q={np.array([qx, qy])}")
    span = max(table._period_xy)
    t_cap = FLIGHT_CAP_FACTOR * span
    to_a, back = -table._sin, table._sin
    flight = ThermostatFlight(table._turn(qx, qy, to_a), table._turn(vx, vy, to_a), table.a)

    t_lo = 0.0
    best = None
    for t_hi in _stages(span, t_cap):
        best = _search_window(flight, table, t_lo, t_hi)
        if best is not None:
            break
        t_lo = t_hi
    if best is None:
        x, y, vx, vy = flight.pos_vel_scalar(t_cap)
        return OpenFlight(t_cap, table.from_aligned((x, y)), table.from_aligned((vx, vy)),
                          math.atan2(vy, vx))

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
        cos_incidence=-vn, image_shift=shift, grazing=abs(vn) < GRAZING_TOL,
        theta_in_aligned=math.atan2(vay, vax), theta_out_aligned=math.atan2(oay, oax),
    )


def _stages(span, t_cap):
    t = min(1.5 * span, t_cap)
    while True:
        yield t
        if t >= t_cap:
            return
        t = min(4.0 * t, t_cap)


def _search_window(flight, table, t_lo, t_hi):
    """Earliest crossing in [t_lo, t_hi], each scatterer seen through the image
    of its centre nearest to the arc.

    At each grid point p the nearest image of a centre c is
    c' = c + round((p - c)/L) L.  One array pass fills a ``(k_scatterers,
    n_grid)`` table of d = |p - c'| - r and g = <p - c', v>.  A cell is a
    candidate only when both of its ends see the same image and d changes
    sign across it, or it is a dip (below) with d <= cell at its start;
    candidates go to ``_first_crossing``.

    Completeness.  The grid cell is at most h = ``table.cell`` with
    h <= r_min/4, r_max + h < min(L)/2, h <= 1/(4|E|) and, on every scatterer
    with r|E| < 1, h <= sqrt(1 - r|E|)/|E|.

    * On the rectangular lattice, rounding each coordinate picks the image
      nearest to p, and an image within min(L)/2 of p is that nearest one
      (every other image is min(L) from it).  The flight has unit speed, so
      both ends of a cell that holds an entry into the circle about c' lie
      within h of the entry point, within r + h < min(L)/2 of c': both see c'
      and both have d <= h.  No entry is lost to the image or dip test.
    * Let u = |p - c'| and g = u u'.  Since |v| = 1 and |v'| = |E sin(theta)|
      <= |E|, u'' = (1 - g^2/u^2 + <p - c', v'>)/u >= -|E|.  Where g falls
      through zero (the arc turns back towards c'), g' = 1 + <p - c', v'>
      <= 0 forces u >= 1/|E|, and within time h of that point
      u >= 1/|E| - |E| h^2/2 > r whenever 1 - r|E| > (h|E|)^2/2, which the
      last cell bound gives on every scatterer with r|E| < 1.  Then on every
      cell that meets the disc g changes sign at most once, from - to +, so
      |p - c'| first falls and then rises: an entry shows either as a sign
      change of d or, when the arc enters and leaves inside one cell, as a
      dip (both ends outside, g < 0 at the start and > 0 at the end) whose
      closest approach lies inside the circle, and each bracket holds one
      root.
    * For a scatterer with r|E| >= 1 the second step fails, so completeness
      is unproven on it; it adds no cell bound of its own.
    """
    n_seg = max(2, math.ceil((t_hi - t_lo) / table.cell))
    cell = (t_hi - t_lo) / n_seg
    t_grid = t_lo + cell * np.arange(n_seg + 1)
    pos_a, vel_a = flight.pos_vel(t_grid)
    back = table._sin
    px, py = table._turn(pos_a[:, 0], pos_a[:, 1], back)
    vx, vy = table._turn(vel_a[:, 0], vel_a[:, 1], back)
    # nearest image of every centre at every grid point, centres first
    Lx, Ly = table._period_xy
    c0x, c0y = table._centers[:, :1], table._centers[:, 1:]
    sx = np.rint((px - c0x) / Lx) * Lx
    sy = np.rint((py - c0y) / Ly) * Ly
    dx, dy = px - (c0x + sx), py - (c0y + sy)
    d = np.hypot(dx, dy) - table._radii[:, None]
    g = dx * vx + dy * vy
    # candidate cells: one image at both ends, outside at the start and either
    # inside at the end (a sign change of d) or a dip (outside at both ends,
    # radial velocity g going from - to +) within a cell of the circle
    same = (sx[:, :-1] == sx[:, 1:]) & (sy[:, :-1] == sy[:, 1:])
    outside = d > BISECT_TOL
    dip = (g[:, :-1] < 0.0) & (g[:, 1:] > 0.0) & (d[:, :-1] <= cell + 1e-9)
    cells, rows = np.nonzero((same & outside[:, :-1] & (dip | ~outside[:, 1:])).T)

    # in time order: a cell that starts after the best hit so far ends the search
    best = None
    for j, k in zip(cells.tolist(), rows.tolist()):
        t0 = t_grid.item(j)
        if best is not None and t0 > best[0]:
            break
        (cx, cy), r = table._discs[k]
        shift = sx.item(k, j), sy.item(k, j)
        c = cx + shift[0], cy + shift[1]
        t_star = _first_crossing(flight, table._turn(*c, -back), r, t0, t_grid.item(j + 1),
                                 d.item(k, j), d.item(k, j + 1), g.item(k, j),
                                 g.item(k, j + 1))
        if t_star is not None and (best is None or t_star < best[0]):
            best = (t_star, k, c, np.array(shift))
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
    lambda1: float = None
    exponents: np.ndarray = None
    collision_times: np.ndarray = None
    sbar: float = None             # time average of -phi(v) = -<E, q_end - q0> / total_time
    pair_residual: float = None    # |lambda1 + lambda2 - sbar|


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


def run_billiard(table, q0, v0, n_collisions, with_tangent=False):
    """Iterate free flight + specular reflection for n_collisions events.

    With tangent propagation, the 2x2 quotient map is carried as four floats
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

    Grazing collisions are skipped (counted) by restarting the flight just
    past the impact; the tangent map composes the flight up to the restart
    and drops only the reflection.
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
            if with_tangent:
                f, shear = _flight_entries(table.a, th0, ev.theta_end_aligned,
                                           ev.time_of_flight)
                tangent = _tangent_step(tangent, f, shear, 0.0)
            q, v = ev.end_q, ev.end_v
            th0 = _aligned_angle(table, v)
            t_total += ev.time_of_flight
            continue
        consecutive_caps = 0
        t_total += ev.time_of_flight
        if ev.grazing:
            grazing += 1
            # restart just past the tangency, keeping the incoming direction
            t_skip = ev.time_of_flight + 1e-9
            fl = ThermostatFlight(table.to_aligned(q), table.to_aligned(v), table.a)
            x, y, vx, vy = fl.pos_vel_scalar(t_skip)
            if with_tangent:
                f, shear = _flight_entries(table.a, th0, math.atan2(vy, vx), t_skip)
                tangent = _tangent_step(tangent, f, shear, 0.0)
            q, v = table.from_aligned((x, y)), table.from_aligned((vx, vy))
            th0 = _aligned_angle(table, v)
            continue
        if with_tangent:
            f, shear = _flight_entries(table.a, th0, ev.theta_in_aligned, ev.time_of_flight)
            kick = _reflection_kick(table, table.scatterers[ev.scatterer].radius,
                                    ev.normal, ev.cos_incidence)
            tangent = _tangent_step(tangent, f, shear, kick)
        q, v = reflect(ev)
        th0 = ev.theta_out_aligned
        events.append(ev)
        times.append(t_total)

    sbar = -float(table.field @ (q + shift * table.periods - start)) / t_total
    exps = pair_residual = None
    if with_tangent:
        exps = np.sort([tangent[2] / t_total, tangent[3] / t_total])[::-1]
        pair_residual = abs(float(exps.sum()) - sbar)
    return BilliardRun(events=events, total_time=t_total, grazing_count=grazing,
                       open_count=open_count,
                       lambda1=float(exps[0]) if with_tangent else None,
                       exponents=exps,
                       collision_times=np.array(times),
                       sbar=sbar, pair_residual=pair_residual)


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
