"""Exact 2D/3D geometric primitives: points, boxes, circular sectors, predicates.

All lengths are in meters. Containment and intersection predicates share a
single global tolerance ``GEOM_EPS``; city-scale coordinates (~1e3 m) leave
double precision with ample headroom at 1e-6 m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scenario import CityMap

# Global geometric tolerance (meters) for containment / intersection tests.
GEOM_EPS = 1e-6

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        t = 0.0
    return t


@dataclass(frozen=True)
class Point3:
    """A 3D position (x, y, z) in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite coordinates: ({self.x}, {self.y}, {self.z})")

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def distance_to(self, other: "Point3") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )


@dataclass(frozen=True)
class Building:
    """Axis-aligned box: rectangular footprint extruded to ``height``."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    height: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate footprint: {self}")
        if self.height <= 0.0:
            raise ValueError(f"non-positive height: {self.height}")

    def contains_xy(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True)
class CircularSector:
    """Convex circular wedge: center, azimuth span [theta_start, theta_end], radius.

    The span never wraps past 2*pi and its central angle is at most pi, which
    is exactly the condition for the wedge to be convex.
    """

    center: tuple[float, float]
    theta_start: float
    theta_end: float
    radius: float

    def __post_init__(self) -> None:
        span = self.theta_end - self.theta_start
        if not (0.0 < span <= math.pi + 1e-12):
            raise ValueError(f"sector span must be in (0, pi]: {span}")
        if not (-1e-12 <= self.theta_start < TWO_PI):
            raise ValueError(f"theta_start must lie in [0, 2*pi): {self.theta_start}")
        if self.theta_end > TWO_PI + 1e-12:
            raise ValueError(f"theta_end beyond 2*pi: {self.theta_end}")
        if self.radius < 0.0:
            raise ValueError(f"negative radius: {self.radius}")

    @property
    def span(self) -> float:
        return self.theta_end - self.theta_start


# ---------------------------------------------------------------------------
# building arrays + line-of-sight blocking
# ---------------------------------------------------------------------------


class BuildingArrays:
    """Column arrays of building extents, for vectorized predicates."""

    __slots__ = ("x0", "x1", "y0", "y1", "h")

    def __init__(self, buildings: Sequence[Building]):
        self.x0 = np.array([b.x_min for b in buildings], dtype=float)
        self.x1 = np.array([b.x_max for b in buildings], dtype=float)
        self.y0 = np.array([b.y_min for b in buildings], dtype=float)
        self.y1 = np.array([b.y_max for b in buildings], dtype=float)
        self.h = np.array([b.height for b in buildings], dtype=float)

    def __len__(self) -> int:
        return self.x0.size


def _as_building_arrays(city: "CityMap | BuildingArrays | Sequence[Building]") -> BuildingArrays:
    if isinstance(city, BuildingArrays):
        return city
    arrays = getattr(city, "building_arrays", None)
    if callable(arrays):
        return arrays()
    return BuildingArrays(city)  # plain sequence of Building


def _slab_interval(a, d, lo, hi):
    """Per-axis slab clip: parameter interval where a + t*d lies in [lo, hi].

    ``a``/``d`` have shape (n, 1), ``lo``/``hi`` shape (m,). Returns
    (tmin, tmax) of shape (n, m); an empty interval is tmin > tmax.
    """
    zero = d == 0.0
    safe_d = np.where(zero, 1.0, d)
    t1 = (lo - a) / safe_d
    t2 = (hi - a) / safe_d
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    inside = (a >= lo) & (a <= hi)
    tmin = np.where(zero, np.where(inside, -np.inf, np.inf), tmin)
    tmax = np.where(zero, np.where(inside, np.inf, -np.inf), tmax)
    return tmin, tmax


def segments_clear_buildings(p0: np.ndarray, p1: np.ndarray, city) -> np.ndarray:
    """Vectorized blocking test for many 3D segments against all buildings.

    Returns a boolean array: True where the segment stays strictly above every
    building it crosses in plan view. Grazing contact (clearance within
    GEOM_EPS) counts as blocked.
    """
    arrs = _as_building_arrays(city)
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    p0, p1 = np.broadcast_arrays(p0, p1)
    n = p0.shape[0]
    if len(arrs) == 0:
        return np.ones(n, dtype=bool)

    out = np.empty(n, dtype=bool)
    chunk = max(1, int(2_000_000 / max(len(arrs), 1)))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        out[s:e] = _segments_clear_chunk(p0[s:e], p1[s:e], arrs)
    return out


def _segments_clear_chunk(p0, p1, arrs: BuildingArrays) -> np.ndarray:
    ax, ay, az = p0[:, 0:1], p0[:, 1:2], p0[:, 2]
    dx = p1[:, 0:1] - ax
    dy = p1[:, 1:2] - ay
    dz = p1[:, 2] - az

    txmin, txmax = _slab_interval(ax, dx, arrs.x0, arrs.x1)
    tymin, tymax = _slab_interval(ay, dy, arrs.y0, arrs.y1)
    t_lo = np.maximum(np.maximum(txmin, tymin), 0.0)
    t_hi = np.minimum(np.minimum(txmax, tymax), 1.0)
    crossed = t_lo <= t_hi

    z_lo = az[:, None] + dz[:, None] * t_lo
    z_hi = az[:, None] + dz[:, None] * t_hi
    z_min = np.minimum(z_lo, z_hi)
    blocked = crossed & (z_min <= arrs.h + GEOM_EPS)
    return ~blocked.any(axis=1)


def segment_clears_buildings(a: Point3, b: Point3, city) -> bool:
    """True iff segment ab passes strictly above every building it crosses.

    The crossed sub-interval of each building footprint is found by exact slab
    clipping of the 2D projection; the segment altitude is linear, so its
    minimum over the interval sits at an interval endpoint. For a degenerate
    segment (identical plan positions) this reduces to a point-over-building
    containment test.
    """
    return bool(segments_clear_buildings(a.as_array(), b.as_array(), city)[0])


def ray_rect_entry(ox, oy, ux, uy, x0, x1, y0, y1):
    """Entry distance of rays (o + t*u, t >= 0) into axis-aligned rectangles.

    Broadcasts ray terms of shape (n, 1) against rectangle columns of shape
    (m,). Returns t of shape (n, m), +inf where the ray misses.
    """
    txmin, txmax = _slab_interval(ox, ux, x0, x1)
    tymin, tymax = _slab_interval(oy, uy, y0, y1)
    t_lo = np.maximum(np.maximum(txmin, tymin), 0.0)
    t_hi = np.minimum(txmax, tymax)
    hit = t_lo <= t_hi
    return np.where(hit, t_lo, np.inf)


# ---------------------------------------------------------------------------
# sector predicates
# ---------------------------------------------------------------------------


def points_in_sectors(xy: np.ndarray, center, starts, spans, radii) -> np.ndarray:
    """Membership of points (n, 2) in any of m sectors sharing one center.

    Radial slack is GEOM_EPS; angular slack is GEOM_EPS of arc length at the
    point's own radius, so the tolerance is uniform in meters.
    """
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    dx = xy[:, 0] - center[0]
    dy = xy[:, 1] - center[1]
    r = np.hypot(dx, dy)
    az = np.arctan2(dy, dx)
    az = np.where(az < 0.0, az + TWO_PI, az)

    ang_tol = GEOM_EPS / np.maximum(r, GEOM_EPS)
    delta = (az[:, None] - starts[None, :]) % TWO_PI
    in_ang = (delta <= spans[None, :] + ang_tol[:, None]) | (
        delta >= TWO_PI - ang_tol[:, None]
    )
    in_rad = r[:, None] <= radii[None, :] + GEOM_EPS
    inside = (in_ang & in_rad).any(axis=1)
    # The shared apex belongs to every sector of positive radius.
    inside |= (r <= GEOM_EPS) & (radii > 0.0).any()
    return inside


def point_in_sector(p, s: CircularSector) -> bool:
    """True iff p lies in the closed sector s (tolerance GEOM_EPS)."""
    starts, spans, radii = np.array([s.theta_start]), np.array([s.span]), np.array([s.radius])
    return bool(points_in_sectors(np.asarray(p, dtype=float), s.center, starts, spans, radii)[0])


def point_sector_distance(p, s: CircularSector) -> float:
    """Euclidean distance from p to the closed sector s (0 when inside)."""
    dx = p[0] - s.center[0]
    dy = p[1] - s.center[1]
    r = math.hypot(dx, dy)
    if r <= GEOM_EPS:
        return 0.0 if s.radius > 0.0 else r
    az = math.atan2(dy, dx)
    if az < 0.0:
        az += TWO_PI
    delta = (az - s.theta_start) % TWO_PI
    if delta <= s.span:
        return max(0.0, r - s.radius)
    # Outside the span: nearest boundary point lies on one of the radial edges.
    best = math.inf
    for ang in (s.theta_start, s.theta_end):
        ux, uy = math.cos(ang), math.sin(ang)
        t = max(0.0, min(s.radius, dx * ux + dy * uy))
        best = min(best, math.hypot(dx - t * ux, dy - t * uy))
    return best
