"""Geometric primitives: points, building boxes and their column arrays, circular sectors.

All lengths are in meters. Containment and blocking predicates, which live
with the coverage maps in ``coverage``, share a single global tolerance
``GEOM_EPS``; city-scale coordinates (~1e3 m) leave double precision with
ample headroom at 1e-6 m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Global geometric tolerance (meters) for containment / intersection tests.
GEOM_EPS = 1e-6

TWO_PI = 2.0 * math.pi


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
        if not 0.0 < self.height < math.inf:
            raise ValueError(f"building height must be finite and positive: {self.height}")

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
