"""Geometric primitives: points, building boxes and their column arrays.

All lengths are in meters. Containment and blocking predicates, which live
with the coverage maps in ``coverage``, share a single global tolerance
``GEOM_EPS``; city-scale coordinates (~1e3 m) leave double precision with
ample headroom at 1e-6 m. Coverage maps hold their wedges as arrays, in
``coverage.CoverageMap``.
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

