"""Per-station coverage: SNR model, LoS classification, wedge coverage maps.

A station's coverage at the flight altitude is approximated by a union of
convex circular wedges around the station's plan-view projection, held by
``CoverageMap`` as sorted arrays of start azimuths, end azimuths and radii;
``CircularSector`` objects are built from them only for export. Along a
fixed azimuth, blocking is monotone: once a roof blocks the station-to-ring
segment at radius r, it blocks at every larger radius, because the segment's
altitude above that roof only decreases as the ring point moves out. The
covered set along a ray is therefore a single interval [0, R]; R has the
closed form

    R(theta) = min(r_los, max(r_nlos, first_blocking_radius(theta)))

where r_los / r_nlos are the LoS / NLoS disk radii and the first blocking
radius of one building is (entry distance) * (h - h_g) / (roof - h_g).

The certified radii and the direct model's fan test both take the first
blocking radius min_b factor_b * t0_b(theta) from one kernel, evaluating each
building only over its own azimuth span, with every span computed in one
pass of array operations. It agrees exactly with the generic
per-segment slab test, except where a segment touches a footprint only at a
corner, whose touch the two round differently.

Wedge radii are certified per azimuth cell: the infimum of R over the whole
cell is computed exactly (entry distances at cell edges plus corner and
perpendicular-foot critical azimuths), then shaved by a small safety margin,
so every claimed point holds SNR >= threshold with a strictly positive margin.
Point-sampled azimuths would over-claim between samples and break the
zero-outage guarantee.

Maps are built in batches: the greedy cell merge steps over runs of equal
cell radius rather than single cells, the border points are placed from the
wedge arrays in one pass, and the common borders of all station pairs take
one ``points_in_coverage`` call per map, on the stacked border points of
every station whose coverage can reach it.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .geometry import (
    GEOM_EPS,
    TWO_PI,
    BuildingArrays,
    CircularSector,
    Point3,
    point_sector_distance,
    segments_clear_buildings,
)
from .scenario import BaseStation, CityMap, InvalidConfigError, RadioParams, Scenario

# Angular resolution and sector post-processing defaults (0.5 degree cells).
ANGULAR_STEP = TWO_PI / 720.0
RADIUS_MERGE_TOL = 2.0
MIN_SECTOR_RADIUS = 5.0
BORDER_SAMPLES = 64
# Radial march step of the brute-force coverage oracle.
MARCH_STEP = 0.5
# Claimed radii are shaved by this margin so boundary points keep a strictly
# positive SNR margin under the grazing-counts-as-blocked rule.
RADIUS_SAFETY = 0.01
# Pad, in rad, on each side of a building's subtended azimuth span and of
# each critical azimuth a certified cell must cover.
AZIMUTH_GUARD = 1e-9
# (azimuth, building) pairs per batch of the blocking sweep; small enough to
# keep the batch's temporaries in cache.
SWEEP_BATCH = 16_384


class LinkState(Enum):
    LOS = "los"
    NLOS = "nlos"


def classify_los(p: Point3, bs: BaseStation, city: CityMap) -> LinkState:
    """LoS iff the straight UAV-station segment clears every building."""
    if segments_clear_buildings(p.as_array(), bs.position.as_array(), city)[0]:
        return LinkState.LOS
    return LinkState.NLOS


def snr(p: Point3, bs: BaseStation, params: RadioParams, city: CityMap) -> float:
    """Linear SNR of the station-to-UAV link at point p.

    Distances below 1 m are clamped (near-field guard).
    """
    d = max(p.distance_to(bs.position), 1.0)
    if classify_los(p, bs, city) is LinkState.LOS:
        alpha, beta = params.alpha_los, params.beta_los
    else:
        alpha, beta = params.alpha_nlos, params.beta_nlos
    return params.tx_power_over_noise * beta * d ** (-alpha)


def coverage_disk_radius_sq(params: RadioParams, state: LinkState) -> float:
    """Squared horizontal coverage radius for one propagation state.

    Solves SNR >= threshold for the horizontal offset at the flight altitude;
    zero when the threshold cannot be met even directly overhead.
    """
    if state is LinkState.LOS:
        alpha, beta = params.alpha_los, params.beta_los
    else:
        alpha, beta = params.alpha_nlos, params.beta_nlos
    term = (params.tx_power_over_noise * beta / params.snr_threshold) ** (2.0 / alpha)
    dz2 = (params.uav_altitude - params.bs_height) ** 2
    return max(0.0, term - dz2)


def _crop_mask(arrs: BuildingArrays, keep: np.ndarray) -> BuildingArrays:
    out = BuildingArrays.__new__(BuildingArrays)
    out.x0, out.x1 = arrs.x0[keep], arrs.x1[keep]
    out.y0, out.y1 = arrs.y0[keep], arrs.y1[keep]
    out.h = arrs.h[keep]
    return out


def snr_per_station(points_xy: np.ndarray, bs: BaseStation, params: RadioParams,
                    city: CityMap) -> np.ndarray:
    """Linear SNR from one station at many plan positions (flight altitude)."""
    xy = np.atleast_2d(np.asarray(points_xy, dtype=float))
    bx, by = bs.xy
    n = xy.shape[0]
    p0 = np.column_stack([xy, np.full(n, params.uav_altitude)])
    p1 = np.array([bx, by, params.bs_height])
    lo = np.minimum(xy.min(axis=0), [bx, by])
    hi = np.maximum(xy.max(axis=0), [bx, by])
    arrs = city.building_arrays()
    box = (arrs.x1 >= lo[0]) & (arrs.x0 <= hi[0]) & (arrs.y1 >= lo[1]) & (arrs.y0 <= hi[1])
    los = segments_clear_buildings(p0, p1, _crop_mask(arrs, box))
    d = np.sqrt(
        (xy[:, 0] - bx) ** 2
        + (xy[:, 1] - by) ** 2
        + (params.uav_altitude - params.bs_height) ** 2
    )
    d = np.maximum(d, 1.0)
    alpha = np.where(los, params.alpha_los, params.alpha_nlos)
    beta = np.where(los, params.beta_los, params.beta_nlos)
    return params.tx_power_over_noise * beta * d ** (-alpha)


_Blockers = namedtuple("_Blockers", "x0 x1 y0 y1 factor crit_az crit_d")


def _blockers(center, city: CityMap, params: RadioParams, reach: float) -> _Blockers:
    """The buildings that can block a link from the station within ``reach``.

    A link is lowest over a footprint where it enters it, and it cannot be
    blocked before it gets there, so a roof first blocks at factor * t0, with
    t0 the ray's entry distance and factor = max((h - h_g) / (roof + GEOM_EPS
    - h_g), 1). Returns the footprint extents minus the station's coordinates,
    the factors, and the azimuths in [0, 2*pi) and distances of each
    footprint's four corners and nearest point, as the rows of (5, nb) arrays.
    """
    arrs = city.building_arrays()
    cx, cy = center
    rise = arrs.h + GEOM_EPS - params.bs_height
    tall = np.flatnonzero(rise > 0.0)
    factor = np.maximum((params.uav_altitude - params.bs_height) / rise[tall], 1.0)
    x0, x1 = arrs.x0[tall] - cx, arrs.x1[tall] - cx
    y0, y1 = arrs.y0[tall] - cy, arrs.y1[tall] - cy
    near_x, near_y = np.clip(0.0, x0, x1), np.clip(0.0, y0, y1)
    keep = factor * np.hypot(near_x, near_y) <= reach
    x0, x1, y0, y1, near_x, near_y = (a[keep] for a in (x0, x1, y0, y1, near_x, near_y))
    crit_x = np.stack([x0, x0, x1, x1, near_x])
    crit_y = np.stack([y0, y1, y0, y1, near_y])
    crit_az = np.arctan2(crit_y, crit_x)
    crit_az = np.where(crit_az < 0.0, crit_az + TWO_PI, crit_az)
    return _Blockers(x0, x1, y0, y1, factor[keep], crit_az, np.hypot(crit_x, crit_y))


def _first_blocking_radius(az: np.ndarray, blk: _Blockers) -> np.ndarray:
    """min over buildings b of factor_b * t0_b(theta) at sorted azimuths in [0, 2*pi].

    t0_b(theta) is the entry distance of the ray from the station at azimuth
    theta into b's footprint, +inf where the ray misses it, found by the slab
    clip of ``geometry.segments_clear_buildings`` along (cos theta, sin theta).
    The link to the point at polar (theta, r) is blocked when r >= the
    returned value. Each building is evaluated only at the azimuths
    inside its subtended span, padded by AZIMUTH_GUARD (every azimuth when its
    closed footprint holds the station): the spans and their ``searchsorted``
    bounds come from one pass of array operations, and the (azimuth, building)
    pairs are expanded in batches of SWEEP_BATCH.
    """
    out = np.full(az.size, np.inf)
    nb = blk.factor.size
    if az.size == 0 or nb == 0:
        return out
    near = blk.crit_az[4]
    rel = (blk.crit_az[:4] - near + math.pi) % TWO_PI - math.pi
    lo = near + rel.min(axis=0) - AZIMUTH_GUARD
    hi = near + rel.max(axis=0) + AZIMUTH_GUARD
    around = blk.crit_d[4] == 0.0
    lo[around], hi[around] = 0.0, TWO_PI
    # Each span and its copies shifted by -2*pi and 2*pi, as runs of sorted azimuths.
    shift = np.array([[-TWO_PI], [0.0], [TWO_PI]])
    first = np.searchsorted(az, (lo + shift).ravel(), side="left")
    count = np.searchsorted(az, (hi + shift).ravel(), side="right") - first
    runs = np.flatnonzero(count > 0)
    owner, first, count = runs % nb, first[runs], count[runs]
    ends = np.cumsum(count)
    offset = first - (ends - count)  # azimuth index minus pair index, per run

    cos_a, sin_a = np.cos(az), np.sin(az)
    # A zero direction (sin at azimuth 0) leaves its slab unbounded when the
    # station lies inside it and empty otherwise.
    zero_x, zero_y = cos_a == 0.0, sin_a == 0.0
    patch = bool(zero_x.any() or zero_y.any())
    cos_a[zero_x], sin_a[zero_y] = 1.0, 1.0
    inside_x = (blk.x0 <= 0.0) & (blk.x1 >= 0.0)
    inside_y = (blk.y0 <= 0.0) & (blk.y1 >= 0.0)
    axes = ((blk.x0, blk.x1, cos_a, zero_x, inside_x), (blk.y0, blk.y1, sin_a, zero_y, inside_y))

    total = int(ends[-1]) if ends.size else 0
    for s in range(0, total, SWEEP_BATCH):
        e = min(s + SWEEP_BATCH, total)
        r0 = np.searchsorted(ends, s, side="right")
        r1 = np.searchsorted(ends, e, side="left") + 1
        k = np.minimum(ends[r0:r1], e) - np.maximum(ends[r0:r1] - count[r0:r1], s)
        b = np.repeat(owner[r0:r1], k)
        i = np.arange(s, e) + np.repeat(offset[r0:r1], k)
        slabs = []
        for lo_b, hi_b, d, zero, inside in axes:
            di = d[i]
            t1, t2 = lo_b[b] / di, hi_b[b] / di
            tmin, tmax = np.minimum(t1, t2), np.maximum(t1, t2)
            if patch:
                z, ins = zero[i], inside[b]
                tmin = np.where(z, np.where(ins, -np.inf, np.inf), tmin)
                tmax = np.where(z, np.where(ins, np.inf, -np.inf), tmax)
            slabs.append((tmin, tmax))
        (txmin, txmax), (tymin, tymax) = slabs
        t_lo = np.maximum(np.maximum(txmin, tymin), 0.0)
        t_hi = np.minimum(txmax, tymax)
        np.minimum.at(out, i, np.where(t_lo <= t_hi, blk.factor[b] * t_lo, np.inf))
    return out


def fan_blocked(center, points_xy: np.ndarray, city: CityMap, params: RadioParams) -> np.ndarray:
    """Blocking test for a fan of station-to-point segments, one shared station.

    The segment to a point at polar (az, r) around the station projection is
    blocked iff r >= ``_first_blocking_radius`` at az. This agrees with the
    generic per-segment slab test except for a segment through a corner at an
    end of a footprint's subtended span, where the two round differently.
    """
    xy = np.atleast_2d(np.asarray(points_xy, dtype=float))
    n = xy.shape[0]
    blocked = np.zeros(n, dtype=bool)
    if n == 0:
        return blocked
    cx, cy = center
    dx = xy[:, 0] - cx
    dy = xy[:, 1] - cy
    r = np.hypot(dx, dy)
    az = np.arctan2(dy, dx)
    az = np.where(az < 0.0, az + TWO_PI, az)
    order = np.argsort(az, kind="stable")
    blk = _blockers(center, city, params, float(r.max()))
    blocked[order] = r[order] >= _first_blocking_radius(az[order], blk)
    return blocked


def network_covered(points_xy: np.ndarray, scenario: Scenario) -> np.ndarray:
    """True where the best station meets the SNR threshold (direct model).

    Equivalent to max-over-stations snr >= threshold, organized so the
    expensive LoS test runs only where the NLoS disk alone cannot decide.
    """
    params = scenario.radio
    xy = np.atleast_2d(np.asarray(points_xy, dtype=float))
    n = xy.shape[0]
    if not scenario.base_stations:
        return np.zeros(n, dtype=bool)
    d_los_sq = coverage_disk_radius_sq(params, LinkState.LOS)
    d_nlos_sq = coverage_disk_radius_sq(params, LinkState.NLOS)

    bs_xy = np.array([bs.xy for bs in scenario.base_stations])
    d2 = (xy[:, 0:1] - bs_xy[None, :, 0]) ** 2 + (xy[:, 1:2] - bs_xy[None, :, 1]) ** 2
    d2 = d2.reshape(n, len(scenario.base_stations))
    covered = (d2 <= d_nlos_sq).any(axis=1)

    candidates = (d2 <= d_los_sq).sum(axis=0)
    for k in np.argsort(-candidates):
        if candidates[k] == 0:
            continue
        pend = np.flatnonzero(~covered & (d2[:, k] <= d_los_sq))
        if pend.size == 0:
            continue
        bs = scenario.base_stations[k]
        blocked = fan_blocked(bs.xy, xy[pend], scenario.city, params)
        covered[pend[~blocked]] = True
    return covered


# ---------------------------------------------------------------------------
# coverage maps
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CoverageMap:
    """One station's coverage as wedges around its projection, plus its border.

    Wedge i spans the azimuths [starts[i], ends[i]] out to radius radii[i].
    The wedges are sorted and disjoint: each starts where the one before it
    ends or later, up to 1e-12 rad of rounding. None wraps past 2*pi, and
    each spans at most pi, so each is convex.
    """

    bs_id: int
    center: tuple[float, float]
    starts: np.ndarray
    ends: np.ndarray
    radii: np.ndarray
    border_points: np.ndarray  # (Q, 2)

    def __post_init__(self) -> None:
        self.starts = np.asarray(self.starts, dtype=float)
        self.ends = np.asarray(self.ends, dtype=float)
        self.radii = np.asarray(self.radii, dtype=float)
        if not (self.starts.ndim == 1 and self.starts.shape == self.ends.shape == self.radii.shape):
            raise ValueError("wedge starts, ends and radii must be 1-D arrays of one length")
        span = self.ends - self.starts
        for ok, what in (
            ((span > 0.0) & (span <= math.pi + 1e-12), "wedge spans must lie in (0, pi]"),
            ((self.starts >= 0.0) & (self.ends <= TWO_PI), "wedges must lie in [0, 2*pi]"),
            (self.radii >= 0.0, "wedge radii must be non-negative"),
            (self.starts[1:] >= self.ends[:-1] - 1e-12, "wedges must be sorted and disjoint"),
        ):
            if not ok.all():
                raise ValueError(f"{what} (station {self.bs_id})")

    @property
    def border_count(self) -> int:
        return int(self.border_points.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.radii.size == 0

    @cached_property
    def sectors(self) -> tuple[CircularSector, ...]:
        """The wedges as ``CircularSector`` objects, for export and tests."""
        return tuple(
            CircularSector(self.center, s, e, r)
            for s, e, r in zip(self.starts.tolist(), self.ends.tolist(), self.radii.tolist())
        )

    @cached_property
    def radius_steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The wedge union as a step function R(theta), by its jumps.

        The union is {r <= R(theta)}, with R a wedge's radius across its span
        and 0 in the gaps between wedges. Returns the sorted angles in
        [0, 2*pi) where R changes, and R just before and just after each of
        them. Where a wedge starts within 1e-12 rad of the end of the one
        before, the two edges are one angle, the smaller of the two.
        """
        if self.is_empty:
            return np.empty(0), np.empty(0), np.empty(0)
        starts, ends, radii = self.starts, self.ends, self.radii
        # joined[i]: wedge i + 1 starts where wedge i ends, up to rounding
        joined = np.append(starts[1:] - ends[:-1], starts[0] + TWO_PI - ends[-1]) <= 1e-12
        first = np.where(np.roll(joined, 1), np.minimum(starts, np.roll(ends, 1) % TWO_PI), starts)
        # pieces of R: each wedge, then the gap after it where there is one
        angles = np.column_stack([first, ends]).ravel()
        piece = np.column_stack([radii, np.zeros_like(radii)]).ravel()
        keep = np.column_stack([np.ones_like(joined), ~joined]).ravel()
        angles, piece = angles[keep], piece[keep]
        # a gap after a wedge ending at 2*pi starts at angle 0: it goes first
        wrap = int(angles[-1] >= TWO_PI)
        angles, piece = np.roll(angles % TWO_PI, wrap), np.roll(piece, wrap)
        before = np.roll(piece, 1)
        jump = piece != before
        return angles[jump], before[jump], piece[jump]

    @property
    def max_radius(self) -> float:
        if self.is_empty:
            return 0.0
        return float(self.radii.max())


@dataclass(eq=False)
class CommonBorder:
    """Discretized border points shared by a pair of coverage areas."""

    pair: tuple[int, int]
    points: np.ndarray  # (N, 2)


def points_in_coverage(points_xy: np.ndarray, cov: CoverageMap) -> np.ndarray:
    """Membership of points (n, 2) in the map, with the slack of ``points_in_sectors``.

    The wedges are sorted and disjoint, so only the wedge bracketing a point's
    azimuth and its two neighbours (for the slack and the 2*pi wrap) can hold it.
    """
    xy = np.atleast_2d(np.asarray(points_xy, dtype=float))
    if cov.is_empty:
        return np.zeros(xy.shape[0], dtype=bool)
    starts, spans, radii = cov.starts, cov.ends - cov.starts, cov.radii
    dx = xy[:, 0] - cov.center[0]
    dy = xy[:, 1] - cov.center[1]
    r = np.hypot(dx, dy)
    az = np.arctan2(dy, dx)
    az = np.where(az < 0.0, az + TWO_PI, az)
    ang_tol = GEOM_EPS / np.maximum(r, GEOM_EPS)
    idx = np.searchsorted(starts, az, side="right") - 1
    inside = (r <= GEOM_EPS) & bool((radii > 0.0).any())
    for off in (-1, 0, 1):
        j = (idx + off) % starts.size
        delta = (az - starts[j]) % TWO_PI
        ok = (delta <= spans[j] + ang_tol) | (delta >= TWO_PI - ang_tol)
        inside |= ok & (r <= radii[j] + GEOM_EPS)
    return inside


def point_in_any_sector(p, cov: CoverageMap) -> bool:
    return bool(points_in_coverage(np.asarray(p, dtype=float), cov)[0])


def distance_to_coverage(p, cov: CoverageMap) -> float:
    """Distance from p to the claimed coverage region (0 when inside)."""
    if cov.is_empty:
        return math.inf
    return min(point_sector_distance(p, s) for s in cov.sectors)


def azimuth_coverage_radius(bs: BaseStation, theta: float, city: CityMap,
                            params: RadioParams) -> float:
    """Largest r with the whole radial segment out to r meeting the threshold.

    Closed form per the monotone-blocking argument; the radial march at
    MARCH_STEP is the brute-force reference for this value.
    """
    r_los = math.sqrt(coverage_disk_radius_sq(params, LinkState.LOS))
    r_nlos = math.sqrt(coverage_disk_radius_sq(params, LinkState.NLOS))
    if r_los <= 0.0:
        return 0.0
    blk = _blockers(bs.xy, city, params, r_los)
    first_block = float(_first_blocking_radius(np.array([theta % TWO_PI]), blk)[0])
    return min(r_los, max(r_nlos, first_block))


def _certified_cell_radii(center, city: CityMap, params: RadioParams, n_cells: int) -> np.ndarray:
    """Infimum of the azimuth coverage radius over each angular cell.

    Along one azimuth the first blocking radius of building b is
    factor_b * t0_b(theta) with t0 the ray entry distance into the footprint.
    t0 is quasiconvex on the azimuth span that hits the footprint, so its
    infimum over a cell sits at a cell edge, a footprint corner azimuth, or
    the nearest-point azimuth; all are evaluated exactly. Rounding is
    monotone, so fl(f * min(x, y)) = min(fl(f * x), fl(f * y)): taking the
    minimum over a cell's edges and critical azimuths after scaling by the
    factor gives the same bits as taking it before.
    """
    r_los = math.sqrt(coverage_disk_radius_sq(params, LinkState.LOS))
    r_nlos = math.sqrt(coverage_disk_radius_sq(params, LinkState.NLOS))
    if r_los <= 0.0:
        return np.zeros(n_cells)
    blk = _blockers(center, city, params, r_los)
    at_edges = _first_blocking_radius(np.linspace(0.0, TWO_PI, n_cells + 1), blk)
    first_block = np.minimum(at_edges[:-1], at_edges[1:])

    step = TWO_PI / n_cells
    crit_az = blk.crit_az.ravel()
    crit_block = (blk.factor * blk.crit_d).ravel()
    for shift in (-AZIMUTH_GUARD, 0.0, AZIMUTH_GUARD):
        cells = np.floor((crit_az + shift) / step).astype(int) % n_cells
        np.minimum.at(first_block, cells, crit_block)
    return np.minimum(r_los, np.maximum(r_nlos, first_block))


def _cells_to_wedges(radii: np.ndarray, merge_tol: float, min_radius: float):
    """Group adjacent cells of similar radius, split spans over pi, drop slivers.

    A group's radius is the minimum over its cells, so the claimed region never
    exceeds any constituent cell's certified radius. The greedy merge grows a
    group cell by cell while max - min stays below ``merge_tol``. A cell equal
    to one already in the group cannot widen max - min, so with a positive
    tolerance the merge takes a run of equal cells whole or breaks at its first
    cell, and it steps over such runs; a tolerance <= 0 breaks at every cell.
    Returns the wedges' start azimuths, end azimuths and radii as float arrays.
    """
    n = radii.size
    edges = np.linspace(0.0, TWO_PI, n + 1).tolist()
    new_run = radii[1:] != radii[:-1]
    if merge_tol <= 0.0:
        new_run[:] = True
    # run r holds cells cuts[r] to cuts[r + 1] - 1, all of radius values[r]
    cuts = [0, *(np.flatnonzero(new_run) + 1).tolist(), n]
    values = radii[cuts[:-1]].tolist()  # Python floats: this loop is scalar work
    runs = len(values)
    starts, ends, wedge_radii = [], [], []
    r = 0
    while r < runs:
        lo = hi = values[r]
        s = r + 1
        while s < runs:
            v = values[s]
            nlo = v if v < lo else lo
            nhi = v if v > hi else hi
            if nhi - nlo >= merge_tol:
                break
            lo, hi = nlo, nhi
            s += 1
        if lo >= min_radius:
            a0, a1 = edges[cuts[r]], edges[cuts[s]]
            span = a1 - a0
            pieces = math.ceil(span / math.pi - 1e-12)
            if pieces < 1:
                pieces = 1
            for p in range(pieces):
                end = a0 + span * (p + 1) / pieces
                starts.append(a0 + span * p / pieces)
                ends.append(end if end < TWO_PI else TWO_PI)
                wedge_radii.append(lo)
        r = s
    return tuple(np.array(w, dtype=float) for w in (starts, ends, wedge_radii))


def build_coverage_map(
    bs: BaseStation,
    city: CityMap,
    params: RadioParams,
    angular_step: float = ANGULAR_STEP,
    border_samples: int = BORDER_SAMPLES,
    merge_tol: float = RADIUS_MERGE_TOL,
    min_radius: float = MIN_SECTOR_RADIUS,
) -> CoverageMap:
    """Sectorized coverage map of one station, with a discretized border."""
    n_cells = round(TWO_PI / angular_step)
    if n_cells < 2 or abs(n_cells * angular_step - TWO_PI) > 1e-9:
        raise InvalidConfigError(f"angular_step must evenly divide 2*pi: {angular_step}")
    radii = _certified_cell_radii(bs.xy, city, params, n_cells)
    radii = np.maximum(radii - RADIUS_SAFETY, 0.0)
    wedges = _cells_to_wedges(radii, merge_tol, min_radius)
    border = _border_points(bs.xy, *wedges, border_samples)
    return CoverageMap(bs.id, bs.xy, *wedges, border_points=border)


def _border_points(center, starts: np.ndarray, ends: np.ndarray, radii: np.ndarray,
                   q: int) -> np.ndarray:
    """q points spaced uniformly by arc length along the wedge union's boundary.

    The boundary is walked from the first wedge's start, with three slots per
    wedge: its arc, then a radial wall out to the apex and a wall back in to
    the next wedge where an azimuth gap follows, or one wall between the two
    radii where the next wedge joins at a different radius. Point s lies on
    the first piece whose cumulative length exceeds s; ``np.cumsum`` adds in
    order, so those sums are the ones a piece-by-piece walk would reach.
    """
    if q < 1:
        raise InvalidConfigError(f"border sample count must be >= 1: {q}")
    m = radii.size
    if m == 0:
        return np.empty((0, 2))
    next_start = np.append(starts[1:], starts[0])
    next_radius = np.append(radii[1:], radii[0])
    gap = np.append(starts[1:] - ends[:-1], starts[0] + TWO_PI - ends[-1]) > 1e-12
    step = np.abs(radii - next_radius) > 1e-12
    # Slots, wedge by wedge: arc, wall out, wall in. An arc runs from its
    # start angle over r_from = its span at radius r_to; a wall runs at its
    # angle from radius r_from to radius r_to.
    angle = np.stack([starts, ends, next_start], axis=1).ravel()
    r_from = np.stack([ends - starts, radii, np.where(gap, 0.0, radii)], axis=1).ravel()
    r_to = np.stack([radii, np.zeros(m), next_radius], axis=1).ravel()
    present = np.stack([np.ones(m, dtype=bool), gap, gap | step], axis=1).ravel()
    keep = np.flatnonzero(present)
    angle, r_from, r_to, is_arc = angle[keep], r_from[keep], r_to[keep], keep % 3 == 0
    lengths = np.where(is_arc, r_to * r_from, np.abs(r_to - r_from))
    total = float(lengths.sum())
    if total <= 0.0:
        return np.empty((0, 2))

    targets = np.arange(q) * (total / q)
    cum = np.cumsum(lengths)
    piece = np.minimum(np.searchsorted(cum, targets, side="right"), lengths.size - 1)
    local = targets - np.where(piece > 0, cum[piece - 1], 0.0)
    ang0, a, b, arc = angle[piece], r_from[piece], r_to[piece], is_arc[piece]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        along = np.where(b > 0.0, local / b, 0.0)
    rho = np.where(arc, b, a + np.copysign(local, b - a))
    phi = np.where(arc, ang0 + along, ang0)
    points = np.empty((q, 2))
    points[:, 0] = center[0] + rho * np.cos(phi)
    points[:, 1] = center[1] + rho * np.sin(phi)
    return points


def discretize_border(cov: CoverageMap, q: int) -> CoverageMap:
    """The map with q border points placed uniformly by arc length along its perimeter."""
    return replace(cov, border_points=_border_points(cov.center, cov.starts, cov.ends,
                                                     cov.radii, q))


def _common_borders(maps: list[CoverageMap]) -> dict[tuple[int, int], CommonBorder]:
    """Common borders of every overlapping pair of maps, keyed by station ids.

    The pair (maps[i], maps[j]), i < j, keeps the border points of maps[i]
    inside maps[j], then those of maps[j] inside maps[i]; pairs that share no
    point are left out. Membership is elementwise, so each map tests the
    stacked border points of all its partners in one ``points_in_coverage``
    call, and the result is split back per partner.
    """
    n = len(maps)
    reach = [cov.max_radius for cov in maps]
    partners = [[] for _ in maps]  # sorted indices of the maps that can overlap
    for i, a in enumerate(maps):
        for j in range(i + 1, n):
            b = maps[j]
            if a.is_empty or b.is_empty:
                continue
            gap = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
            if gap > reach[i] + reach[j] + GEOM_EPS:
                continue
            partners[i].append(j)
            partners[j].append(i)

    inside = {}  # (p, m): which border points of maps[p] lie inside maps[m]
    for m, cov in enumerate(maps):
        ps = [p for p in partners[m] if maps[p].border_count]
        if not ps:
            continue
        hits = points_in_coverage(np.vstack([maps[p].border_points for p in ps]), cov)
        cuts = np.cumsum([maps[p].border_count for p in ps])[:-1]
        inside.update(((p, m), mask) for p, mask in zip(ps, np.split(hits, cuts)))

    commons = {}
    for i, a in enumerate(maps):
        for j in partners[i]:
            if j < i:
                continue
            pts = [
                maps[p].border_points[inside[p, m]]
                for p, m in ((i, j), (j, i))
                if (p, m) in inside
            ]
            points = np.vstack(pts) if pts else np.empty((0, 2))
            if points.shape[0]:
                pair = (a.bs_id, maps[j].bs_id)
                commons[pair] = CommonBorder(pair, points)
    return commons


def common_border_points(cov_a: CoverageMap, cov_b: CoverageMap) -> CommonBorder:
    """Border points of either map that fall inside the other map's coverage."""
    pair = (cov_a.bs_id, cov_b.bs_id)
    return _common_borders([cov_a, cov_b]).get(pair, CommonBorder(pair, np.empty((0, 2))))


def build_all_coverage(scenario: Scenario, angular_step: float = ANGULAR_STEP,
                       border_samples: int = BORDER_SAMPLES):
    """Coverage maps for every station plus all pairwise common borders."""
    maps = {
        bs.id: build_coverage_map(
            bs, scenario.city, scenario.radio,
            angular_step=angular_step, border_samples=border_samples,
        )
        for bs in scenario.base_stations
    }
    return maps, _common_borders([maps[k] for k in sorted(maps)])


def save_coverage_dump(maps: dict[int, CoverageMap], path: str | Path) -> None:
    """Write per-station sectors and border points as JSON, for plotting."""
    payload = [
        {
            "bs_id": cov.bs_id,
            "center": list(cov.center),
            "sectors": [
                {
                    "theta_start": s.theta_start,
                    "theta_end": s.theta_end,
                    "radius": s.radius,
                }
                for s in cov.sectors
            ],
            "border_points": cov.border_points.tolist(),
        }
        for _, cov in sorted(maps.items())
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
