"""Per-station coverage: disk radii, roof blocking, the direct model, wedge maps.

A station's coverage at the flight altitude is approximated by a union of
convex circular wedges around the station's plan-view projection, held by
``CoverageMap`` as sorted arrays of start azimuths, end azimuths and radii,
the one form every consumer reads, the JSON dump included. Along a fixed
azimuth, blocking is monotone: once a roof blocks the station-to-ring segment
at radius r, it blocks at every larger radius, because the segment's altitude
above that roof only decreases as the ring point moves out. The covered set
along a ray is therefore a single interval [0, R]; R has the closed form

    R(theta) = min(r_los, max(r_nlos, first_blocking_radius(theta)))

where r_los / r_nlos are the LoS / NLoS disk radii and the first blocking
radius of one building is (entry distance) * (h - h_g) / (roof - h_g).

The certified radii and the direct model's fan test both take the first
blocking radius min_b factor_b * t0_b(theta) from one kernel, evaluating each
building only over its own azimuth span, with every span computed in one
pass of array operations. The entry distance t0 comes from a slab clip: per
axis, the ray parameters where the ray lies within the footprint's closed
extent, intersected over both axes and clamped at 0. A roof counts as
blocking up to GEOM_EPS above its height, so grazing contact is blocked.

Wedge radii are certified per azimuth cell: the infimum of R over the whole
cell and the slack that membership grants past it is computed exactly (entry
distances at cell edges plus corner and nearest-point critical azimuths, each
within its guard), then shaved by a small safety margin, so every claimed
point holds SNR >= threshold with a strictly positive margin.
Point-sampled azimuths would over-claim between samples and break the
zero-outage guarantee.

``build_coverage_maps`` builds the maps of a batch of stations together:
the blocking sweep and certified radii, the greedy cell merge and the border
walk each run once over the stacked arrays of all of them, and each map,
its wedges and its border, equals the one built alone, bit for bit.
``points_in_coverage`` answers any set of (point, map) rows in one call and
alone applies the reach rule (no map holds a point beyond its largest radius
plus GEOM_EPS); the common borders of all station pairs take one such call
and stay stacked, pair by pair, in one table (``CommonBorders``).
``_slots_clear`` answers (tail, head, map) rows of member slots, numbered by
that call (``_members``), by every jump of R a segment crosses, from one
``_radius_steps`` call over the maps' stacked wedges. Both kernels find each
row's place among stacked per-map angles by one exact (map, angle) key search.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import GEOM_EPS, TWO_PI
from .scenario import BaseStation, CityMap, InvalidConfigError, RadioParams, Scenario

# Angular resolution and sector post-processing defaults (0.5 degree cells).
ANGULAR_STEP = TWO_PI / 720.0
RADIUS_MERGE_TOL = 2.0
MIN_SECTOR_RADIUS = 5.0
BORDER_SAMPLES = 64
# Claimed radii are shaved by this margin so boundary points keep a strictly
# positive SNR margin under the grazing-counts-as-blocked rule.
RADIUS_SAFETY = 0.01
# Pad, in rad, on each side of a building's subtended azimuth span, and the
# least guard around each critical azimuth (``_certified_cell_radii``).
AZIMUTH_GUARD = 1e-9
# (segment, jump) pairs that ``_slots_clear`` holds in memory at once.
JUMP_BATCH = 100_000


class LinkState(Enum):
    LOS = "los"
    NLOS = "nlos"


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


def _as_points(points_xy) -> np.ndarray:
    """Plan positions as an (n, 2) float array; an empty input gives (0, 2).

    ``np.atleast_2d`` alone turns an empty list into shape (1, 0).
    """
    xy = np.atleast_2d(np.asarray(points_xy, dtype=float))
    return xy.reshape(0, 2) if xy.size == 0 else xy


_Blockers = namedtuple("_Blockers", "x0 x1 y0 y1 factor crit_az crit_d station")


def _blockers(centers, city: CityMap, params: RadioParams, reach: float) -> _Blockers:
    """The buildings that can block a link from each station within ``reach``.

    A link is lowest over a footprint where it enters it, and it cannot be
    blocked before it gets there, so a roof first blocks at factor * t0, with
    t0 the ray's entry distance and factor = max((h - h_g) / (roof + GEOM_EPS
    - h_g), 1). ``centers`` holds one station's plan position or a (K, 2)
    array of them. Each blocker is one (station, building) pair, ordered by
    station, then building: the footprint extents minus that station's
    coordinates, the factor, the station's index, and the azimuths in
    [0, 2*pi) and distances of the footprint's four corners and nearest point,
    as the rows of (5, nb) arrays.
    """
    arrs = city.building_arrays()
    xy = np.reshape(centers, (-1, 2))
    cx, cy = xy[:, :1], xy[:, 1:]
    rise = arrs.h + GEOM_EPS - params.bs_height
    tall = np.flatnonzero(rise > 0.0)
    factor = np.maximum((params.uav_altitude - params.bs_height) / rise[tall], 1.0)
    x0, x1 = arrs.x0[tall] - cx, arrs.x1[tall] - cx
    y0, y1 = arrs.y0[tall] - cy, arrs.y1[tall] - cy
    near_x, near_y = np.clip(0.0, x0, x1), np.clip(0.0, y0, y1)
    keep = np.flatnonzero(factor * np.hypot(near_x, near_y) <= reach)
    x0, x1, y0, y1, near_x, near_y = (a.ravel()[keep] for a in (x0, x1, y0, y1, near_x, near_y))
    station, b = np.divmod(keep, tall.size)
    crit_x = np.stack([x0, x0, x1, x1, near_x])
    crit_y = np.stack([y0, y1, y0, y1, near_y])
    crit_az = np.arctan2(crit_y, crit_x)
    crit_az = np.where(crit_az < 0.0, crit_az + TWO_PI, crit_az)
    return _Blockers(x0, x1, y0, y1, factor[b], crit_az, np.hypot(crit_x, crit_y), station)


def _first_blocking_radius(az: np.ndarray, blk: _Blockers, stations: int = 1) -> np.ndarray:
    """min over buildings b of factor_b * t0_b(theta) at sorted azimuths in [0, 2*pi].

    t0_b(theta) is the entry distance of the ray from the station at azimuth
    theta into b's footprint, +inf where the ray misses it. It is the slab
    clip along (cos theta, sin theta): per axis, the interval of t where the
    ray's coordinate lies in the footprint's closed extent (all t or none for
    a zero direction component); t0 is the larger lower end, clamped at 0,
    where it does not pass the smaller upper end.
    The link to the point at polar (theta, r) is blocked when r >= the
    returned value. Each building is evaluated only at the azimuths
    inside its subtended span, padded by AZIMUTH_GUARD (every azimuth when its
    closed footprint holds the station): the spans and their ``searchsorted``
    bounds come from one pass of array operations, and all the (azimuth,
    building) pairs are expanded in one pass.

    The blockers may belong to several stations, all swept at the same
    azimuths: the result is flat, station by station, and a run of pairs of
    station s indexes azimuth copy s, so stacking stations adds no work per
    pair.
    """
    m = az.size
    out = np.full(stations * m, np.inf)
    nb = blk.factor.size
    if m == 0 or nb == 0:
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
    # azimuth index, in the owner's copy, minus pair index, per run
    offset = first + blk.station[owner] * m - (np.cumsum(count) - count)

    cos_a, sin_a = np.cos(az), np.sin(az)
    # A zero direction (sin at azimuth 0) leaves its slab unbounded when the
    # station lies inside it and empty otherwise.
    zero_x, zero_y = cos_a == 0.0, sin_a == 0.0
    cos_a[zero_x], sin_a[zero_y] = 1.0, 1.0
    if stations > 1:
        cos_a, sin_a, zero_x, zero_y = (np.tile(a, stations) for a in (cos_a, sin_a, zero_x, zero_y))
    inside_x = (blk.x0 <= 0.0) & (blk.x1 >= 0.0)
    inside_y = (blk.y0 <= 0.0) & (blk.y1 >= 0.0)

    b = np.repeat(owner, count)
    i = np.arange(b.size) + np.repeat(offset, count)
    slabs = []
    for lo_b, hi_b, d, zero, inside in ((blk.x0, blk.x1, cos_a, zero_x, inside_x),
                                        (blk.y0, blk.y1, sin_a, zero_y, inside_y)):
        di = d[i]
        t1, t2 = lo_b[b] / di, hi_b[b] / di
        tmin, tmax = np.minimum(t1, t2), np.maximum(t1, t2)
        if zero.any():
            z = np.flatnonzero(zero[i])
            ins = inside[b[z]]
            tmin[z] = np.where(ins, -np.inf, np.inf)
            tmax[z] = np.where(ins, np.inf, -np.inf)
        slabs.append((tmin, tmax))
    (txmin, txmax), (tymin, tymax) = slabs
    t_lo = np.maximum(np.maximum(txmin, tymin), 0.0)
    t_hi = np.minimum(txmax, tymax)
    np.minimum.at(out, i, np.where(t_lo <= t_hi, blk.factor[b] * t_lo, np.inf))
    return out


def fan_blocked(center, points_xy: np.ndarray, city: CityMap, params: RadioParams) -> np.ndarray:
    """Blocking test for a fan of station-to-point segments, one shared station.

    The segment to a point at polar (az, r) around the station projection is
    blocked iff r >= ``_first_blocking_radius`` at az. The slab clip runs
    along (cos az, sin az), not along the point-to-station difference, so a
    segment that touches a footprint only at a corner at an end of its
    subtended span may round either way; every other segment is decided
    exactly.
    """
    xy = _as_points(points_xy)
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

    The points are sorted by x once, and each station works on the slice of
    points within its larger disk radius r of its own x, padded by
    1e-9 * (r + |bx| + 1). A point in a disk has fl(dx**2) <= d2 <= r**2, so
    its |x - bx| exceeds r by a few ulps at most, far inside the pad. On its
    slice each station marks the points in its NLoS disk covered and keeps a
    mask of those in its LoS disk. The stations then run the fan test in
    order of falling LoS count, each on its LoS points not yet covered. The
    distances, the station order and the points each fan test sees are those
    of the full (points x stations) distance matrix, so the mask is too, but
    that matrix is never built: beyond a few length-n arrays no temporary
    outgrows one station's slice, and the LoS masks kept between the passes
    take one byte per (station, slice point) pair, an eighth of the
    matrix's float distances at most.
    """
    params = scenario.radio
    xy = _as_points(points_xy)
    n = xy.shape[0]
    covered = np.zeros(n, dtype=bool)
    if not scenario.base_stations:
        return covered
    d_los_sq = coverage_disk_radius_sq(params, LinkState.LOS)
    d_nlos_sq = coverage_disk_radius_sq(params, LinkState.NLOS)

    order = np.argsort(xy[:, 0], kind="stable")  # keeps a lattice's column order
    xs, ys = xy[order, 0], xy[order, 1]
    bs_xy = np.array([bs.xy for bs in scenario.base_stations])
    r = math.sqrt(max(d_los_sq, d_nlos_sq))
    reach = r + 1e-9 * (r + np.abs(bs_xy[:, 0]) + 1.0)
    first = np.searchsorted(xs, bs_xy[:, 0] - reach, side="left").tolist()
    last = np.searchsorted(xs, bs_xy[:, 0] + reach, side="right").tolist()

    hit = np.zeros(n, dtype=bool)  # covered, in x order
    los = []
    for (bx, by), a, b in zip(bs_xy.tolist(), first, last):
        d2 = (xs[a:b] - bx) ** 2 + (ys[a:b] - by) ** 2
        hit[a:b] |= d2 <= d_nlos_sq
        los.append(d2 <= d_los_sq)
    candidates = np.array([np.count_nonzero(m) for m in los])

    for k in np.argsort(-candidates):
        if candidates[k] == 0:
            continue
        a = first[k]
        pend = a + np.flatnonzero(los[k] & ~hit[a:last[k]])
        if pend.size == 0:
            continue
        bs = scenario.base_stations[k]
        blocked = fan_blocked(bs.xy, np.column_stack([xs[pend], ys[pend]]), scenario.city, params)
        hit[pend[~blocked]] = True
    covered[order] = hit
    return covered


# ---------------------------------------------------------------------------
# coverage maps
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CoverageMap:
    """One station's coverage as wedges around its projection, plus its border.

    Wedge i spans the azimuths [starts[i], ends[i]] out to radius radii[i].
    The wedges are sorted and disjoint: each starts no earlier than the one
    before it, and where that one ends or later, up to 1e-12 rad of rounding.
    None wraps past 2*pi, and each spans at most pi, so each is convex.
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
            (self.starts[1:] >= self.starts[:-1], "wedge starts must be nondecreasing"),
        ):
            if not ok.all():
                raise ValueError(f"{what} (station {self.bs_id})")

    @property
    def border_count(self) -> int:
        return int(self.border_points.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.radii.size == 0

    @property
    def max_radius(self) -> float:
        if self.is_empty:
            return 0.0
        return float(self.radii.max())


def _keys(which, angles) -> np.ndarray:
    """Exact (map, angle) keys: real part ``which``, imaginary part ``angles``,
    set without arithmetic, so bit for bit. numpy orders complex numbers by
    real part, then imaginary part, so the keys of each map's nondecreasing
    angles, stacked map by map, are sorted for ``np.searchsorted``."""
    key = np.empty(np.shape(angles), dtype=complex)
    key.real, key.imag = which, angles
    return key


def points_in_coverage(points_xy: np.ndarray, maps, point=None, which=None) -> np.ndarray:
    """Membership of the points xy[point[i]] in the closed wedges of
    maps[which[i]], with slack, one row each. With one map and no ``point``
    or ``which``, every point (n, 2) against that map.

    The radial slack is GEOM_EPS; the angular slack is GEOM_EPS of arc length
    at the point's own radius, so the tolerance is uniform in meters. Points
    within GEOM_EPS of the apex belong to any map with a wedge of positive
    radius. So no point farther than max_radius + GEOM_EPS from the apex is
    in a map (rounding is monotone, so that holds for the rounded sums too),
    and only the rows within that reach go on. The wedges are sorted and
    disjoint, so only the wedge bracketing a point's azimuth and its two
    neighbours (for the slack and the 2*pi wrap) can hold it. The bracket is
    the count of the map's starts <= the azimuth, taken for every row at once
    by one ``np.searchsorted`` (side="right") of the row's (map, azimuth) key
    among the (map, start) keys of the stacked starts.
    """
    xy = _as_points(points_xy)
    if isinstance(maps, CoverageMap):
        maps, point, which = [maps], np.arange(xy.shape[0]), np.zeros(xy.shape[0], dtype=int)
    point, which = np.asarray(point, dtype=int), np.asarray(which, dtype=int)
    counts = np.array([cov.radii.size for cov in maps], dtype=int)
    centers = np.array([cov.center for cov in maps], dtype=float).reshape(-1, 2)
    max_radius = np.array([cov.max_radius for cov in maps])
    dx = xy[point, 0] - centers[which, 0]
    dy = xy[point, 1] - centers[which, 1]
    r = np.hypot(dx, dy)
    inside = np.zeros(point.size, dtype=bool)
    rows = np.flatnonzero((r <= max_radius[which] + GEOM_EPS) & (counts[which] > 0))
    if rows.size == 0:
        return inside
    dx, dy, r, which = dx[rows], dy[rows], r[rows], which[rows]
    starts = np.concatenate([cov.starts for cov in maps])
    spans = np.concatenate([cov.ends for cov in maps]) - starts
    radii = np.concatenate([cov.radii for cov in maps])
    first = np.cumsum(counts) - counts
    az = np.arctan2(dy, dx)
    az = np.where(az < 0.0, az + TWO_PI, az)
    ang_tol = GEOM_EPS / np.maximum(r, GEOM_EPS)

    keys = _keys(np.repeat(np.arange(len(maps)), counts), starts)
    idx = np.searchsorted(keys, _keys(which, az), side="right") - first[which] - 1
    hit = (r <= GEOM_EPS) & (max_radius[which] > 0.0)
    for off in (-1, 0, 1):
        j = first[which] + (idx + off) % counts[which]
        delta = (az - starts[j]) % TWO_PI
        ok = (delta <= spans[j] + ang_tol) | (delta >= TWO_PI - ang_tol)
        hit |= ok & (r <= radii[j] + GEOM_EPS)
    inside[rows] = hit
    return inside


def distance_to_coverage(p, cov: CoverageMap) -> float:
    """Distance from p to the closed wedges of ``cov``, all in one array pass:
    0 within GEOM_EPS of the apex (for a positive radius), r - radius or 0
    for a wedge whose span holds p's azimuth, else to its nearer radial edge.
    """
    if cov.is_empty:
        return math.inf
    dx, dy = p[0] - cov.center[0], p[1] - cov.center[1]
    r = math.hypot(dx, dy)
    if r <= GEOM_EPS:
        return 0.0 if cov.max_radius > 0.0 else r
    az = math.atan2(dy, dx) % TWO_PI
    in_span = (az - cov.starts) % TWO_PI <= cov.ends - cov.starts
    edges = np.stack([cov.starts, cov.ends])
    ux, uy = np.cos(edges), np.sin(edges)
    t = np.clip(dx * ux + dy * uy, 0.0, cov.radii)
    to_edge = np.hypot(dx - t * ux, dy - t * uy).min(axis=0)
    return float(np.where(in_span, np.maximum(r - cov.radii, 0.0), to_edge).min())


def _certified_cell_radii(centers, city: CityMap, params: RadioParams, n_cells: int) -> np.ndarray:
    """Infimum of the azimuth coverage radius over each angular cell and the
    slack past its edges, one row per station of ``centers`` (K, 2).

    Along one azimuth the first blocking radius of building b is
    factor_b * t0_b(theta), with t0 the ray's entry distance into the
    footprint. Over an azimuth interval t0 is least at an end, a footprint
    corner or the nearest point (the critical points, at distance crit_d), so
    a cell takes its edges' values and those of the critical points near it:
    one at distance d counts for every cell within g(d) = max(AZIMUTH_GUARD,
    asin(GEOM_EPS / d)) rad of it, or every cell when d <= GEOM_EPS. Rounding
    is monotone, so scaling by the factor before or after the minimum gives
    the same bits.

    Why the slack is safe: point membership (``points_in_coverage``) claims
    p = (r, phi) up to GEOM_EPS / r rad past a wedge's edge e (a cell edge,
    unless the next wedge, of equal radius, covers phi), segment membership
    (``_slots_clear``) up to GEOM_EPS from e's ray: delta = phi - e <=
    asin(GEOM_EPS / r), r <= cert_c - RADIUS_SAFETY + GEOM_EPS for the wedge's
    cell c at e, and r > r_nlos, or p is covered. Let building b block p,
    entering at q: factor * |q| <= r. Points x between the rays e and phi with
    |x| <= |q| lie within |q| sin(delta) <= GEOM_EPS of e's line, so within
    g(|x|) of e. Take x*, the nearest such point of the footprint. (a) On e's
    ray, c's edge value is <= factor * |x*| <= r. (b) A critical point counts
    for c with value <= r. (c) Else x* = q lies inside a face L. If L is
    parallel to e, it passes within GEOM_EPS of the station, and its foot or
    the corner toward it is a case-(b) point. Else L meets e's ray at gamma >=
    pi / (2 n_cells), faces being axis-aligned; along L toward e, e's ray or a
    corner comes within |q| (1 + delta cot gamma) of the station, within
    GEOM_EPS of e's line, so cert_c <= r + n_cells * GEOM_EPS. Each case
    contradicts the bound on r while n_cells < (RADIUS_SAFETY - GEOM_EPS) /
    GEOM_EPS, about 10^4 (720 by default). Rounded azimuths are off by ulps,
    far inside AZIMUTH_GUARD.
    """
    centers = np.reshape(np.asarray(centers, dtype=float), (-1, 2))
    k = centers.shape[0]
    r_los = math.sqrt(coverage_disk_radius_sq(params, LinkState.LOS))
    r_nlos = math.sqrt(coverage_disk_radius_sq(params, LinkState.NLOS))
    if r_los <= 0.0:
        return np.zeros((k, n_cells))
    blk = _blockers(centers, city, params, r_los)
    at_edges = _first_blocking_radius(np.linspace(0.0, TWO_PI, n_cells + 1), blk, k)
    at_edges = at_edges.reshape(k, n_cells + 1)
    first_block = np.minimum(at_edges[:, :-1], at_edges[:, 1:])

    step = TWO_PI / n_cells
    crit_az = blk.crit_az.ravel()
    crit_d = blk.crit_d.ravel()
    guard = np.full(crit_d.size, math.pi)
    far = crit_d > GEOM_EPS
    guard[far] = np.maximum(AZIMUTH_GUARD, np.arcsin(GEOM_EPS / crit_d[far]))
    # the cells [i * step, (i + 1) * step] that [az - guard, az + guard] meets
    first = np.ceil((crit_az - guard) / step).astype(int) - 1
    count = np.minimum(np.floor((crit_az + guard) / step).astype(int) - first + 1, n_cells)
    cells = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    rows = np.repeat(np.tile(blk.station, 5), count)
    crit_block = np.repeat((blk.factor * blk.crit_d).ravel(), count)
    np.minimum.at(first_block, (rows, cells % n_cells), crit_block)
    return np.minimum(r_los, np.maximum(r_nlos, first_block))


def _cells_to_wedges(radii: np.ndarray, merge_tol: float, min_radius: float):
    """Group adjacent cells of similar radius, split spans over pi, drop slivers.

    ``radii`` holds one row of cell radii per map. A group's radius is the
    minimum over its cells, so the claimed region never exceeds any
    constituent cell's certified radius. The greedy merge grows a group cell
    by cell while max - min stays below ``merge_tol``. A cell equal to one
    already in the group cannot widen max - min, so with a positive tolerance
    the merge takes a run of equal cells whole or breaks at its first cell,
    and it steps over such runs; a tolerance <= 0 breaks at every cell.

    Whether runs r..s may form a group depends only on their max and min, and
    a longer range is never narrower, so the longest group from every run at
    once is found by binary lifting over range min/max tables. The groups the
    greedy merge makes are then the runs reached from the first run by
    following group ends, collected by pointer doubling; a group never
    crosses the end of its map, so the chain passes from each map to the
    next. Returns the wedges' start azimuths, end azimuths and radii, stacked
    map by map, and each map's wedge count.
    """
    k, n = radii.shape
    new_run = np.ones((k, n), dtype=bool)
    if merge_tol > 0.0:
        new_run[:, 1:] = radii[:, 1:] != radii[:, :-1]
    owner, cell = np.nonzero(new_run)  # run r: cells cell[r]... of map owner[r]
    values = radii[owner, cell]
    total = values.size
    per_map = np.bincount(owner, minlength=k)
    stop = np.cumsum(per_map)[owner]  # one past the last run of run r's map

    # Level j: min and max of runs i..i + 2**j - 1, padded past the last run.
    # Levels stop at the first whose windows are all too wide or past the
    # end of their map: no group is that long.
    pad = 1 << int(per_map.max()).bit_length()
    mins = [np.concatenate([values, np.full(pad, np.inf)])]
    maxs = [np.concatenate([values, np.full(pad, -np.inf)])]
    fit = np.arange(total)  # the runs that start a group of 2**j runs or more
    while True:
        h = 1 << (len(mins) - 1)
        fit = fit[(fit + h <= stop[fit]) & ~(maxs[-1][fit] - mins[-1][fit] >= merge_tol)]
        if fit.size == 0:
            break
        mins.append(np.minimum(mins[-1][:-h], mins[-1][h:]))
        maxs.append(np.maximum(maxs[-1][:-h], maxs[-1][h:]))
    lo, hi = values.copy(), values.copy()
    end = np.arange(1, total + 1)  # the group from run r holds runs r..end[r] - 1
    for j in reversed(range(len(mins) - 1)):
        nlo, nhi = np.minimum(lo, mins[j][end]), np.maximum(hi, maxs[j][end])
        grow = (end + (1 << j) <= stop) & ~(nhi - nlo >= merge_tol)
        np.copyto(lo, nlo, where=grow)
        np.copyto(hi, nhi, where=grow)
        end += grow * (1 << j)

    # The greedy groups start at run 0 and where each group ends. After pass
    # j, jump[r] is 2**j groups on from r, so each pass doubles the heads.
    heads, jump = np.zeros(1, dtype=int), np.append(end, total)
    while True:
        more = jump[heads]
        heads = np.concatenate([heads, more[more < total]])
        if more[-1] >= total:
            break
        jump = jump[jump]
    heads = heads[lo[heads] >= min_radius]
    tail = end[heads]

    edges = np.linspace(0.0, TWO_PI, n + 1)
    a0 = edges[cell[heads]]
    span = edges[np.where(tail < stop[heads], cell[np.minimum(tail, total - 1)], n)] - a0
    pieces = np.maximum(np.ceil(span / math.pi - 1e-12), 1.0).astype(int)
    group = np.repeat(np.arange(heads.size), pieces)
    p = np.arange(group.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    a0, span, pieces = a0[group], span[group], pieces[group]
    starts = a0 + span * p / pieces
    ends = np.minimum(a0 + span * (p + 1) / pieces, TWO_PI)
    return starts, ends, lo[heads][group], np.bincount(owner[heads][group], minlength=k)


def _ring(counts):
    """The first and last index of each stacked item's group, for items
    stacked in groups of ``counts``."""
    counts = np.asarray(counts, dtype=int)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return first, first + np.repeat(counts, counts) - 1


def _wedge_ring(starts: np.ndarray, ends: np.ndarray, counts):
    """Each stacked wedge's successor and predecessor around its own map, and
    whether an azimuth gap of more than 1e-12 rad follows it; a map's last
    wedge is followed by its first, 2*pi on."""
    first, last = _ring(counts)
    i = np.arange(starts.size)
    nxt = np.where(i == last, first, i + 1)
    prv = np.where(i == first, last, i - 1)
    gap = np.where(i == last, starts[nxt] + TWO_PI, starts[nxt]) - ends > 1e-12
    return nxt, prv, gap


def _radius_steps(starts: np.ndarray, ends: np.ndarray, radii: np.ndarray, counts):
    """The wedge unions of several maps, stacked ``counts`` wedges per map,
    as step functions R(theta), by their jumps.

    A map's union is {r <= R(theta)}, with R a wedge's radius across its
    span and 0 in the gaps between wedges. Returns the sorted angles in
    [0, 2*pi) where R changes, with R just before and just after each of
    them, stacked map by map, and each map's jump count. Where a wedge starts
    within 1e-12 rad of the end of the one before, the two edges are one
    angle, the smaller of the two. Each map's jumps depend only on its own
    wedges, so stacking maps changes no bit of them.
    """
    _, prv, gap = _wedge_ring(starts, ends, counts)
    joined = ~gap  # the next wedge starts where this one ends, up to rounding
    first = np.where(joined[prv], np.minimum(starts, ends[prv] % TWO_PI), starts)
    # pieces of R: each wedge, then the gap after it where there is one
    keep = np.column_stack([np.ones_like(gap), gap]).ravel()
    angles = np.column_stack([first, ends]).ravel()[keep]
    piece = np.column_stack([radii, np.zeros_like(radii)]).ravel()[keep]
    owner = np.repeat(np.arange(len(counts)), 2 * np.asarray(counts, dtype=int))[keep]
    head, tail = _ring(np.bincount(owner, minlength=len(counts)))
    i = np.arange(angles.size)
    prev = np.where(i == head, tail, i - 1)  # the piece before, around the map
    # a gap after a wedge ending at 2*pi starts at angle 0: it goes first
    order = np.where(angles[tail] >= TWO_PI, prev, i)
    angles, piece = angles[order] % TWO_PI, piece[order]
    before = piece[prev]
    jump = piece != before
    return angles[jump], before[jump], piece[jump], np.bincount(owner[jump], minlength=len(counts))


# ---------------------------------------------------------------------------
# segment membership
# ---------------------------------------------------------------------------


def _jump_table(covs: Sequence[CoverageMap]):
    """The jumps of R for several maps, from one ``_radius_steps`` call on
    their stacked wedges, sorted by their (map, angle) keys (``_keys``).

    Each map's jumps are listed twice, the second time 2*pi on, so that a
    swept azimuth range that wraps past 2*pi is one slice. Returns (keys,
    cos, sin, before, after), with (R + GEOM_EPS)**2 before and after each
    jump, membership's squared reach; with no maps, no jumps.
    """
    wedges = (np.concatenate([np.empty(0), *(getattr(cov, name) for cov in covs)])
              for name in ("starts", "ends", "radii"))
    *steps, counts = _radius_steps(*wedges, [cov.radii.size for cov in covs])
    owner = np.tile(np.repeat(np.arange(counts.size), counts), 2)
    pick = np.argsort(owner, kind="stable")  # each map's jumps, then the same again
    jumps, before, after = (np.tile(a, 2)[pick] for a in steps)
    keys = _keys(owner[pick], np.where(pick < counts.sum(), jumps, jumps + TWO_PI))
    return keys, np.cos(jumps), np.sin(jumps), (before + GEOM_EPS) ** 2, (after + GEOM_EPS) ** 2


# Which nodes lie in which maps, for ``_slots_clear``: slot (maps, nodes) holds
# each (node, map) pair's slot, or -1; node, x, y, az and r hold each slot's
# node and offset, azimuth and radius about its apex; table, ``_jump_table``.
_Members = namedtuple("_Members", "slot node x y az r table")


def _members(xy: np.ndarray, covs: Sequence[CoverageMap], node: np.ndarray,
             which: np.ndarray) -> _Members:
    """Slots of the nodes xy[node[i]] that lie in maps covs[which[i]].

    The (node, map) pairs are sorted by map, then node, with no repeats, so
    each map's members take consecutive slots, and each slot's polar offset
    is computed once however many segments end at it.
    """
    inside = points_in_coverage(xy, covs, node, which)
    node, which = node[inside], which[inside]
    slot = np.full((len(covs), xy.shape[0]), -1)
    slot[which, node] = np.arange(node.size)
    centers = np.array([cov.center for cov in covs], dtype=float).reshape(-1, 2)
    x, y = (xy[node, i] - centers[which, i] for i in (0, 1))
    return _Members(slot, node, x, y, np.arctan2(y, x), np.hypot(x, y), _jump_table(covs))


def _slots_clear(xy: np.ndarray, members: _Members, tail: np.ndarray, head: np.ndarray,
                 which: np.ndarray) -> np.ndarray:
    """True where the segment from the node of slot tail[i] to that of slot
    head[i] lies in map which[i]; both must be slots of that map.

    Along a segment, the distance from the apex, r(theta) = h / cos(theta -
    phi), is convex in the azimuth, so on each piece of the step function R it
    peaks at an end of the piece: the segment is inside iff it is inside R on
    both sides of every jump it crosses. Points within GEOM_EPS of a jump's
    ray count as covered by either side, as in ``points_in_coverage``, so
    each side is checked where the segment leaves that band. A row's jumps
    are the slice of ``_jump_table`` between the keys of its padded sweep.
    """
    keys, cos_j, sin_j, before, after = members.table
    u, v = members.node[tail], members.node[head]
    dx, dy = xy[:, 0][v] - xy[:, 0][u], xy[:, 1][v] - xy[:, 1][u]
    ax, ay, bx, by = members.x[tail], members.y[tail], members.x[head], members.y[head]
    ta, tb, ra, rb = members.az[tail], members.az[head], members.r[tail], members.r[head]
    cross = ax * by - ay * bx
    # a segment in line with the apex lies along its endpoints' rays
    radial = np.abs(cross) <= GEOM_EPS * np.hypot(dx, dy)
    ccw = cross >= 0.0  # the azimuth grows from tail to head
    lo = np.where(ccw, ta, tb) % TWO_PI
    width = (np.where(ccw, tb, ta) - lo) % TWO_PI
    width[width > math.pi] = 0.0  # a rounded zero sweep
    # an endpoint at radius r reaches the GEOM_EPS band of jumps up to
    # GEOM_EPS / r outside the swept range
    pad = np.minimum(GEOM_EPS / np.maximum(np.minimum(ra, rb), GEOM_EPS), 0.5) + 1e-12
    lo = np.where(lo < pad, lo + TWO_PI, lo)
    i0 = np.searchsorted(keys, _keys(which, lo - pad), side="left")
    count = np.where(radial, 0, np.searchsorted(keys, _keys(which, lo + width + pad),
                                                side="right") - i0)

    ok = np.ones(tail.size, dtype=bool)
    rows = np.flatnonzero(count)
    if rows.size == 0:
        return ok
    ends = np.cumsum(count[rows])
    batches = [rows] if ends[-1] <= JUMP_BATCH else np.split(
        rows, np.searchsorted(ends, np.arange(JUMP_BATCH, ends[-1], JUMP_BATCH)))
    for seg in batches:
        n = count[seg]
        pair = np.repeat(seg, n)
        k = np.repeat(i0[seg] - np.cumsum(n) + n, n) + np.arange(pair.size)
        px, py, qx, qy = ax[pair], ay[pair], dx[pair], dy[pair]
        c, s = cos_j[k], sin_j[k]
        # signed distance of the tail from the jump's line, > 0 after the jump,
        # and its change along the segment; the side before negates both, exactly
        h0 = c * py - s * px
        dh = c * qy - s * qx
        step = np.where(dh == 0.0, 1.0, dh)
        h1 = h0 + dh
        low, high = np.minimum(h0, h1), np.maximum(h0, h1)
        leaves = (high > GEOM_EPS) & (low <= GEOM_EPS)
        t = np.where(leaves, (GEOM_EPS - h0) / step, 0.0)
        bad = leaves & ((px + t * qx) ** 2 + (py + t * qy) ** 2 > after[k])
        leaves = (low < -GEOM_EPS) & (high >= -GEOM_EPS)
        t = np.where(leaves, (GEOM_EPS + h0) / step, 0.0)
        bad |= leaves & ((px - t * qx) ** 2 + (py - t * qy) ** 2 > before[k])
        ok[pair[bad]] = False
    return ok


def _segments_clear(xy: np.ndarray, members: _Members, u: np.ndarray, v: np.ndarray,
                    which: np.ndarray) -> np.ndarray:
    """True where the segment xy[u[i]]-xy[v[i]] lies in map which[i]: both
    ends are slots of that map, and ``_slots_clear`` passes them."""
    # flat indices into the (maps, nodes) table index faster than 2-D ones
    offset = which * members.slot.shape[1]
    tail, head = members.slot.ravel()[offset + u], members.slot.ravel()[offset + v]
    ok = (tail >= 0) & (head >= 0)
    ok[ok] = _slots_clear(xy, members, tail[ok], head[ok], which[ok])
    return ok


def segments_in_coverage(p0: np.ndarray, p1: np.ndarray, cov: CoverageMap) -> np.ndarray:
    """Batched exact test: does segment p0[i]-p1[i] lie in the wedge union?

    The union is {r <= R(theta)} around the station projection, with R the
    step function of the wedges (``_radius_steps``); a segment lies in it iff
    both endpoints do and it crosses every jump of R inside R
    (``_slots_clear``).
    """
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    xy = np.vstack([p0, np.atleast_2d(np.asarray(p1, dtype=float))])
    n = p0.shape[0]
    ends = np.arange(2 * n)
    members = _members(xy, [cov], ends, np.zeros_like(ends))
    return _segments_clear(xy, members, ends[:n], ends[n:], np.zeros(n, dtype=int))


def line_in_coverage(x, y, cov: CoverageMap) -> bool:
    """True iff the whole segment xy lies in the wedge union of one map."""
    return bool(segments_in_coverage(x, y, cov)[0])


def check_map_settings(angular_step: float, border_samples: int) -> int:
    """The number of azimuth cells per map; raises InvalidConfigError first
    when ``angular_step`` is not a finite value > 0 that divides 2*pi evenly
    or ``border_samples`` < 1."""
    n_cells = round(TWO_PI / angular_step) if 0.0 < angular_step < math.inf else 0
    if n_cells < 2 or abs(n_cells * angular_step - TWO_PI) > 1e-9:
        raise InvalidConfigError(f"angular_step must evenly divide 2*pi: {angular_step}")
    if border_samples < 1:
        raise InvalidConfigError(f"border sample count must be >= 1: {border_samples}")
    return n_cells


def build_coverage_maps(
    stations,
    city: CityMap,
    params: RadioParams,
    angular_step: float = ANGULAR_STEP,
    border_samples: int = BORDER_SAMPLES,
) -> list[CoverageMap]:
    """Sectorized coverage maps of several stations, with discretized borders.

    Each step runs once over the stacked arrays of all the stations: the
    blocking sweep and certified cell radii, the cell merge and the border
    walk. Every map is the one the station gets when built alone, bit for bit.
    """
    n_cells = check_map_settings(angular_step, border_samples)
    stations = list(stations)
    if not stations:
        return []
    centers = np.array([bs.xy for bs in stations], dtype=float)
    radii = _certified_cell_radii(centers, city, params, n_cells)
    radii = np.maximum(radii - RADIUS_SAFETY, 0.0)
    *wedges, counts = _cells_to_wedges(radii, RADIUS_MERGE_TOL, MIN_SECTOR_RADIUS)
    border, drawn = _border_points(centers, *wedges, counts, border_samples)
    for a in (*wedges, border):
        a.flags.writeable = False  # each map holds views into these

    def split(arrays, sizes):
        ends = np.cumsum(sizes).tolist()
        return [tuple(a[i:j] for a in arrays) for i, j in zip([0, *ends], ends)]

    return [CoverageMap(bs.id, bs.xy, *wedge, border_points=points) for bs, wedge, (points,)
            in zip(stations, split(wedges, counts), split([border], drawn))]


def build_coverage_map(bs: BaseStation, city: CityMap, params: RadioParams,
                       **settings) -> CoverageMap:
    """Sectorized coverage map of one station, with a discretized border;
    ``settings`` are those of ``build_coverage_maps``."""
    return build_coverage_maps([bs], city, params, **settings)[0]


def _border_points(centers, starts: np.ndarray, ends: np.ndarray, radii: np.ndarray, counts,
                   q: int):
    """q points spaced uniformly by arc length along each map's boundary.

    The maps' wedges are stacked, ``counts`` per map, around the apexes
    ``centers`` (K, 2). Each boundary is walked from its first wedge's start,
    with three slots per wedge: its arc, then a radial wall out to the apex
    and a wall back in to the next wedge where an azimuth gap follows, or one
    wall between the two radii where the next wedge joins at a different
    radius. Point s lies on the first piece whose cumulative length exceeds
    s. ``np.cumsum`` adds in order, so those sums are the ones a
    piece-by-piece walk would reach; they and the perimeter are taken per
    map, as ``np.sum`` adds pairwise in an order set by the array's length.
    Returns the points, stacked map by map, and each map's point count: q,
    or 0 for a map with no wedges or a perimeter of length 0.
    """
    centers = np.reshape(np.asarray(centers, dtype=float), (-1, 2))
    k, m = centers.shape[0], radii.size
    nxt, _, gap = _wedge_ring(starts, ends, counts)
    next_start, next_radius = starts[nxt], radii[nxt]
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
    owner = np.repeat(np.arange(k), np.asarray(counts, dtype=int))[keep // 3]
    bounds = np.cumsum(np.bincount(owner, minlength=k)).tolist()

    cum = np.empty_like(lengths)
    drawn, targets, piece = [], [], []
    for i, (a, b) in enumerate(zip([0, *bounds[:-1]], bounds)):
        total = float(lengths[a:b].sum()) if b > a else 0.0
        if total <= 0.0:
            continue
        cum[a:b] = np.cumsum(lengths[a:b])
        t = np.arange(q) * (total / q)
        drawn.append(i)
        targets.append(t)
        piece.append(a + np.minimum(np.searchsorted(cum[a:b], t, side="right"), b - a - 1))
    if not drawn:
        return np.empty((0, 2)), np.zeros(k, dtype=int)
    at = np.repeat(drawn, q)
    targets, piece = np.concatenate(targets), np.concatenate(piece)
    first = np.array([0, *bounds[:-1]])[at]
    local = targets - np.where(piece > first, cum[piece - 1], 0.0)
    ang0, a, b, arc = angle[piece], r_from[piece], r_to[piece], is_arc[piece]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        along = np.where(b > 0.0, local / b, 0.0)
    rho = np.where(arc, b, a + np.copysign(local, b - a))
    phi = np.where(arc, ang0 + along, ang0)
    points = np.empty((at.size, 2))
    points[:, 0] = centers[at, 0] + rho * np.cos(phi)
    points[:, 1] = centers[at, 1] + rho * np.sin(phi)
    return points, np.bincount(at, minlength=k)


# Common borders: pair t, of station ids pairs[t], holds points[cuts[t]:cuts[t + 1]].
CommonBorders = namedtuple("CommonBorders", "points pairs cuts")


def _common_borders(maps: list[CoverageMap]) -> CommonBorders:
    """Common borders of every overlapping pair of maps, in (i, j) order, as one table.

    The pair (maps[i], maps[j]), i < j, keeps the border points of maps[i]
    inside maps[j], then those of maps[j] inside maps[i]; pairs that share no
    point are left out. The candidate pairs are those whose apexes lie within
    the sum of their largest radii plus GEOM_EPS, found by one (K, K) test.
    Every (border point, partner map) row of every candidate pair is then
    tested in one ``points_in_coverage`` call, pair by pair in order, and the
    points kept stay stacked in that order.
    """
    centers = np.array([cov.center for cov in maps], dtype=float).reshape(-1, 2)
    reach = np.array([cov.max_radius for cov in maps])
    full = np.array([not cov.is_empty for cov in maps], dtype=bool)
    d = centers[:, None] - centers[None, :]
    near = np.hypot(d[..., 0], d[..., 1]) <= reach[:, None] + reach[None, :] + GEOM_EPS
    near &= full[:, None] & full[None, :]
    i, j = np.nonzero(np.triu(near, 1))
    # block 2t tests the border points of maps[i[t]] in maps[j[t]], block 2t + 1 the reverse
    owner, other = np.column_stack([i, j]).ravel(), np.column_stack([j, i]).ravel()
    counts = np.array([cov.border_count for cov in maps], dtype=int)
    sizes = counts[owner]
    first = np.cumsum(counts) - counts
    point = np.repeat(first[owner] - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
    border = np.concatenate([np.empty((0, 2)), *(cov.border_points for cov in maps)])
    hit = points_in_coverage(border, maps, point, np.repeat(other, sizes))
    pair = np.repeat(np.arange(i.size), sizes[0::2] + sizes[1::2])[hit]
    kept = np.bincount(pair, minlength=i.size)
    some = kept > 0
    pairs = np.array([cov.bs_id for cov in maps], dtype=int)[owner.reshape(-1, 2)[some]]
    return CommonBorders(border[point[hit]], pairs, np.append(0, np.cumsum(kept[some])))


def common_border_points(cov_a: CoverageMap, cov_b: CoverageMap) -> np.ndarray:
    """Border points of either map that fall inside the other map's coverage,
    those of ``cov_a`` first, as an (N, 2) array."""
    return _common_borders([cov_a, cov_b]).points


def build_all_coverage(scenario: Scenario, angular_step: float = ANGULAR_STEP,
                       border_samples: int = BORDER_SAMPLES, *, built=None):
    """Coverage maps by station id, and the ``CommonBorders`` of every overlapping pair.

    ``built`` maps station ids to maps already made with the same settings;
    those are reused, and the other stations' maps are built in one batch.
    """
    built = built or {}
    todo = [bs for bs in scenario.base_stations if bs.id not in built]
    fresh = build_coverage_maps(todo, scenario.city, scenario.radio, angular_step, border_samples)
    made = {**built, **{cov.bs_id: cov for cov in fresh}}
    maps = {bs.id: made[bs.id] for bs in scenario.base_stations}
    return maps, _common_borders([maps[k] for k in sorted(maps)])


def save_coverage_dump(maps: dict[int, CoverageMap], path: str | Path) -> None:
    """Write per-station wedges ("sectors") and border points as JSON, for plotting."""
    payload = [
        {"bs_id": cov.bs_id, "center": list(cov.center),
         "sectors": [{"theta_start": s, "theta_end": e, "radius": r}
                     for s, e, r in zip(*(a.tolist() for a in (cov.starts, cov.ends, cov.radii)))],
         "border_points": cov.border_points.tolist()}
        for _, cov in sorted(maps.items())
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
