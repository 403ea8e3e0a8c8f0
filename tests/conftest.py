"""Shared scenarios and the suite's reference models.

The reference models are written out here so that the code they check shares
no kernel with them: the explicit SNR model, a generic per-segment slab test
for roof blocking, sector membership over every sector at once, one-map
wedge membership, the distance to a map wedge by wedge, and brute force or
unbatched copies of the planner's searches and map building.
"""

import math

import numpy as np

from skypath.coverage import CommonBorders
from skypath.geometry import GEOM_EPS, TWO_PI, BuildingArrays, Point3
from skypath.scenario import (
    BaseStation,
    CityMap,
    Mission,
    Scenario,
    default_radio_params,
)


def open_field_scenario(bs_xy_list, start_xy=(300.0, 1000.0), goal_xy=(1700.0, 1000.0),
                        width=2000.0, depth=2000.0):
    """Scenario without buildings: coverage areas are exact disks."""
    radio = default_radio_params()
    stations = tuple(
        BaseStation(id=i + 1, position=Point3(x, y, radio.bs_height))
        for i, (x, y) in enumerate(bs_xy_list)
    )
    return Scenario(
        city=CityMap(width=width, depth=depth, buildings=()),
        base_stations=stations,
        radio=radio,
        mission=Mission(
            start=Point3(start_xy[0], start_xy[1], radio.uav_altitude),
            goal=Point3(goal_xy[0], goal_xy[1], radio.uav_altitude),
        ),
    )


def small_city_scenario(seed=11, k=6, width=800.0, depth=800.0,
                        start_xy=None, goal_xy=None):
    """Compact city for tests that dense-sample coverage."""
    from skypath.scenario import generate_city, place_base_stations

    city = generate_city(width=width, depth=depth, seed=seed)
    radio = default_radio_params()
    stations = place_base_stations(city, k=k, h_g=radio.bs_height, seed=seed)
    start_xy = start_xy or (width * 0.15, depth * 0.15)
    goal_xy = goal_xy or (width * 0.85, depth * 0.85)
    return Scenario(
        city=city,
        base_stations=stations,
        radio=radio,
        mission=Mission(
            start=Point3(start_xy[0], start_xy[1], radio.uav_altitude),
            goal=Point3(goal_xy[0], goal_xy[1], radio.uav_altitude),
        ),
    )


def sampled_segment_clear(a: Point3, b: Point3, city: CityMap, step=0.01) -> bool:
    """Brute-force blocking oracle: walk the segment, test point over building."""
    length = a.distance_to(b)
    n = max(2, int(math.ceil(length / step)) + 1)
    lam = np.linspace(0.0, 1.0, n)
    xs = a.x + lam * (b.x - a.x)
    ys = a.y + lam * (b.y - a.y)
    zs = a.z + lam * (b.z - a.z)
    for bld in city.buildings:
        inside = (
            (xs >= bld.x_min) & (xs <= bld.x_max)
            & (ys >= bld.y_min) & (ys <= bld.y_max)
        )
        if inside.any() and (zs[inside] <= bld.height).any():
            return False
    return True


def march_coverage_radius(bs, theta, scenario, dr=0.5, r_cap=600.0):
    """Radial march oracle: largest sampled radius with every step covered."""
    cx, cy = bs.xy
    params = scenario.radio
    last = 0.0
    r = dr
    while r <= r_cap:
        p = np.array([[cx + r * math.cos(theta), cy + r * math.sin(theta)]])
        if snr_per_station(p, bs, params, scenario.city)[0] < params.snr_threshold:
            break
        last = r
        r += dr
    return last


def segments_clear_buildings(p0, p1, arrs: BuildingArrays) -> np.ndarray:
    """Reference blocking test for 3D segments (n, 3) against every building.

    True where the segment stays strictly above every footprint it crosses in
    plan view. The crossed parameter interval is the slab clip of the plan
    projection; altitude is linear in the parameter, so its minimum over the
    interval sits at an end. Clearance within GEOM_EPS counts as blocked.
    """
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    p0, p1 = np.broadcast_arrays(p0, p1)
    out = np.ones(p0.shape[0], dtype=bool)
    if len(arrs) == 0:
        return out
    chunk = max(1, 50_000 // len(arrs))  # (segment, building) pairs, cache-sized
    for s in range(0, p0.shape[0], chunk):
        a, d = p0[s:s + chunk], p1[s:s + chunk] - p0[s:s + chunk]
        txmin, txmax = _slab_interval_oracle(a[:, 0:1], d[:, 0:1], arrs.x0, arrs.x1)
        tymin, tymax = _slab_interval_oracle(a[:, 1:2], d[:, 1:2], arrs.y0, arrs.y1)
        t_lo = np.maximum(np.maximum(txmin, tymin), 0.0)
        t_hi = np.minimum(np.minimum(txmax, tymax), 1.0)
        z_min = np.minimum(a[:, 2:3] + d[:, 2:3] * t_lo, a[:, 2:3] + d[:, 2:3] * t_hi)
        blocked = (t_lo <= t_hi) & (z_min <= arrs.h + GEOM_EPS)
        out[s:s + chunk] = ~blocked.any(axis=1)
    return out


def snr_per_station(points_xy, bs, params, city) -> np.ndarray:
    """Linear SNR from one station at plan positions (n, 2) at the flight
    altitude, by explicit substitution into the LoS/NLoS pathloss model.

    The link is LoS iff the UAV-station segment clears every building;
    distances below 1 m are clamped (near-field guard).
    """
    xy = np.asarray(points_xy, dtype=float).reshape(-1, 2)
    n = xy.shape[0]
    if n == 0:
        return np.empty(0)
    bx, by = bs.xy
    # only buildings that reach into the links' bounding box can block them
    lo = np.minimum(xy.min(axis=0), [bx, by])
    hi = np.maximum(xy.max(axis=0), [bx, by])
    arrs = city.building_arrays()
    box = (arrs.x1 >= lo[0]) & (arrs.x0 <= hi[0]) & (arrs.y1 >= lo[1]) & (arrs.y0 <= hi[1])
    box &= arrs.h + GEOM_EPS >= min(params.uav_altitude, params.bs_height)
    near = BuildingArrays(())
    near.x0, near.x1, near.y0, near.y1, near.h = (
        a[box] for a in (arrs.x0, arrs.x1, arrs.y0, arrs.y1, arrs.h)
    )
    p0 = np.column_stack([xy, np.full(n, params.uav_altitude)])
    los = segments_clear_buildings(p0, np.array([bx, by, params.bs_height]), near)
    d = np.sqrt((xy[:, 0] - bx) ** 2 + (xy[:, 1] - by) ** 2
                + (params.uav_altitude - params.bs_height) ** 2)
    d = np.maximum(d, 1.0)
    alpha = np.where(los, params.alpha_los, params.alpha_nlos)
    beta = np.where(los, params.beta_los, params.beta_nlos)
    return params.tx_power_over_noise * beta * d ** (-alpha)


def direct_snr_max(points_xy, scenario) -> np.ndarray:
    """Best-station SNR at each point, evaluated by explicit substitution."""
    pts = np.atleast_2d(np.asarray(points_xy, dtype=float))
    best = np.zeros(pts.shape[0])
    for bs in scenario.base_stations:
        best = np.maximum(best, snr_per_station(pts, bs, scenario.radio, scenario.city))
    return best


def points_in_sectors(xy, center, starts, spans, radii) -> np.ndarray:
    """Reference membership of points (n, 2) in any of m sectors sharing one
    center, every point against every sector.

    Radial slack is GEOM_EPS; angular slack is GEOM_EPS of arc length at the
    point's own radius; the shared apex belongs to every sector of positive
    radius.
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
    return (in_ang & in_rad).any(axis=1) | ((r <= GEOM_EPS) & (radii > 0.0).any())


def map_membership_oracle(points_xy, cov) -> np.ndarray:
    """Reference for ``coverage.points_in_coverage``: membership of points
    (n, 2) in one map, by a ``searchsorted`` over that map's starts alone.

    The radial slack is GEOM_EPS; the angular slack is GEOM_EPS of arc length
    at the point's own radius; points within GEOM_EPS of the apex belong to a
    map with a wedge of positive radius. Only the wedge bracketing a point's
    azimuth and its two neighbours can hold it.
    """
    xy = np.atleast_2d(np.asarray(points_xy, dtype=float)).reshape(-1, 2)
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


def map_distance_oracle(p, cov) -> float:
    """Reference for ``coverage.distance_to_coverage``: the distance from p to
    each closed wedge of one map, one wedge at a time, and their minimum.

    Within GEOM_EPS of the apex a wedge of positive radius is at 0; a wedge
    whose span holds p's azimuth is r - radius away, or 0; from any other
    wedge the nearest point lies on one of its radial edges.
    """
    if cov.is_empty:
        return math.inf
    dx, dy = p[0] - cov.center[0], p[1] - cov.center[1]
    r = math.hypot(dx, dy)
    az = math.atan2(dy, dx)
    if az < 0.0:
        az += TWO_PI
    best = math.inf
    for start, end, radius in zip(cov.starts.tolist(), cov.ends.tolist(), cov.radii.tolist()):
        if r <= GEOM_EPS:
            best = min(best, 0.0 if radius > 0.0 else r)
        elif (az - start) % TWO_PI <= end - start:
            best = min(best, max(0.0, r - radius))
        else:
            for ang in (start, end):
                ux, uy = math.cos(ang), math.sin(ang)
                t = max(0.0, min(radius, dx * ux + dy * uy))
                best = min(best, math.hypot(dx - t * ux, dy - t * uy))
    return best


def assert_edges_covered(graph, scenario, step=0.5) -> None:
    """Sample every graph edge at most ``step`` apart and assert the best
    station meets the SNR threshold at each sample, by ``direct_snr_max``."""
    if not graph.edges:
        return
    ends = graph.xy[np.array([(u, v) for u, v, _ in graph.edges])]
    d = ends[:, 1] - ends[:, 0]
    counts = np.maximum(2, np.ceil(np.hypot(d[:, 0], d[:, 1]) / step).astype(int) + 1)
    edge = np.repeat(np.arange(counts.size), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    lam = (np.arange(edge.size) - first) / (counts[edge] - 1)
    pts = ends[edge, 0] + lam[:, None] * d[edge]
    bad = edge[direct_snr_max(pts, scenario) < scenario.radio.snr_threshold]
    assert bad.size == 0, f"edge {graph.edges[bad[0]][:2]} leaves coverage: {ends[bad[0]].tolist()}"


def sampled_line_in_coverage(a, b, cov, step=0.5) -> bool:
    """Dense-sampling reference for the segment-inside-coverage predicate."""
    length = math.hypot(b[0] - a[0], b[1] - a[1])
    n = max(2, int(math.ceil(length / step)) + 1)
    lam = np.linspace(0.0, 1.0, n)
    pts = np.outer(1 - lam, a) + np.outer(lam, b)
    return bool(map_membership_oracle(pts, cov).all())


def line_check_tie(a, b, cov, step=0.5) -> bool:
    """True when a line-check disagreement sits below the oracle's resolution.

    Ties: the uncovered excursion found at 4x finer sampling is shallower than
    the geometric tolerance scale or shorter than the oracle step.
    """
    length = math.hypot(b[0] - a[0], b[1] - a[1])
    n = max(2, int(math.ceil(length / step)) + 1)
    lam = np.linspace(0.0, 1.0, 4 * n)
    pts = np.outer(1 - lam, a) + np.outer(lam, b)
    outside = ~map_membership_oracle(pts, cov)
    if not outside.any():
        return True  # excursion below even 4x oracle resolution
    depth = max(map_distance_oracle(p, cov) for p in pts[outside])
    return depth < 1e-5 or outside.sum() * (length / (4 * n)) < step


def cell_merge_oracle(radii: np.ndarray, merge_tol: float, min_radius: float):
    """Cell-by-cell greedy merge of certified cell radii into wedges.

    Reference for ``coverage._cells_to_wedges``: adjacent cells join a group
    while max - min stays below ``merge_tol``, each group takes the minimum
    radius, spans over pi are split, and groups below ``min_radius`` are
    dropped. Returns start azimuths, end azimuths and radii as lists.
    """
    two_pi = 2.0 * math.pi
    n = radii.size
    edges = np.linspace(0.0, two_pi, n + 1).tolist()
    radii = radii.tolist()
    starts, ends, wedge_radii = [], [], []
    i = 0
    while i < n:
        lo = hi = radii[i]
        j = i + 1
        while j < n:
            nlo = min(lo, radii[j])
            nhi = max(hi, radii[j])
            if nhi - nlo >= merge_tol:
                break
            lo, hi = nlo, nhi
            j += 1
        if lo >= min_radius:
            a0, a1 = edges[i], edges[j]
            span = a1 - a0
            pieces = max(1, math.ceil(span / math.pi - 1e-12))
            for p in range(pieces):
                starts.append(a0 + span * p / pieces)
                ends.append(min(a0 + span * (p + 1) / pieces, two_pi))
                wedge_radii.append(lo)
        i = j
    return starts, ends, wedge_radii


def _boundary_items_oracle(cov):
    """Boundary walk of the wedge union: arcs plus radial walls at junctions."""
    two_pi = 2.0 * math.pi
    items = []
    starts, ends, radii = cov.starts.tolist(), cov.ends.tolist(), cov.radii.tolist()
    m = len(starts)
    for i in range(m):
        items.append(("arc", starts[i], ends[i] - starts[i], radii[i]))
        j = (i + 1) % m
        gap_end = starts[j] + (two_pi if j == 0 else 0.0)
        if gap_end - ends[i] > 1e-12:
            # Azimuth gap: the boundary drops to the apex and climbs back out.
            items.append(("wall", ends[i], radii[i], 0.0))
            items.append(("wall", starts[j], 0.0, radii[j]))
        elif abs(radii[i] - radii[j]) > 1e-12:
            items.append(("wall", starts[j], radii[i], radii[j]))
    return items


def border_walk_oracle(cov, q: int) -> np.ndarray:
    """Reference for ``coverage._border_points``: q points spaced uniformly
    by arc length, placed by walking the boundary items one at a time."""
    if cov.is_empty:
        return np.empty((0, 2))
    items = _boundary_items_oracle(cov)
    lengths = np.array(
        [it[3] * it[2] if it[0] == "arc" else abs(it[3] - it[2]) for it in items]
    )
    total = float(lengths.sum())
    if total <= 0.0:
        return np.empty((0, 2))

    cx, cy = cov.center
    targets = np.arange(q) * (total / q)
    points = np.empty((q, 2))
    item_idx = 0
    consumed = 0.0
    for pi, s_target in enumerate(targets):
        while s_target >= consumed + lengths[item_idx] and item_idx < len(items) - 1:
            consumed += lengths[item_idx]
            item_idx += 1
        local = s_target - consumed
        kind, ang0, a, b = items[item_idx]
        if kind == "arc":
            ang = ang0 + (local / b if b > 0.0 else 0.0)
            points[pi] = (cx + b * math.cos(ang), cy + b * math.sin(ang))
        else:
            r_here = a + math.copysign(local, b - a)
            points[pi] = (cx + r_here * math.cos(ang0), cy + r_here * math.sin(ang0))
    return points


def pairwise_common_borders(maps) -> dict:
    """Common-border points of each overlapping pair of maps, one pair at a time.

    Keys are (k, j) with k < j over the sorted station ids; each value holds
    k's border points inside j's map, then j's border points inside k's map.
    """
    ids = sorted(maps)
    out = {}
    for i, k in enumerate(ids):
        for j in ids[i + 1:]:
            a, b = maps[k], maps[j]
            if a.is_empty or b.is_empty:
                continue
            gap = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
            if gap > a.max_radius + b.max_radius + GEOM_EPS:
                continue
            pts = []
            if a.border_count:
                pts.append(a.border_points[map_membership_oracle(a.border_points, b)])
            if b.border_count:
                pts.append(b.border_points[map_membership_oracle(b.border_points, a)])
            points = np.vstack(pts) if pts else np.empty((0, 2))
            if points.shape[0]:
                out[(k, j)] = points
    return out


def border_table(commons: dict) -> CommonBorders:
    """The ``CommonBorders`` table of a {(a, b): points} dict, pairs in sorted order."""
    pairs = sorted(commons)
    points = [np.reshape(np.asarray(commons[pair], dtype=float), (-1, 2)) for pair in pairs]
    return CommonBorders(np.vstack([np.empty((0, 2)), *points]),
                         np.reshape(np.array(pairs, dtype=int), (-1, 2)),
                         np.cumsum([0, *(p.shape[0] for p in points)]))


def border_dict(table: CommonBorders) -> dict:
    """The {(a, b): points} dict of a ``CommonBorders`` table, in its pair order."""
    cuts = table.cuts.tolist()
    return {tuple(pair): table.points[lo:hi]
            for pair, lo, hi in zip(table.pairs.tolist(), cuts[:-1], cuts[1:])}


def _slab_interval_oracle(a, d, lo, hi):
    """Per-axis slab clip: parameter interval where a + t*d lies in [lo, hi]."""
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


def ray_rect_entry_oracle(ox, oy, ux, uy, x0, x1, y0, y1):
    """Entry distance of rays (n, 1) into rectangles (m,); +inf where a ray misses."""
    txmin, txmax = _slab_interval_oracle(ox, ux, x0, x1)
    tymin, tymax = _slab_interval_oracle(oy, uy, y0, y1)
    t_lo = np.maximum(np.maximum(txmin, tymin), 0.0)
    t_hi = np.minimum(txmax, tymax)
    return np.where(t_lo <= t_hi, t_lo, np.inf)


def certified_radii_oracle(center, city, params, n_cells):
    """Reference for ``coverage._certified_cell_radii``: a dense cell-edge x
    building matrix of ray entry distances, every building at every edge,
    and each critical point's distance in every cell within its guard.

    Each building's factor is climb / (roof + GEOM_EPS - h_g), without a floor
    of 1, which differs only for roofs within GEOM_EPS of the flight altitude.
    """
    from skypath.coverage import LinkState, coverage_disk_radius_sq

    two_pi = 2.0 * math.pi
    r_los = math.sqrt(coverage_disk_radius_sq(params, LinkState.LOS))
    r_nlos = math.sqrt(coverage_disk_radius_sq(params, LinkState.NLOS))
    if r_los <= 0.0:
        return np.zeros(n_cells)
    arrs = city.building_arrays()
    if len(arrs) == 0:
        return np.full(n_cells, r_los)
    cx, cy = center
    climb = params.uav_altitude - params.bs_height
    h_eff = arrs.h + GEOM_EPS
    ndx = np.maximum(np.maximum(arrs.x0 - cx, cx - arrs.x1), 0.0)
    ndy = np.maximum(np.maximum(arrs.y0 - cy, cy - arrs.y1), 0.0)
    d_rect = np.hypot(ndx, ndy)
    with np.errstate(divide="ignore"):
        factor = np.where(h_eff > params.bs_height, climb / (h_eff - params.bs_height), np.inf)
    keep = np.isfinite(factor) & (factor * d_rect < r_los)
    if not keep.any():
        return np.full(n_cells, r_los)
    x0, x1, y0, y1 = arrs.x0[keep], arrs.x1[keep], arrs.y0[keep], arrs.y1[keep]
    factor = factor[keep]
    nb = x0.size
    step = two_pi / n_cells

    edges = np.linspace(0.0, two_pi, n_cells + 1)
    ux = np.cos(edges)[:, None]
    uy = np.sin(edges)[:, None]
    t0_edges = ray_rect_entry_oracle(cx, cy, ux, uy, x0, x1, y0, y1)
    cell_min = np.minimum(t0_edges[:-1], t0_edges[1:])  # (n_cells, nb)

    # Critical interior azimuths: 4 footprint corners + the nearest point.
    corner_x = np.stack([x0, x0, x1, x1])
    corner_y = np.stack([y0, y1, y0, y1])
    near_x = np.clip(cx, x0, x1)
    near_y = np.clip(cy, y0, y1)
    crit_x = np.concatenate([corner_x, near_x[None, :]], axis=0) - cx  # (5, nb)
    crit_y = np.concatenate([corner_y, near_y[None, :]], axis=0) - cy
    crit_az = np.arctan2(crit_y, crit_x)
    crit_az = np.where(crit_az < 0.0, crit_az + two_pi, crit_az)
    crit_d = np.hypot(crit_x, crit_y)

    # A critical point at distance d counts for every closed cell within
    # max(1e-9, asin(GEOM_EPS / d)) rad of its azimuth, and for every cell
    # when d <= GEOM_EPS.
    with np.errstate(divide="ignore"):
        guard = np.where(crit_d > GEOM_EPS,
                         np.maximum(1e-9, np.arcsin(np.minimum(GEOM_EPS / crit_d, 1.0))), math.pi)
    for az, d, g in zip(crit_az, crit_d, guard):  # one row of (5, nb) at a time
        past_start = (az[None, :] - edges[:-1, None]) % two_pi  # (n_cells, nb)
        off = np.where(past_start <= step, 0.0,
                       np.minimum(past_start - step, two_pi - past_start))
        cell_min = np.minimum(cell_min, np.where(off <= g[None, :], d[None, :], np.inf))

    first_block = (factor[None, :] * cell_min).min(axis=1)
    return np.minimum(r_los, np.maximum(r_nlos, first_block))


def free_search_oracle(scenario, maps, commons, bound):
    """Reference for ``planner._free_search``: the A* over every point, before
    any pruning, with each node's offset, azimuth and radius about a map's
    apex recomputed at every expansion.

    Same nodes, edges, heuristic and tie order; only the slot kernel
    ``coverage._slots_clear`` and its jump table are shared. Each expansion
    gives the kernel slots of its own: u in each candidate's map, then the
    candidates.
    """
    from heapq import heappop, heappush

    from skypath.coverage import _Members, _jump_table, _slots_clear

    def slots(nodes, centers):
        a = xy[nodes] - centers
        return _Members(None, nodes, a[:, 0], a[:, 1], np.arctan2(a[:, 1], a[:, 0]),
                        np.hypot(a[:, 0], a[:, 1]), table)

    mission = scenario.mission
    stations = [k for k in sorted(maps) if not maps[k].is_empty]
    xy = np.vstack([
        [mission.start.xy],
        [maps[k].center for k in stations],
        np.unique(commons.points, axis=0) if commons.points.size else np.empty((0, 2)),
        [mission.goal.xy],
    ])
    n = xy.shape[0]
    goal = n - 1
    covs = [maps[k] for k in stations]
    inside = np.array([map_membership_oracle(xy, cov) for cov in covs])
    members = [np.flatnonzero(row) for row in inside]
    centers = np.array([cov.center for cov in covs])
    table = _jump_table(covs)
    to_goal = np.hypot(xy[:, 0] - xy[goal, 0], xy[:, 1] - xy[goal, 1])
    cost = np.full(n, math.inf)
    cost[0] = 0.0
    parent = np.full(n, -1)
    closed = np.zeros(n, dtype=bool)
    heap = [(to_goal[0], 0)]
    while heap:
        _, u = heappop(heap)
        if closed[u]:
            continue
        closed[u] = True
        if u == goal:
            break
        own = np.flatnonzero(inside[:, u])
        cand = np.concatenate([members[m] for m in own])
        which = np.repeat(own, [members[m].size for m in own])
        reach = cost[u] + np.hypot(xy[cand, 0] - xy[u, 0], xy[cand, 1] - xy[u, 1])
        keep = ~closed[cand] & (reach < cost[cand]) & (reach + to_goal[cand] < bound)
        if not keep.any():
            continue
        cand, which, reach = cand[keep], which[keep], reach[keep]
        m = cand.size
        good = _slots_clear(xy, slots(np.concatenate([np.full(m, u), cand]),
                                      np.tile(centers[which], (2, 1))),
                            np.arange(m), np.arange(m, 2 * m), which)
        for v, c in zip(cand[good].tolist(), reach[good].tolist()):
            if c < cost[v]:
                cost[v] = c
                parent[v] = u
                heappush(heap, (c + to_goal[v], v))
    if not closed[goal]:
        return None
    path = [goal]
    while path[-1] != 0:
        path.append(int(parent[path[-1]]))
    return xy[path[::-1]]


def refined_graph_oracle(base, scenario, maps, commons):
    """Reference for ``planner.build_refined_graph``: the graph built node by
    node, with one ``planner.segments_in_coverage`` call per shortcut family
    and per pivot, each against that family's single map. Returns the node
    positions (n, 2) and the edges.
    """
    from skypath.planner import segments_in_coverage

    mission = scenario.mission
    order = base.visit_indices
    nodes = [mission.start.xy]
    u_node = []
    for k in order:
        u_node.append(len(nodes))
        nodes.append(maps[k].center)
    slots = []
    borders = border_dict(commons)
    for a, b in zip(order, order[1:]):
        pair = (min(a, b), max(a, b))
        pts = borders[pair].tolist() if pair in borders else []
        slots.append(list(range(len(nodes), len(nodes) + len(pts))))
        nodes.extend(tuple(p) for p in pts)
    goal = len(nodes)
    nodes.append(mission.goal.xy)

    def dist(i, j):
        return math.hypot(nodes[i][0] - nodes[j][0], nodes[i][1] - nodes[j][1])

    edges = [(0, u_node[0], dist(0, u_node[0])), (u_node[-1], goal, dist(u_node[-1], goal))]
    for j, slot in enumerate(slots):
        for nid in slot:
            edges.append((u_node[j], nid, dist(u_node[j], nid)))
            edges.append((u_node[j + 1], nid, dist(u_node[j + 1], nid)))

    def add_checked(pairs, cov):
        if pairs:
            p0 = np.array([nodes[u] for u, _ in pairs])
            p1 = np.array([nodes[v] for _, v in pairs])
            ok = segments_in_coverage(p0, p1, cov)
            edges.extend((u, v, dist(u, v)) for (u, v), good in zip(pairs, ok) if good)

    if len(order) >= 2:
        add_checked([(0, nid) for nid in slots[0]], maps[order[0]])
        add_checked([(nid, goal) for nid in slots[-1]], maps[order[-1]])
    for pivot in range(1, len(order) - 1):
        add_checked([(a, b) for a in slots[pivot - 1] for b in slots[pivot]], maps[order[pivot]])
    return np.array(nodes, dtype=float), edges


def node_graph_base(scenario, maps, commons):
    """Reference for ``planner.base_trajectory``: Dijkstra over every node of
    ``build_feasibility_graph``. Returns the graph and the path's waypoints
    (x, y) and visited station ids, or the graph and None when disconnected.
    """
    from skypath.planner import build_feasibility_graph, shortest_path

    graph = build_feasibility_graph(scenario, maps, commons)
    path = shortest_path(graph, 0, graph.node_count - 1)
    if path is None:
        return graph, None
    waypoints = []
    for i in path:
        p = tuple(graph.xy[i].tolist())
        if not waypoints or math.hypot(p[0] - waypoints[-1][0], p[1] - waypoints[-1][1]) > 1e-9:
            waypoints.append(p)
    # nodes 1..K are the projections of the maps in sorted id order
    ids = sorted(maps)
    visited = tuple(ids[i - 1] for i in path if 1 <= i <= len(ids))
    return graph, (waypoints, visited)


def dense_network_covered(points_xy, scenario):
    """Reference for ``coverage.network_covered``: the dense (points x stations)
    distance matrix it replaced, copied unchanged. Only the fan test
    ``coverage.fan_blocked`` is shared.
    """
    from skypath.coverage import LinkState, _as_points, coverage_disk_radius_sq, fan_blocked

    params = scenario.radio
    xy = _as_points(points_xy)
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
