import math

import numpy as np

from skypath.coverage import snr_per_station
from skypath.geometry import Point3
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


def direct_snr_max(points_xy, scenario) -> np.ndarray:
    """Best-station SNR at each point, evaluated by explicit substitution."""
    pts = np.atleast_2d(np.asarray(points_xy, dtype=float))
    best = np.zeros(pts.shape[0])
    for bs in scenario.base_stations:
        best = np.maximum(best, snr_per_station(pts, bs, scenario.radio, scenario.city))
    return best


def sampled_line_in_coverage(a, b, cov, step=0.5) -> bool:
    """Dense-sampling reference for the segment-inside-coverage predicate."""
    from skypath.coverage import points_in_coverage

    length = math.hypot(b[0] - a[0], b[1] - a[1])
    n = max(2, int(math.ceil(length / step)) + 1)
    lam = np.linspace(0.0, 1.0, n)
    pts = np.outer(1 - lam, a) + np.outer(lam, b)
    return bool(points_in_coverage(pts, cov).all())


def line_check_tie(a, b, cov, step=0.5) -> bool:
    """True when a line-check disagreement sits below the oracle's resolution.

    Ties: the uncovered excursion found at 4x finer sampling is shallower than
    the geometric tolerance scale or shorter than the oracle step.
    """
    from skypath.coverage import distance_to_coverage, points_in_coverage

    length = math.hypot(b[0] - a[0], b[1] - a[1])
    n = max(2, int(math.ceil(length / step)) + 1)
    lam = np.linspace(0.0, 1.0, 4 * n)
    pts = np.outer(1 - lam, a) + np.outer(lam, b)
    outside = ~points_in_coverage(pts, cov)
    if not outside.any():
        return True  # excursion below even 4x oracle resolution
    depth = max(distance_to_coverage(p, cov) for p in pts[outside])
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
    """Reference for ``coverage.discretize_border``: q points spaced uniformly
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
    from skypath.coverage import points_in_coverage
    from skypath.geometry import GEOM_EPS

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
                pts.append(a.border_points[points_in_coverage(a.border_points, b)])
            if b.border_count:
                pts.append(b.border_points[points_in_coverage(b.border_points, a)])
            points = np.vstack(pts) if pts else np.empty((0, 2))
            if points.shape[0]:
                out[(k, j)] = points
    return out


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
    building matrix of ray entry distances, every building at every edge.

    Each building's factor is climb / (roof + GEOM_EPS - h_g), without a floor
    of 1, which differs only for roofs within GEOM_EPS of the flight altitude.
    """
    from skypath.coverage import LinkState, coverage_disk_radius_sq
    from skypath.geometry import GEOM_EPS

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

    b_idx = np.broadcast_to(np.arange(nb), crit_az.shape).ravel()
    az_flat = crit_az.ravel()
    d_flat = crit_d.ravel()
    guard = 1e-9
    for shift in (-guard, 0.0, guard):
        cells = np.floor((az_flat + shift) / step).astype(int) % n_cells
        np.minimum.at(cell_min, (cells, b_idx), d_flat)

    first_block = (factor[None, :] * cell_min).min(axis=1)
    return np.minimum(r_los, np.maximum(r_nlos, first_block))
