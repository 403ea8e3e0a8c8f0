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
