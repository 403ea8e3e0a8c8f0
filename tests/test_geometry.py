import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skypath.coverage import CoverageMap, points_in_coverage
from skypath.geometry import TWO_PI, Building, Point3
from skypath.planner import segments_in_coverage
from skypath.scenario import CityMap

from conftest import map_distance_oracle, sampled_segment_clear, segments_clear_buildings


def city_of(*buildings, width=2000.0, depth=2000.0):
    return CityMap(width=width, depth=depth, buildings=tuple(buildings))


def wrap_angle(theta: float) -> float:
    """The angle normalized to [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return 0.0 if t >= TWO_PI else t


def segment_clears_buildings(a: Point3, b: Point3, city: CityMap) -> bool:
    """The reference slab test on the one segment ab."""
    p0, p1 = np.array([a.x, a.y, a.z]), np.array([b.x, b.y, b.z])
    return bool(segments_clear_buildings(p0, p1, city.building_arrays())[0])


class TestSegmentClearsBuildings:
    def test_empty_city_never_blocks(self):
        city = city_of()
        assert segment_clears_buildings(Point3(0, 0, 80), Point3(100, 5, 80), city)

    def test_tall_building_blocks_level_flight(self):
        city = city_of(Building(40, 60, 0, 10, height=90))
        assert not segment_clears_buildings(Point3(0, 5, 80), Point3(100, 5, 80), city)

    def test_descending_segment_blocked_depends_on_height(self):
        # altitude along (0,5,80)->(100,5,20) is 80 - 0.6*x; at x=60 it is 44
        blocked = CityMap(2000, 2000, (Building(40, 60, 0, 10, 50),))
        clear = CityMap(2000, 2000, (Building(40, 60, 0, 10, 40),))
        a, b = Point3(0, 5, 80), Point3(100, 5, 20)
        assert not segment_clears_buildings(a, b, blocked)
        assert segment_clears_buildings(a, b, clear)
        assert sampled_segment_clear(a, b, blocked) is False
        assert sampled_segment_clear(a, b, clear) is True

    def test_vertical_segment_over_street_is_clear(self):
        city = CityMap(2000, 2000, (Building(40, 60, 0, 10, 50),))
        assert segment_clears_buildings(Point3(20, 5, 80), Point3(20, 5, 20), city)

    def test_vertical_segment_through_roof_is_blocked(self):
        city = CityMap(2000, 2000, (Building(40, 60, 0, 10, 50),))
        assert not segment_clears_buildings(Point3(50, 5, 80), Point3(50, 5, 20), city)

    def test_grazing_counts_as_blocked(self):
        # level flight exactly at roof height over the footprint
        city = CityMap(2000, 2000, (Building(40, 60, 0, 10, 80),))
        assert not segment_clears_buildings(Point3(0, 5, 80), Point3(100, 5, 80), city)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_sampling_oracle(self, data):
        rng_seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(rng_seed)
        buildings = []
        for i in range(rng.integers(1, 5)):
            x0 = rng.uniform(0, 180)
            y0 = rng.uniform(0, 180)
            buildings.append(
                Building(x0, x0 + rng.uniform(5, 20), y0, y0 + rng.uniform(5, 20),
                         height=rng.uniform(10, 70))
            )
        city = CityMap(200, 200, ())
        city = CityMap(200, 200, tuple(buildings)) if _disjoint(buildings) else city
        a = Point3(rng.uniform(0, 200), rng.uniform(0, 200), rng.uniform(15, 90))
        b = Point3(rng.uniform(0, 200), rng.uniform(0, 200), rng.uniform(15, 90))
        fast = segment_clears_buildings(a, b, city)
        slow = sampled_segment_clear(a, b, city, step=0.01)
        # Disagreement is only allowed when the true clearance margin is tiny.
        if fast != slow:
            assert _clearance_margin(a, b, city) < 0.02
        else:
            assert fast == slow


def _disjoint(buildings):
    for i, p in enumerate(buildings):
        for q in buildings[i + 1:]:
            if (p.x_min < q.x_max and p.x_max > q.x_min
                    and p.y_min < q.y_max and p.y_max > q.y_min):
                return False
    return True


def _clearance_margin(a, b, city):
    """Smallest |altitude - roof| over crossed footprints, by fine sampling."""
    lam = np.linspace(0.0, 1.0, 20001)
    xs = a.x + lam * (b.x - a.x)
    ys = a.y + lam * (b.y - a.y)
    zs = a.z + lam * (b.z - a.z)
    margin = math.inf
    for bld in city.buildings:
        inside = ((xs >= bld.x_min) & (xs <= bld.x_max)
                  & (ys >= bld.y_min) & (ys <= bld.y_max))
        if inside.any():
            margin = min(margin, np.abs(zs[inside] - bld.height).min())
    return margin


def _map(center, *wedges) -> CoverageMap:
    """A coverage map around ``center`` whose wedges are the given
    (start, end, radius) triples."""
    starts, ends, radii = zip(*wedges)
    return CoverageMap(bs_id=1, center=center, starts=starts, ends=ends, radii=radii,
                       border_points=np.empty((0, 2)))


def point_in_sector(p, cov: CoverageMap) -> bool:
    """Membership of p in the map."""
    return bool(points_in_coverage(np.asarray(p, dtype=float), cov)[0])


class TestPointInSector:
    def test_center_always_inside(self):
        s = _map((10.0, -3.0), (0.0, math.pi / 2, 10.0))
        assert point_in_sector((10.0, -3.0), s)

    def test_azimuth_outside_span(self):
        s = _map((0.0, 0.0), (0.0, math.pi / 2, 10.0))
        assert not point_in_sector((0.0, -1.0), s)

    def test_near_arc_point_inside(self):
        s = _map((0.0, 0.0), (0.0, math.pi / 2, 10.0))
        assert point_in_sector((7.07, 7.07), s)  # radius ~9.9985

    def test_just_beyond_arc_outside(self):
        s = _map((0.0, 0.0), (0.0, math.pi / 2, 10.0))
        assert not point_in_sector((7.08, 7.08), s)

    def test_wraparound_tolerance_at_zero(self):
        s = _map((0.0, 0.0), (3 * math.pi / 2, TWO_PI, 10.0))
        assert point_in_sector((5.0, 0.0), s)  # azimuth 0 == 2*pi boundary
        assert point_in_sector((5.0, -1e-9), s)

    @settings(max_examples=200, deadline=None)
    @given(
        cx=st.floats(-50, 50),
        cy=st.floats(-50, 50),
        start=st.floats(0, TWO_PI - 1e-6),
        span=st.floats(0.05, math.pi),
        radius=st.floats(0.5, 100),
        pr=st.floats(0, 120),
        pang=st.floats(0, TWO_PI),
        rot=st.floats(0, TWO_PI),
    )
    def test_rotation_invariance(self, cx, cy, start, span, radius, pr, pang, rot):
        end = min(start + span, TWO_PI)
        if end - start <= 1e-6:
            return
        s = _map((cx, cy), (start, end, radius))
        p = (cx + pr * math.cos(pang), cy + pr * math.sin(pang))
        # rotate sector and point about the center by the same angle
        new_start = wrap_angle(start + rot)
        new_end = new_start + (end - start)
        if new_end > TWO_PI:  # keep the non-wrapping representation
            return
        s_rot = _map((cx, cy), (new_start, new_end, radius))
        p_rot = (cx + pr * math.cos(pang + rot), cy + pr * math.sin(pang + rot))
        # skip points within tolerance of the angular boundary or the apex
        for edge in (start, end):
            if abs(wrap_angle(pang - edge + math.pi) - math.pi) * max(pr, 1.0) < 1e-6:
                return
        if abs(pr - radius) < 1e-9 or pr < 1e-5:
            return
        assert point_in_sector(p, s) == point_in_sector(p_rot, s_rot)


def _inside(a, b, cov: CoverageMap) -> bool:
    """segments_in_coverage on one map."""
    return bool(segments_in_coverage(np.array(a), np.array(b), cov)[0])


class TestSegmentSectorCrossings:
    """Where a segment crosses a sector boundary, seen through the segment
    predicate: it must flip exactly at the crossing."""

    def setup_method(self):
        self.half = _map((0.0, 0.0), (0.0, math.pi, 10.0))

    def test_interior_segment_no_crossings(self):
        assert _inside((1.0, 1.0), (2.0, 2.0), self.half)

    def test_center_through_arc(self):
        # from center straight up, length 20: leaves through the arc at lambda = 0.5
        assert _inside((0.0, 0.0), (0.0, 20.0 * (0.5 - 1e-6)), self.half)
        assert not _inside((0.0, 0.0), (0.0, 20.0 * (0.5 + 1e-6)), self.half)

    def test_chord_crosses_arc_twice(self):
        # horizontal chord y=0.5 cuts the upper-half arc at x = +-sqrt(100-0.25)
        x_hit = math.sqrt(100.0 - 0.25)
        inner = x_hit - 1e-4
        outer = x_hit + 1e-4
        assert _inside((-inner, 0.5), (inner, 0.5), self.half)
        assert not _inside((-outer, 0.5), (inner, 0.5), self.half)
        assert not _inside((-inner, 0.5), (outer, 0.5), self.half)

    def test_chord_crosses_radial_edges(self):
        # the theta=0 edge joins a radius-6 sector below to a radius-10
        # quarter above; a chord between covered points crossing that edge
        # at (x, 0) stays inside iff x <= 6
        both = _map((0.0, 0.0), (0.0, math.pi / 2, 10.0), (3 * math.pi / 2, TWO_PI, 6.0))
        for a in ((5.0, -1.0), (5.5, -1.0), (6.5, 1.0), (7.5, 1.0)):
            assert _inside(a, a, both)
        assert _inside((5.0, -1.0), (6.5, 1.0), both)  # crosses at x = 5.75
        assert not _inside((5.5, -1.0), (7.5, 1.0), both)  # at x = 6.5

    def test_tangent_line_single_crossing(self):
        # the line y=10 touches the radius-10 arc of the right half only at
        # (0, 10), where the radius-12 upper quarter ends: a segment along it
        # stays inside up to that point and leaves right after it
        both = _map((0.0, 0.0), (0.0, math.pi / 2, 12.0), (math.pi / 2, math.pi, 10.0))
        assert _inside((5.0, 10.0), (0.0, 10.0), both)
        assert _inside((5.0, 10.0), (-1e-4, 10.0), both)
        assert not _inside((5.0, 10.0), (-0.1, 10.0), both)
        # chords from covered ends that cross that edge below / above radius 10
        assert _inside((2.0, 10.8), (-4.0, 7.8), both)  # at y = 9.8
        assert not _inside((2.0, 11.3), (-4.0, 8.0), both)  # at y = 10.2

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(0, TWO_PI - 0.1),
        span=st.floats(0.1, math.pi),
        radius=st.floats(1.0, 50.0),
        ax=st.floats(-60, 60), ay=st.floats(-60, 60),
        bx=st.floats(-60, 60), by=st.floats(-60, 60),
    )
    def test_sorted_and_membership_constant_between(self, start, span, radius,
                                                    ax, ay, bx, by):
        # a single sector is convex: a segment lies in it iff both ends do
        end = min(start + span, TWO_PI)
        if end - start <= 0.05:
            return
        s = _map((0.0, 0.0), (start, end, radius))
        a, b = (ax, ay), (bx, by)
        if min(_sector_margin(a, s), _sector_margin(b, s)) < 1e-5:
            return  # too close to the boundary to judge
        expected = point_in_sector(a, s) and point_in_sector(b, s)
        assert _inside(a, b, s) == expected


def _sector_margin(p, cov):
    """Distance from p to the boundary of a one-wedge map (inside or outside)."""
    d_out = map_distance_oracle(p, cov)
    if d_out > 0.0:
        return d_out
    # inside: distance to boundary = min over radius gap and angular walls
    start, span, radius = cov.starts[0], cov.ends[0] - cov.starts[0], cov.radii[0]
    dx, dy = p[0] - cov.center[0], p[1] - cov.center[1]
    r = math.hypot(dx, dy)
    az = math.atan2(dy, dx) % TWO_PI
    delta = (az - start) % TWO_PI
    gaps = [radius - r, r * min(delta, span - delta) if r > 0 else 0.0]
    return max(0.0, min(gaps))


class TestInvariants:
    def test_point3_rejects_nan(self):
        with pytest.raises(ValueError):
            Point3(float("nan"), 0.0, 0.0)

    def test_building_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Building(10, 10, 0, 5, 10)
        with pytest.raises(ValueError):
            Building(0, 10, 0, 5, 0.0)

    def test_sector_rejects_reflex_span(self):
        with pytest.raises(ValueError, match="spans must lie in"):
            _map((0, 0), (0.0, math.pi * 1.5, 5.0))

    def test_sector_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="radii must be non-negative"):
            _map((0, 0), (0.0, 1.0, -1.0))

    def test_bulk_oracle_agreement(self):
        # seeded bulk comparison on one realistic city patch
        from skypath.scenario import generate_city

        city = generate_city(width=400, depth=400, seed=5)
        rng = np.random.default_rng(5)
        disagreements = 0
        for _ in range(120):
            a = Point3(rng.uniform(0, 400), rng.uniform(0, 400), rng.uniform(21, 90))
            b = Point3(rng.uniform(0, 400), rng.uniform(0, 400), rng.uniform(21, 90))
            fast = segment_clears_buildings(a, b, city)
            slow = sampled_segment_clear(a, b, city, step=0.01)
            if fast != slow:
                assert _clearance_margin(a, b, city) < 0.02
                disagreements += 1
        assert disagreements <= 3
