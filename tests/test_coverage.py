import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skypath.coverage import (
    MARCH_STEP,
    RADIUS_SAFETY,
    LinkState,
    azimuth_coverage_radius,
    build_all_coverage,
    build_coverage_map,
    classify_los,
    common_border_points,
    coverage_disk_radius_sq,
    network_covered,
    points_in_coverage,
    snr,
    snr_per_station,
)
from skypath.geometry import GEOM_EPS, Building, Point3
from skypath.scenario import BaseStation, CityMap, default_radio_params

from conftest import (
    border_walk_oracle,
    cell_merge_oracle,
    certified_radii_oracle,
    direct_snr_max,
    march_coverage_radius,
    open_field_scenario,
    pairwise_common_borders,
    ray_rect_entry_oracle,
    small_city_scenario,
)

# Frozen by independent substitution into the pathloss model with defaults
# P/sigma^2 = 1e12, threshold = 1e2, beta = 1e-4, h - h_g = 60:
#   LoS:  (1e6)**(2/2.2) - 3600
#   NLoS: (1e6)**(2/2.8) - 3600
D_LOS_SQ = 281203.58684358007
D_NLOS_SQ = 15706.977288832506
R_LOS = math.sqrt(D_LOS_SQ)  # ~530.286
R_NLOS = math.sqrt(D_NLOS_SQ)  # ~125.327


@pytest.fixture(scope="module")
def params():
    return default_radio_params()


@pytest.fixture(scope="module")
def empty_city():
    return CityMap(width=2000.0, depth=2000.0, buildings=())


@pytest.fixture(scope="module")
def bs(params):
    return BaseStation(id=1, position=Point3(1000.0, 1000.0, params.bs_height))


class TestClassifyLos:
    def test_empty_city_everywhere_los(self, params, empty_city, bs):
        p = Point3(1400.0, 900.0, params.uav_altitude)
        assert classify_los(p, bs, empty_city) is LinkState.LOS

    def test_directly_above_bs(self, params, bs):
        city = CityMap(2000, 2000, (Building(900, 980, 900, 980, 70.0),))
        p = Point3(bs.position.x, bs.position.y, params.uav_altitude)
        assert classify_los(p, bs, city) is LinkState.LOS

    def test_blocked_case_matches_geometry(self, params, bs):
        # wall between the UAV and the BS, taller than the crossing altitude
        city = CityMap(2000, 2000, (Building(1040, 1060, 900, 1100, 60.0),))
        p = Point3(1100.0, 1000.0, params.uav_altitude)
        assert classify_los(p, bs, city) is LinkState.NLOS


class TestSnr:
    def test_los_value_by_substitution(self, params, empty_city, bs):
        p = Point3(1100.0, 1000.0, params.uav_altitude)  # 100 m offset, dz 60
        expected = 1e12 * 1e-4 * math.hypot(100.0, 60.0) ** -2.2
        assert snr(p, bs, params, empty_city) == pytest.approx(expected, rel=1e-12)
        assert snr(p, bs, params, empty_city) == pytest.approx(2838.6196238508096, rel=1e-9)

    def test_nlos_value_by_substitution(self, params, bs):
        city = CityMap(2000, 2000, (Building(1040, 1060, 900, 1100, 79.0),))
        p = Point3(1100.0, 1000.0, params.uav_altitude)
        expected = 1e12 * 1e-4 * math.hypot(100.0, 60.0) ** -2.8
        assert snr(p, bs, params, city) == pytest.approx(expected, rel=1e-12)
        assert snr(p, bs, params, city) == pytest.approx(163.32231541829287, rel=1e-9)

    def test_doubling_power_doubles_snr(self, params, empty_city, bs):
        doubled = default_radio_params(p_over_sigma2_db=120.0 + 10 * math.log10(2.0))
        p = Point3(1234.0, 876.0, params.uav_altitude)
        assert snr(p, bs, doubled, empty_city) == pytest.approx(
            2.0 * snr(p, bs, params, empty_city), rel=1e-9
        )

    def test_near_field_clamp(self, params, empty_city):
        low = default_radio_params(uav_altitude=80.0, bs_height=79.9999999)
        bs0 = BaseStation(id=1, position=Point3(1000.0, 1000.0, low.bs_height))
        p = Point3(1000.0, 1000.0, low.uav_altitude)
        # distance ~1e-7 clamps to 1 m
        assert snr(p, bs0, low, empty_city) == pytest.approx(
            low.tx_power_over_noise * low.beta_los, rel=1e-9
        )

    def test_batch_matches_scalar(self, params, bs):
        city = small_city_scenario(seed=4, k=1).city
        rng = np.random.default_rng(0)
        pts = rng.uniform(100, 700, size=(40, 2))
        batch = snr_per_station(pts, bs, params, city)
        for xy, v in zip(pts, batch):
            assert snr(Point3(xy[0], xy[1], params.uav_altitude), bs, params, city) == pytest.approx(v, rel=1e-12)


class TestCoverageDiskRadius:
    def test_los_value(self, params):
        assert coverage_disk_radius_sq(params, LinkState.LOS) == pytest.approx(
            D_LOS_SQ, rel=1e-12
        )

    def test_nlos_value(self, params):
        assert coverage_disk_radius_sq(params, LinkState.NLOS) == pytest.approx(
            D_NLOS_SQ, rel=1e-12
        )

    def test_zero_when_threshold_unreachable(self):
        # threshold so high the first term falls below the altitude gap
        harsh = default_radio_params(snr_threshold_db=80.0)
        assert coverage_disk_radius_sq(harsh, LinkState.NLOS) == 0.0


RINGED = (
    Building(1010, 1020, 900, 1100, 70.0),
    Building(980, 990, 900, 1100, 70.0),
    Building(990, 1010, 1010, 1020, 70.0),
    Building(990, 1010, 980, 990, 70.0),
)
# Hand-built layouts around a station at (1000, 1000).
CERTIFIED_LAYOUTS = {
    "straddles azimuth 0": (
        Building(1100.0, 1160.0, 960.0, 1040.0, 55.0),
        Building(1300.0, 1320.0, 999.0, 1001.0, 75.0),
    ),
    # corners at multiples of 45 degrees lie exactly on 0.5-degree cell edges
    "corner on a cell edge": (
        Building(1050.0, 1100.0, 1100.0, 1160.0, 65.0),
        Building(1100.0, 1140.0, 1100.0, 1130.0, 60.0),
        Building(860.0, 900.0, 1100.0, 1150.0, 55.0),
        Building(1100.0, 1160.0, 850.0, 900.0, 45.0),
        Building(700.0, 900.0, 800.0, 900.0, 30.0),
    ),
    "ringed station": RINGED,
    "shares an x or y coordinate": (
        Building(1000.0, 1040.0, 1100.0, 1160.0, 50.0),
        Building(950.0, 1000.0, 800.0, 900.0, 45.0),
        Building(1200.0, 1260.0, 1000.0, 1050.0, 65.0),
        Building(700.0, 780.0, 940.0, 1000.0, 35.0),
    ),
    "station on a footprint edge": (
        Building(940.0, 1000.0, 970.0, 1030.0, 50.0),
        Building(1200.0, 1260.0, 1000.0, 1050.0, 65.0),
    ),
    "station inside a footprint": (Building(980.0, 1010.0, 990.0, 1040.0, 50.0),),
}


class TestAzimuthCoverageRadius:
    def test_open_field_equals_los_radius(self, params, empty_city, bs):
        for theta in (0.0, 1.0, 4.5):
            assert azimuth_coverage_radius(bs, theta, empty_city, params) == pytest.approx(
                R_LOS, rel=1e-12
            )

    def test_periodicity(self, params, bs):
        city = small_city_scenario(seed=7, k=1).city
        bs_c = BaseStation(id=1, position=Point3(400.0, 400.0, params.bs_height))
        for theta in (0.3, 2.0):
            a = azimuth_coverage_radius(bs_c, theta, city, params)
            b = azimuth_coverage_radius(bs_c, theta + 2 * math.pi, city, params)
            assert a == pytest.approx(b, abs=1e-9)

    def test_ringed_station_falls_back_to_nlos_radius(self, params):
        # over-height ring 10 m out: LoS dies immediately, NLoS disk remains
        city = CityMap(2000, 2000, RINGED)
        bs_c = BaseStation(id=1, position=Point3(1000.0, 1000.0, params.bs_height))
        for theta in np.linspace(0, 2 * math.pi, 17):
            r = azimuth_coverage_radius(bs_c, theta, city, params)
            assert r <= R_NLOS + 1e-9

    def test_matches_march_oracle(self, params):
        scn = small_city_scenario(seed=11, k=3)
        bs_c = scn.base_stations[0]
        rng = np.random.default_rng(2)
        for theta in rng.uniform(0, 2 * math.pi, 12):
            exact = azimuth_coverage_radius(bs_c, theta, scn.city, params)
            marched = march_coverage_radius(bs_c, theta, scn, dr=MARCH_STEP)
            assert marched <= exact + 1e-9
            assert exact - marched <= MARCH_STEP + 1e-9


class TestCertifiedRadii:
    """The span-restricted kernel against the dense edge x building matrix."""

    @staticmethod
    def _check(stations, city, params):
        from skypath.coverage import _certified_cell_radii

        for bs_c in stations:
            assert_bitwise(_certified_cell_radii(bs_c.xy, city, params, 720),
                           certified_radii_oracle(bs_c.xy, city, params, 720))

    @pytest.mark.parametrize("seed", [11, 19, 23, 29])
    def test_small_city(self, seed, params):
        scn = small_city_scenario(seed=seed, k=6)
        self._check(scn.base_stations, scn.city, params)

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_default_city(self, seed, params):
        from skypath.scenario import build_default_scenario, place_base_stations

        base = build_default_scenario(seed=1, k=25)
        stations = place_base_stations(base.city, k=25, h_g=params.bs_height, seed=seed)
        self._check(stations, base.city, params)

    @pytest.mark.parametrize("layout", list(CERTIFIED_LAYOUTS))
    def test_hand_built(self, layout, params):
        city = CityMap(2000, 2000, CERTIFIED_LAYOUTS[layout])
        bs_c = BaseStation(id=1, position=Point3(1000.0, 1000.0, params.bs_height))
        self._check([bs_c], city, params)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_near_corner_azimuths(self, seed, params):
        # A ray a few ulps outside a footprint's subtended span can still hit
        # it after rounding; the span's pad must keep such azimuths in.
        from skypath.coverage import _blockers, _first_blocking_radius

        rng = np.random.default_rng(seed)
        _, station, buildings, _, _ = next(c for c in _fan_cases() if c[0] == "random footprints")
        center = tuple(np.asarray(station) + rng.uniform(-0.5, 0.5, size=2))
        blk = _blockers(center, CityMap(2000, 2000, buildings), params, np.inf)
        corner_az = blk.crit_az[:4].ravel()
        ulps = np.arange(-6, 7)[None, :] * np.spacing(corner_az)[:, None]
        az = np.sort((corner_az[:, None] + ulps).ravel())
        az = az[(az >= 0.0) & (az <= 2 * math.pi)]
        t0 = ray_rect_entry_oracle(0.0, 0.0, np.cos(az)[:, None], np.sin(az)[:, None],
                                   blk.x0, blk.x1, blk.y0, blk.y1)
        assert_bitwise(_first_blocking_radius(az, blk), (blk.factor * t0).min(axis=1))

    @pytest.mark.parametrize("delta", [
        5e-10,
        pytest.param(2e-9, marks=pytest.mark.xfail(strict=True, reason=(
            "membership grants GEOM_EPS/r rad of slack past a wedge edge, while a"
            " cell is certified only 1e-9 rad past its critical azimuths"))),
        5e-9,
    ])
    def test_claimed_probes_past_a_cell_edge_meet_threshold(self, delta, params):
        # A 20 x 20 x 70 m building whose (x1, y0) corner lies 150 m out at
        # azimuth e + delta, just past the edge e between cells 36 and 37.
        # Probes at 200-400 m between e and e + GEOM_EPS/r sit in the slack
        # that membership grants past the end of the wedge holding cell 36.
        edge = np.linspace(0.0, 2 * math.pi, 721)[37]
        x1 = 1000.0 + 150.0 * math.cos(edge + delta)
        y0 = 1000.0 + 150.0 * math.sin(edge + delta)
        city = CityMap(2000, 2000, (Building(x1 - 20.0, x1, y0, y0 + 20.0, 70.0),))
        bs_c = BaseStation(id=1, position=Point3(1000.0, 1000.0, params.bs_height))
        cov = build_coverage_map(bs_c, city, params)
        r, frac = np.meshgrid(np.linspace(200.0, 400.0, 41), np.linspace(0.0, 1.0, 41))
        theta = edge + frac * GEOM_EPS / r
        pts = np.column_stack([(1000.0 + r * np.cos(theta)).ravel(),
                               (1000.0 + r * np.sin(theta)).ravel()])
        claimed = points_in_coverage(pts, cov)
        below = snr_per_station(pts, bs_c, params, city) < params.snr_threshold
        assert not (claimed & below).any()


class TestBuildCoverageMap:
    def test_open_field_full_disk(self, params, empty_city, bs):
        cov = build_coverage_map(bs, empty_city, params)
        assert len(cov.sectors) >= 2  # the <= pi rule forces a split
        spans = sum(s.span for s in cov.sectors)
        assert spans == pytest.approx(2 * math.pi, abs=1e-9)
        for s in cov.sectors:
            assert s.radius == pytest.approx(R_LOS - RADIUS_SAFETY, abs=1e-9)
            assert s.span <= math.pi + 1e-12

    def test_sector_invariants_on_real_city(self, params):
        scn = small_city_scenario(seed=11, k=4)
        for bs_c in scn.base_stations:
            cov = build_coverage_map(bs_c, scn.city, params)
            ordered = sorted(cov.sectors, key=lambda s: s.theta_start)
            for a, b in zip(ordered, ordered[1:]):
                assert a.theta_end <= b.theta_start + 1e-12  # non-overlapping
            for s in cov.sectors:
                assert 0 < s.span <= math.pi + 1e-12

    def test_ringed_station_radii_bounded(self, params):
        walls = (
            Building(1010, 1020, 900, 1100, 70.0),
            Building(980, 990, 900, 1100, 70.0),
            Building(990, 1010, 1010, 1020, 70.0),
            Building(990, 1010, 980, 990, 70.0),
        )
        city = CityMap(2000, 2000, walls)
        bs_c = BaseStation(id=1, position=Point3(1000.0, 1000.0, params.bs_height))
        cov = build_coverage_map(bs_c, city, params)
        assert 0 < cov.max_radius <= R_NLOS + 1e-9

    def test_claimed_points_truly_covered(self, params):
        # conservativeness: every claimed point meets the threshold with margin
        scn = small_city_scenario(seed=13, k=3)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 800, size=(4000, 2))
        for bs_c in scn.base_stations:
            cov = build_coverage_map(bs_c, scn.city, params)
            claimed = points_in_coverage(pts, cov)
            if claimed.any():
                vals = snr_per_station(pts[claimed], bs_c, params, scn.city)
                assert (vals >= params.snr_threshold).all()

    def test_corner_grazing_dip_never_overclaims(self, params):
        # A tall building far out subtends well under one angular cell, so
        # point-sampled azimuths would miss the blocking dip entirely; the
        # certified cells must still keep every claimed point truly covered.
        bs_c = BaseStation(id=1, position=Point3(1000.0, 1000.0, params.bs_height))
        rng = np.random.default_rng(17)
        for trial in range(8):
            ang = rng.uniform(0, 2 * math.pi)
            dist = rng.uniform(150.0, 350.0)
            cx = 1000.0 + dist * math.cos(ang)
            cy = 1000.0 + dist * math.sin(ang)
            side = rng.uniform(0.4, 1.5)  # subtends ~0.1-0.6 deg at 150-350 m
            city = CityMap(2000, 2000, (
                Building(cx - side, cx + side, cy - side, cy + side, 69.0),
            ))
            cov = build_coverage_map(bs_c, city, params)
            # probe the dip wedge densely, well beyond cell resolution
            probe_ang = ang + np.linspace(-0.02, 0.02, 400)
            probe_rad = rng.uniform(10.0, R_LOS, 400)
            pts = np.column_stack([
                1000.0 + probe_rad * np.cos(probe_ang),
                1000.0 + probe_rad * np.sin(probe_ang),
            ])
            claimed = points_in_coverage(pts, cov)
            if claimed.any():
                vals = snr_per_station(pts[claimed], bs_c, params, city)
                assert (vals >= params.snr_threshold).all()

    def test_membership_agreement_rate(self, params):
        scn = small_city_scenario(seed=17, k=4)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 800, size=(3000, 2))
        maps, _ = build_all_coverage(scn)
        claimed = np.zeros(len(pts), dtype=bool)
        for cov in maps.values():
            claimed |= points_in_coverage(pts, cov)
        true_cov = direct_snr_max(pts, scn) >= params.snr_threshold
        assert (claimed == true_cov).mean() >= 0.98

    def test_sector_convexity_by_interior_chords(self, params):
        scn = small_city_scenario(seed=17, k=2)
        rng = np.random.default_rng(9)
        cov = build_coverage_map(scn.base_stations[0], scn.city, params)
        sectors = [s for s in cov.sectors if s.radius > 20.0][:12]
        for sector in sectors:
            for _ in range(20):
                ang = sector.theta_start + rng.uniform(0, 1, 2) * sector.span
                rad = rng.uniform(0, sector.radius, 2)
                p = np.array([sector.center[0] + rad * np.cos(ang),
                              sector.center[1] + rad * np.sin(ang)]).T
                length = np.hypot(*(p[1] - p[0]))
                lam = np.linspace(0, 1, max(3, int(length) + 1))
                seg = np.outer(1 - lam, p[0]) + np.outer(lam, p[1])
                from skypath.geometry import points_in_sectors

                starts = np.array([sector.theta_start])
                spans = np.array([sector.span])
                radii = np.array([sector.radius])
                assert points_in_sectors(seg, sector.center, starts, spans, radii).all()

    def test_star_shape_border_segments_covered(self, params):
        scn = small_city_scenario(seed=19, k=2)
        for bs_c in scn.base_stations:
            cov = build_coverage_map(bs_c, scn.city, params)
            for bp in cov.border_points[::8]:
                r = math.hypot(bp[0] - cov.center[0], bp[1] - cov.center[1])
                n = max(3, int(r))
                lam = np.linspace(0.0, 1.0, n)
                seg = np.outer(1 - lam, cov.center) + np.outer(lam, bp)
                vals = snr_per_station(seg, bs_c, params, scn.city)
                assert (vals >= params.snr_threshold).all()


class TestDiscretizeBorder:
    def test_full_disk_four_points(self, params, empty_city, bs):
        cov = build_coverage_map(bs, empty_city, params, border_samples=4)
        assert cov.border_count == 4
        r = cov.max_radius
        expect = [
            (bs.position.x + r, bs.position.y),
            (bs.position.x, bs.position.y + r),
            (bs.position.x - r, bs.position.y),
            (bs.position.x, bs.position.y - r),
        ]
        np.testing.assert_allclose(cov.border_points, expect, atol=1e-6)

    def test_uniform_spacing_along_perimeter(self, params):
        scn = small_city_scenario(seed=23, k=1)
        cov = build_coverage_map(scn.base_stations[0], scn.city, params, border_samples=64)
        # perimeter: every arc, plus a wall down to the apex and back out at
        # an azimuth gap, or one wall between the radii at a joint
        starts, ends, radii = cov.starts, cov.ends, cov.radii
        next_start = np.append(starts[1:], starts[0] + 2 * math.pi)
        next_radius = np.append(radii[1:], radii[0])
        gap = next_start - ends > 1e-12
        walls = np.where(gap, radii + next_radius, np.abs(radii - next_radius))
        total = float((radii * (ends - starts)).sum() + walls.sum())
        # walking distance between consecutive points equals total/Q; chord
        # distance can only be shorter
        chords = np.hypot(*(np.diff(np.vstack([cov.border_points,
                                               cov.border_points[:1]]), axis=0).T))
        assert (chords <= total / 64 + 1e-6).all()

    def test_border_points_meet_threshold(self, params):
        scn = small_city_scenario(seed=29, k=3)
        for bs_c in scn.base_stations:
            cov = build_coverage_map(bs_c, scn.city, params)
            if cov.border_count == 0:
                continue
            vals = snr_per_station(cov.border_points, bs_c, params, scn.city)
            assert (vals >= params.snr_threshold * (1 - 1e-3)).all()

    def test_empty_coverage_empty_border(self, params):
        harsh = default_radio_params(snr_threshold_db=80.0)
        bs_c = BaseStation(id=1, position=Point3(100.0, 100.0, harsh.bs_height))
        city = CityMap(200, 200, ())
        cov = build_coverage_map(bs_c, city, harsh)
        assert cov.is_empty and cov.border_count == 0


class TestCommonBorders:
    def test_identical_maps_share_all_points(self, params, empty_city):
        a = build_coverage_map(BaseStation(1, Point3(1000, 1000, 20.0)), empty_city, params)
        b = build_coverage_map(BaseStation(2, Point3(1000, 1000, 20.0)), empty_city, params)
        cb = common_border_points(a, b)
        assert cb.points.shape[0] == a.border_count + b.border_count

    def test_distant_disks_share_nothing(self, params, empty_city):
        a = build_coverage_map(BaseStation(1, Point3(200, 200, 20.0)), empty_city, params)
        b = build_coverage_map(BaseStation(2, Point3(1800, 1800, 20.0)), empty_city, params)
        assert common_border_points(a, b).points.shape[0] == 0

    def test_lens_point_count_matches_circle_geometry(self, params, empty_city):
        gap = 800.0
        a = build_coverage_map(BaseStation(1, Point3(600, 1000, 20.0)), empty_city, params,
                               border_samples=256)
        b = build_coverage_map(BaseStation(2, Point3(1400, 1000, 20.0)), empty_city, params,
                               border_samples=256)
        cb = common_border_points(a, b)
        r = R_LOS - RADIUS_SAFETY
        # arc fraction of one circle inside the other: half-angle of the lens
        half_angle = math.acos(gap / (2 * r))
        expect = 2 * 256 * (half_angle / math.pi)
        assert cb.points.shape[0] == pytest.approx(expect, abs=6)

    def test_all_points_pass_both_coverage_tests(self, params):
        scn = small_city_scenario(seed=31, k=4)
        maps, commons = build_all_coverage(scn)
        for (k, j), cb in commons.items():
            assert points_in_coverage(cb.points, maps[k]).all()
            assert points_in_coverage(cb.points, maps[j]).all()


def _fan_cases():
    """(name, station, buildings, points, grazing) inputs of the fan-blocking oracle.

    ``grazing`` marks points whose segment passes exactly through a corner at
    one end of a footprint's subtended span, touching the footprint at that
    corner alone. Whether the touch counts then rests on rounding, which the
    fan (along cos/sin of the azimuth) and the generic test (along the
    point-to-station difference) do differently; every other point must agree.
    """
    station = (1000.0, 1000.0)
    rng = np.random.default_rng(21)
    # building due east of the station: its subtended span straddles azimuth zero
    east = Building(1100.0, 1160.0, 960.0, 1040.0, 55.0)
    yield "across the wrap", station, (east,), rng.uniform(0, 2000, size=(3000, 2)), None

    # one random footprint in each 80 m cell of a grid with a corner at the station
    cells = np.array([(x, y) for x in range(520, 1480, 80) for y in range(520, 1480, 80)])
    lo = cells + rng.uniform(1.0, 30.0, size=cells.shape)
    hi = lo + rng.uniform(5.0, 49.0, size=cells.shape)
    random = tuple(
        Building(x0, x1, y0, y1, h)
        for (x0, y0), (x1, y1), h in zip(lo, hi, rng.uniform(10.0, 79.0, size=len(cells)))
    )
    yield "random footprints", station, random, rng.uniform(400, 1600, size=(4000, 2)), None

    # Due east and due west: sin(azimuth 0) is exactly 0. Two footprints share
    # the station's y coordinate, so the zero direction runs inside their slab.
    sharing = (
        east,
        Building(1200.0, 1250.0, 1000.0, 1030.0, 40.0),
        Building(1300.0, 1350.0, 970.0, 1000.0, 65.0),
        Building(700.0, 760.0, 1000.0, 1040.0, 60.0),
    )
    r = np.linspace(0.0, 800.0, 1601)
    line = np.concatenate([np.column_stack([1000.0 + r, np.full_like(r, 1000.0)]),
                           np.column_stack([1000.0 - r, np.full_like(r, 1000.0)])])
    yield "due east", station, sharing, line, None

    corner_buildings = (
        *sharing,
        Building(1050.0, 1100.0, 1100.0, 1160.0, 65.0),
        Building(860.0, 900.0, 1100.0, 1150.0, 55.0),
        Building(1100.0, 1160.0, 850.0, 900.0, 45.0),
        Building(930.0, 980.0, 700.0, 760.0, 70.0),
    )
    t = np.linspace(0.2, 5.0, 97)
    corners = np.array([(x, y) for b in corner_buildings
                        for x in (b.x_min, b.x_max) for y in (b.y_min, b.y_max)])
    offsets = (corners - station).reshape(-1, 4, 2)
    az = np.arctan2(offsets[..., 1], offsets[..., 0])
    rel = (az - az.mean(axis=1, keepdims=True) + math.pi) % (2 * math.pi) - math.pi
    extreme = ((rel == rel.min(axis=1, keepdims=True))
               | (rel == rel.max(axis=1, keepdims=True))).ravel()
    rays = (np.asarray(station) + t[:, None, None] * (corners - station)).reshape(-1, 2)
    grazing = (extreme[None, :] & (t[:, None] >= 1.0)).ravel()
    yield "corner azimuths", station, corner_buildings, rays, grazing

    # the station on the east edge of one footprint, then inside another
    pts = rng.uniform(0, 2000, size=(4000, 2))
    yield "station on an edge", station, (Building(940.0, 1000.0, 970.0, 1030.0, 50.0),), pts, None
    yield "station inside", station, (Building(980.0, 1010.0, 990.0, 1040.0, 50.0),), pts, None


class TestNetworkCovered:
    def test_fan_blocking_matches_generic_path_across_wrap(self, params):
        from skypath.coverage import fan_blocked
        from skypath.geometry import segments_clear_buildings

        for name, station, buildings, pts, grazing in _fan_cases():
            city = CityMap(2000, 2000, buildings)
            fan = fan_blocked(station, pts, city, params)
            p0 = np.column_stack([pts, np.full(len(pts), params.uav_altitude)])
            p1 = np.array([*station, params.bs_height])
            generic = ~segments_clear_buildings(p0, p1, city)
            agree = slice(None) if grazing is None else ~grazing
            np.testing.assert_array_equal(fan[agree], generic[agree], err_msg=name)

    def test_matches_explicit_max_snr(self, params):
        scn = small_city_scenario(seed=37, k=5)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 800, size=(2500, 2))
        fast = network_covered(pts, scn)
        slow = direct_snr_max(pts, scn) >= params.snr_threshold
        np.testing.assert_array_equal(fast, slow)

    def test_no_stations_means_uncovered(self):
        scn = open_field_scenario([(1000, 1000)])
        scn2 = scn.with_base_stations(())
        pts = np.array([[1000.0, 1000.0]])
        assert network_covered(pts, scn2)[0] == False  # noqa: E712


class TestWedgeArrays:
    """The map's wedge arrays against the single-sector reference API."""

    @staticmethod
    def _probe_points(cov, rng):
        """Random points plus points within 2*GEOM_EPS of every edge, arc and the apex."""
        from skypath.geometry import GEOM_EPS

        c = np.asarray(cov.center)
        rad = cov.max_radius + 5.0
        pts = [c + rng.uniform(-rad, rad, size=(3000, 2)), cov.border_points]
        offs = GEOM_EPS * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        for s in cov.sectors:
            for ang in (s.theta_start, s.theta_end, 0.5 * (s.theta_start + s.theta_end)):
                u = np.array([math.cos(ang), math.sin(ang)])
                n = np.array([-u[1], u[0]])
                radii = np.concatenate([[1e-6, 1.5e-6, 1.0, 0.5 * s.radius], s.radius + offs])
                rr, dd = np.meshgrid(radii, offs)
                pts.append(c + rr.reshape(-1, 1) * u + dd.reshape(-1, 1) * n)
        # the apex, and both sides of the 0 / 2*pi wrap
        ang = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
        for r in (0.0, 0.5 * GEOM_EPS, GEOM_EPS, 1.5 * GEOM_EPS, 3 * GEOM_EPS):
            pts.append(c + r * np.column_stack([np.cos(ang), np.sin(ang)]))
        for x in (1.0, 50.0, cov.max_radius):
            pts.append(c + np.column_stack([np.full(7, x), offs]))
        return np.vstack(pts)

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_membership_matches_sector_reference(self, seed):
        from skypath.geometry import points_in_sectors

        scn = small_city_scenario(seed=seed, k=6)
        maps, _ = build_all_coverage(scn)
        rng = np.random.default_rng(seed)
        for cov in maps.values():
            if cov.is_empty:
                continue
            pts = self._probe_points(cov, rng)
            starts = np.array([s.theta_start for s in cov.sectors])
            spans = np.array([s.span for s in cov.sectors])
            radii = np.array([s.radius for s in cov.sectors])
            expected = points_in_sectors(pts, cov.center, starts, spans, radii)
            np.testing.assert_array_equal(points_in_coverage(pts, cov), expected)

    def test_radius_steps_match_sector_lookup(self):
        scn = small_city_scenario(seed=103, k=6)
        maps, _ = build_all_coverage(scn)
        theta = np.random.default_rng(5).uniform(0.0, 2 * math.pi, 4000)
        for cov in maps.values():
            lookup = np.zeros_like(theta)
            for s in cov.sectors:
                held = (theta >= s.theta_start) & (theta < s.theta_end)
                lookup = np.where(held, np.maximum(lookup, s.radius), lookup)
            jumps, before, after = cov.radius_steps
            if jumps.size == 0:
                assert (lookup == lookup[0]).all()
                continue
            np.testing.assert_array_equal(np.roll(after, 1), before)
            idx = np.searchsorted(jumps, theta, side="right") - 1
            near = np.abs(theta[:, None] - jumps[None, :]).min(axis=1) < 1e-9
            np.testing.assert_array_equal(after[idx][~near], lookup[~near])

    @pytest.mark.parametrize("starts, ends, radii", [
        ([1.0, 0.0], [1.5, 0.5], [10.0, 10.0]),        # unsorted
        ([0.0, 0.4], [0.5, 1.0], [10.0, 10.0]),        # overlapping
        ([0.0], [math.pi + 0.1], [10.0]),              # wider than pi
        ([1.0], [1.0], [10.0]),                        # empty span
        ([-0.1], [0.5], [10.0]),                       # before 0
        ([6.0], [2 * math.pi + 0.1], [10.0]),          # past 2*pi
        ([0.0], [0.5], [-1.0]),                        # negative radius
        ([0.0, 1.0], [0.5], [10.0, 10.0]),             # ragged arrays
    ])
    def test_invalid_wedges_rejected(self, starts, ends, radii):
        from skypath.coverage import CoverageMap

        with pytest.raises(ValueError):
            CoverageMap(1, (0.0, 0.0), starts, ends, radii, np.empty((0, 2)))

    def test_rounding_overlap_of_touching_wedges_accepted(self):
        from skypath.coverage import CoverageMap

        edge = 1.0
        cov = CoverageMap(1, (0.0, 0.0), [0.0, edge], [edge + 4e-16, 2.0], [10.0, 20.0],
                          np.empty((0, 2)))
        jumps, before, after = cov.radius_steps
        # the two edges of the joint are one jump, at the smaller angle
        assert jumps.tolist() == [0.0, edge, 2.0]
        assert before.tolist() == [0.0, 10.0, 20.0]
        assert after.tolist() == [10.0, 20.0, 0.0]

    def test_building_and_planning_construct_no_sector(self, monkeypatch):
        from skypath.geometry import CircularSector
        from skypath.planner import base_trajectory, optimize_trajectory

        def forbidden(self):
            raise AssertionError("CircularSector constructed")

        monkeypatch.setattr(CircularSector, "__post_init__", forbidden)
        scn = small_city_scenario(seed=20, k=6)
        maps, commons = build_all_coverage(scn)
        base = base_trajectory(scn, maps, commons)
        assert base is not None
        optimize_trajectory(base, scn, maps, commons)


def assert_bitwise(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def run_radii(draw):
    """Cell radii made of runs: equal values, steps of exactly the merge
    tolerance, zeros and values below the minimum radius."""
    tol = draw(st.sampled_from([2.0, 0.5, 0.0]))
    base = draw(st.sampled_from([0.0, 3.0, 5.0, 100.25]))
    palette = [0.0, 4.5, *(base + k * tol for k in range(5))]
    value = st.one_of(st.sampled_from(palette), st.floats(0.0, 600.0))
    runs = draw(st.lists(st.tuples(value, st.integers(1, 300)), min_size=1, max_size=12))
    radii = np.concatenate([np.full(length, v) for v, length in runs])
    if radii.size < 2:
        radii = np.append(radii, radii)
    return radii, tol


class TestCellMergeByRuns:
    """The run-stepping cell merge against the cell-by-cell greedy merge."""

    @staticmethod
    def _check(radii, merge_tol, min_radius=5.0):
        from skypath.coverage import _cells_to_wedges

        got = _cells_to_wedges(radii, merge_tol, min_radius)
        want = cell_merge_oracle(radii, merge_tol, min_radius)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
        return got

    @settings(max_examples=300, deadline=None)
    @given(run_radii(), st.sampled_from([0.0, 5.0, 50.0]))
    def test_matches_cell_by_cell_merge(self, case, min_radius):
        radii, tol = case
        self._check(radii, tol, min_radius)

    @pytest.mark.parametrize("n", [2, 3, 720])
    @pytest.mark.parametrize("value", [0.0, 4.0, 250.0])
    def test_all_equal_cells(self, n, value):
        starts, ends, radii = self._check(np.full(n, value), 2.0)
        if value < 5.0:
            assert radii.size == 0
        else:
            # one group around the circle, split into pieces of at most pi
            assert starts[0] == 0.0 and ends[-1] == 2 * math.pi
            assert ((ends - starts) <= math.pi + 1e-12).all()
            assert (radii == value).all()

    @pytest.mark.parametrize("radii", [
        [10.0, 12.0], [12.0, 10.0], [10.0, 11.9], [0.0, 0.0], [4.9, 5.0], [5.0, 4.9],
    ])
    @pytest.mark.parametrize("merge_tol", [2.0, 0.0])
    def test_two_cells(self, radii, merge_tol):
        self._check(np.array(radii), merge_tol)

    def test_steps_of_exactly_the_tolerance(self):
        radii = np.repeat([10.0, 12.0, 10.0, 11.0, 13.0, 13.0, 3.0, 3.0], 30)
        starts, ends, wedge_radii = self._check(radii, 2.0)
        # a step of exactly merge_tol starts a new group
        assert wedge_radii.tolist()[:3] == [10.0, 12.0, 10.0]

    @pytest.mark.parametrize("seed", [11, 19, 23, 29])
    def test_certified_radii_of_small_city(self, seed, params):
        from skypath.coverage import RADIUS_MERGE_TOL, _certified_cell_radii

        scn = small_city_scenario(seed=seed, k=6)
        for bs_c in scn.base_stations:
            radii = _certified_cell_radii(bs_c.xy, scn.city, params, 720)
            self._check(np.maximum(radii - RADIUS_SAFETY, 0.0), RADIUS_MERGE_TOL)


def _wedge_map(starts, ends, radii, center=(0.0, 0.0)):
    """A hand-built map. At the origin no rounding against the centre hides a
    difference in the last bits of a border point."""
    from skypath.coverage import CoverageMap

    return CoverageMap(7, center, starts, ends, radii, np.empty((0, 2)))


QS = [1, 4, 64, 257]
TAU = 2 * math.pi


class TestBorderWalkFromArrays:
    """The array border walk against the item-by-item walk."""

    @staticmethod
    def _check(cov, q):
        from skypath.coverage import discretize_border

        got = discretize_border(cov, q)
        assert_bitwise(got.border_points.reshape(-1, 2), border_walk_oracle(cov, q))
        assert_bitwise(got.starts, cov.starts)
        return got.border_points

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("seed", [11, 19, 23, 29])
    def test_small_city_maps(self, seed, q):
        scn = small_city_scenario(seed=seed, k=6)
        maps, _ = build_all_coverage(scn, border_samples=q)
        for cov in maps.values():
            assert_bitwise(cov.border_points.reshape(-1, 2), border_walk_oracle(cov, q))
            self._check(cov, q)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("starts, ends, radii", [
        ([0.5], [2.0], [100.0]),                                    # single wedge
        ([0.0], [math.pi], [50.0]),                                 # half disk
        ([1.0], [3.0], [0.1]),             # some points land exactly on a piece's end
        ([0.3], [1.5], [2.0]),
        ([0.0, math.pi], [math.pi, TAU], [80.0, 80.0]),             # joint, equal radii
        ([0.0, 1.5, 3.0, 4.5], [1.5, 3.0, 4.5, TAU], [40.0, 90.0, 60.0, 90.0]),  # joints
        ([0.2, 1.5, 4.0], [1.0, 3.0, 5.5], [30.0, 30.0, 120.0]),    # gaps
        ([0.0, 1.0, 3.0], [1.0, 2.0, 4.0], [60.0, 20.0, 20.0]),     # joints and gaps
        ([0.0, 1.0], [1.0 + 4e-16, 2.0], [10.0, 20.0]),             # rounding overlap
        ([0.0, 1.0], [1.0, 2.0], [10.0, 10.0 + 1e-13]),             # step below 1e-12
        ([1.0, 2.0], [2.0, 3.0], [0.0, 25.0]),                      # zero-radius wedge
        ([1.0, 2.0], [2.0, 3.0], [0.0, 0.0]),                       # zero perimeter
    ])
    def test_hand_built_wedges(self, starts, ends, radii, q):
        self._check(_wedge_map(starts, ends, radii), q)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_wedge_sets(self, data):
        cuts = data.draw(st.lists(st.floats(0.01, TAU - 0.01), min_size=1, max_size=10,
                                  unique=True))
        edges = [0.0, *sorted(cuts), TAU]
        palette = st.sampled_from([0.0, 5.0, 30.0, 30.0 + 1e-13, 120.5])
        starts, ends, radii = [], [], []
        for a0, a1 in zip(edges[:-1], edges[1:]):
            if a1 - a0 > math.pi:
                continue
            if data.draw(st.booleans()):
                starts.append(a0)
                ends.append(a1)
                radii.append(data.draw(st.one_of(palette, st.floats(0.0, 500.0))))
        if not starts:
            return
        q = data.draw(st.sampled_from(QS))
        self._check(_wedge_map(starts, ends, radii), q)

    def test_empty_map(self):
        cov = _wedge_map([], [], [])
        assert self._check(cov, 4).shape == (0, 2)


class TestBatchedCommonBorders:
    """One membership call per map against the pair-by-pair loop."""

    @staticmethod
    def _check(maps, commons):
        expected = pairwise_common_borders(maps)
        assert list(commons) == list(expected)
        for pair, points in expected.items():
            assert commons[pair].pair == pair
            assert_bitwise(commons[pair].points, points)
            assert_bitwise(common_border_points(maps[pair[0]], maps[pair[1]]).points, points)

    @pytest.mark.parametrize("seed", [11, 19, 31, 100])
    def test_small_city(self, seed):
        scn = small_city_scenario(seed=seed, k=6)
        self._check(*build_all_coverage(scn))

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_default_city(self, seed):
        from skypath.scenario import build_default_scenario, place_base_stations

        base = build_default_scenario(seed=1, k=25)
        stations = place_base_stations(base.city, k=25, h_g=base.radio.bs_height, seed=seed)
        maps, commons = build_all_coverage(base.with_base_stations(stations))
        assert commons
        self._check(maps, commons)

    def test_pairs_keep_argument_order(self, params, empty_city):
        a = build_coverage_map(BaseStation(9, Point3(900, 1000, 20.0)), empty_city, params)
        b = build_coverage_map(BaseStation(2, Point3(1300, 1000, 20.0)), empty_city, params)
        ab, ba = common_border_points(a, b), common_border_points(b, a)
        assert ab.pair == (9, 2) and ba.pair == (2, 9)
        n_a = int(points_in_coverage(a.border_points, b).sum())
        assert_bitwise(ab.points[:n_a], ba.points[-n_a:])
        assert_bitwise(ab.points[n_a:], ba.points[:-n_a])

    def test_empty_and_borderless_maps_share_nothing(self, params, empty_city):
        a = build_coverage_map(BaseStation(1, Point3(1000, 1000, 20.0)), empty_city, params)
        empty = _wedge_map([], [], [], center=(1000.0, 1000.0))
        flat = _wedge_map([1.0, 2.0], [2.0, 3.0], [0.0, 0.0], center=(1000.0, 1000.0))
        assert common_border_points(a, empty).points.shape == (0, 2)
        # a map with no border points still holds the other map's points at its apex
        cb = common_border_points(a, flat)
        assert_bitwise(cb.points, a.border_points[points_in_coverage(a.border_points, flat)])
