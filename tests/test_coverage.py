import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skypath.coverage import (
    MIN_SECTOR_RADIUS,
    RADIUS_SAFETY,
    LinkState,
    _blockers,
    _border_points,
    _cells_to_wedges,
    _certified_cell_radii,
    _first_blocking_radius,
    _jump_table,
    _members,
    _radius_steps,
    build_all_coverage,
    build_coverage_map,
    build_coverage_maps,
    common_border_points,
    coverage_disk_radius_sq,
    distance_to_coverage,
    fan_blocked,
    network_covered,
    points_in_coverage,
)
from skypath.geometry import GEOM_EPS, Building, Point3
from skypath.scenario import BaseStation, CityMap, default_radio_params

from conftest import (
    border_dict,
    border_walk_oracle,
    cell_merge_oracle,
    certified_radii_oracle,
    dense_network_covered,
    direct_snr_max,
    map_distance_oracle,
    map_membership_oracle,
    march_coverage_radius,
    open_field_scenario,
    pairwise_common_borders,
    points_in_sectors,
    ray_rect_entry_oracle,
    segments_clear_buildings,
    small_city_scenario,
    snr_per_station,
)

# Frozen by independent substitution into the pathloss model with defaults
# P/sigma^2 = 1e12, threshold = 1e2, beta = 1e-4, h - h_g = 60:
#   LoS:  (1e6)**(2/2.2) - 3600
#   NLoS: (1e6)**(2/2.8) - 3600
D_LOS_SQ = 281203.58684358007
D_NLOS_SQ = 15706.977288832506
R_LOS = math.sqrt(D_LOS_SQ)  # ~530.286
R_NLOS = math.sqrt(D_NLOS_SQ)  # ~125.327
# Radial step of the march oracle for the azimuth coverage radius.
MARCH_STEP = 0.5


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
    """Single links through the fan test the direct model and the maps use."""

    def test_empty_city_everywhere_los(self, params, empty_city, bs):
        assert not fan_blocked(bs.xy, [(1400.0, 900.0)], empty_city, params)[0]

    def test_directly_above_bs(self, params, bs):
        city = CityMap(2000, 2000, (Building(900, 980, 900, 980, 70.0),))
        assert not fan_blocked(bs.xy, [bs.xy], city, params)[0]

    def test_blocked_case_matches_geometry(self, params, bs):
        # wall between the UAV and the BS, taller than the crossing altitude
        city = CityMap(2000, 2000, (Building(1040, 1060, 900, 1100, 60.0),))
        assert fan_blocked(bs.xy, [(1100.0, 1000.0)], city, params)[0]


class TestSnr:
    """The reference SNR model against values substituted by hand."""

    def test_los_value_by_substitution(self, params, empty_city, bs):
        p = [(1100.0, 1000.0)]  # 100 m offset, dz 60
        expected = 1e12 * 1e-4 * math.hypot(100.0, 60.0) ** -2.2
        assert snr_per_station(p, bs, params, empty_city)[0] == pytest.approx(expected, rel=1e-12)
        assert snr_per_station(p, bs, params, empty_city)[0] == pytest.approx(
            2838.6196238508096, rel=1e-9
        )

    def test_nlos_value_by_substitution(self, params, bs):
        city = CityMap(2000, 2000, (Building(1040, 1060, 900, 1100, 79.0),))
        p = [(1100.0, 1000.0)]
        expected = 1e12 * 1e-4 * math.hypot(100.0, 60.0) ** -2.8
        assert snr_per_station(p, bs, params, city)[0] == pytest.approx(expected, rel=1e-12)
        assert snr_per_station(p, bs, params, city)[0] == pytest.approx(
            163.32231541829287, rel=1e-9
        )

    def test_doubling_power_doubles_snr(self, params, empty_city, bs):
        doubled = default_radio_params(p_over_sigma2_db=120.0 + 10 * math.log10(2.0))
        p = [(1234.0, 876.0)]
        assert snr_per_station(p, bs, doubled, empty_city)[0] == pytest.approx(
            2.0 * snr_per_station(p, bs, params, empty_city)[0], rel=1e-9
        )

    def test_near_field_clamp(self, params, empty_city):
        low = default_radio_params(uav_altitude=80.0, bs_height=79.9999999)
        bs0 = BaseStation(id=1, position=Point3(1000.0, 1000.0, low.bs_height))
        # distance ~1e-7 clamps to 1 m
        assert snr_per_station([bs0.xy], bs0, low, empty_city)[0] == pytest.approx(
            low.tx_power_over_noise * low.beta_los, rel=1e-9
        )


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
    # a corner 150 m out, 2e-9 rad past the edge between cells 36 and 37
    "corner just past a cell edge": (
        Building(1000.0 + 150.0 * math.cos(37 * math.pi / 360 + 2e-9) - 20.0,
                 1000.0 + 150.0 * math.cos(37 * math.pi / 360 + 2e-9),
                 1000.0 + 150.0 * math.sin(37 * math.pi / 360 + 2e-9),
                 1000.0 + 150.0 * math.sin(37 * math.pi / 360 + 2e-9) + 20.0, 70.0),
    ),
    # guards of 0.07 rad and pi: many cells per critical point
    "corner 14 um from the station": (
        Building(1000.0 + 1e-5, 1050.0, 1000.0 + 1e-5, 1040.0, 50.0),
    ),
    "face 0.8 um from the station": (Building(950.0, 1900.0, 1000.0 + 8e-7, 1020.0, 70.0),),
}


def azimuth_coverage_radius(bs, theta, city, params):
    """Largest r with the whole radial segment out to r meeting the threshold."""
    r_los, r_nlos = (math.sqrt(coverage_disk_radius_sq(params, s)) for s in LinkState)
    first = _first_blocking_radius(np.array([theta % (2 * math.pi)]),
                                   _blockers(bs.xy, city, params, r_los))
    return min(r_los, max(r_nlos, first[0]))


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

        got = _certified_cell_radii([bs_c.xy for bs_c in stations], city, params, 720)
        assert got.shape == (len(stations), 720)
        for row, bs_c in zip(got, stations):
            assert_bitwise(row, certified_radii_oracle(bs_c.xy, city, params, 720))

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

    @pytest.mark.parametrize("delta", [5e-10, 2e-9, 5e-9])
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

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(cell=st.integers(0, 719), side=st.sampled_from([-1.0, 1.0]),
           offset=st.floats(0.0, 2.0), dist=st.floats(60.0, 300.0),
           width=st.floats(2.0, 60.0), depth=st.floats(2.0, 60.0),
           height=st.floats(21.0, 100.0))
    def test_claimed_probes_in_the_slack_meet_threshold(self, cell, side, offset, dist, width,
                                                        depth, height, params):
        # A building corner sits dist m out at azimuth e + side * delta, for a
        # cell edge e and delta = offset * GEOM_EPS / dist, with the footprint
        # on the far side of the corner's ray. Probes out to R_LOS within
        # GEOM_EPS / r rad of e on the corner's side sit in the slack that
        # membership grants past the edge of the wedge before the building.
        edge = np.linspace(0.0, 2 * math.pi, 721)[cell]
        az = edge + side * offset * GEOM_EPS / dist
        cx, cy = 1000.0 + dist * math.cos(az), 1000.0 + dist * math.sin(az)
        # the footprint runs from the corner along -side * (sin az, -cos az)
        sx, sy = -side * math.sin(az), side * math.cos(az)
        x0, x1 = (cx, cx + width) if sx > 0 else (cx - width, cx)
        y0, y1 = (cy, cy + depth) if sy > 0 else (cy - depth, cy)
        city = CityMap(2000, 2000, (Building(x0, x1, y0, y1, height),))
        bs_c = BaseStation(id=1, position=Point3(1000.0, 1000.0, params.bs_height))
        cov = build_coverage_map(bs_c, city, params)
        r, frac = np.meshgrid(np.linspace(R_NLOS, R_LOS, 33), np.linspace(0.0, 1.0, 17))
        theta = edge + side * frac * GEOM_EPS / r
        pts = np.column_stack([(1000.0 + r * np.cos(theta)).ravel(),
                               (1000.0 + r * np.sin(theta)).ravel()])
        claimed = points_in_coverage(pts, cov)
        below = snr_per_station(pts, bs_c, params, city) < params.snr_threshold
        assert not (claimed & below).any()

    def test_station_within_geom_eps_of_a_face_keeps_the_nlos_disk(self, params):
        # The station lies 0.8 um below a long face of a tall building. Rays
        # just above azimuth 0 graze that face and are blocked 400 m out,
        # inside the slack past the wedge that ends at 2*pi.
        y0 = 1000.0 + 8e-7
        city = CityMap(2000, 2000, (Building(950.0, 1900.0, y0, 1020.0, 70.0),))
        bs_c = BaseStation(id=1, position=Point3(1000.0, 1000.0, params.bs_height))
        cov = build_coverage_map(bs_c, city, params)
        assert cov.max_radius <= R_NLOS
        r = np.linspace(R_NLOS, R_LOS, 200)
        theta = 0.99 * GEOM_EPS / r
        pts = np.column_stack([1000.0 + r * np.cos(theta), 1000.0 + r * np.sin(theta)])
        below = snr_per_station(pts, bs_c, params, city) < params.snr_threshold
        assert below.any()
        assert not (points_in_coverage(pts, cov) & below).any()


class TestBuildCoverageMap:
    def test_open_field_full_disk(self, params, empty_city, bs):
        cov = build_coverage_map(bs, empty_city, params)
        assert cov.radii.size >= 2  # the <= pi rule forces a split
        spans = cov.ends - cov.starts
        assert spans.sum() == pytest.approx(2 * math.pi, abs=1e-9)
        np.testing.assert_allclose(cov.radii, R_LOS - RADIUS_SAFETY, rtol=0, atol=1e-9)
        assert (spans <= math.pi + 1e-12).all()

    def test_sector_invariants_on_real_city(self, params):
        scn = small_city_scenario(seed=11, k=4)
        for bs_c in scn.base_stations:
            cov = build_coverage_map(bs_c, scn.city, params)
            assert (np.diff(cov.starts) > 0.0).all()
            assert (cov.ends[:-1] <= cov.starts[1:] + 1e-12).all()  # non-overlapping
            spans = cov.ends - cov.starts
            assert ((spans > 0.0) & (spans <= math.pi + 1e-12)).all()

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
        wide = np.flatnonzero(cov.radii > 20.0)[:12]
        for start, span, radius in zip(cov.starts[wide], (cov.ends - cov.starts)[wide],
                                       cov.radii[wide]):
            for _ in range(20):
                ang = start + rng.uniform(0, 1, 2) * span
                rad = rng.uniform(0, radius, 2)
                p = np.array([cov.center[0] + rad * np.cos(ang),
                              cov.center[1] + rad * np.sin(ang)]).T
                length = np.hypot(*(p[1] - p[0]))
                lam = np.linspace(0, 1, max(3, int(length) + 1))
                seg = np.outer(1 - lam, p[0]) + np.outer(lam, p[1])
                assert points_in_sectors(seg, cov.center, np.array([start]), np.array([span]),
                                         np.array([radius])).all()

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
        assert common_border_points(a, b).shape == (a.border_count + b.border_count, 2)

    def test_distant_disks_share_nothing(self, params, empty_city):
        a = build_coverage_map(BaseStation(1, Point3(200, 200, 20.0)), empty_city, params)
        b = build_coverage_map(BaseStation(2, Point3(1800, 1800, 20.0)), empty_city, params)
        assert common_border_points(a, b).shape == (0, 2)

    def test_lens_point_count_matches_circle_geometry(self, params, empty_city):
        gap = 800.0
        a = build_coverage_map(BaseStation(1, Point3(600, 1000, 20.0)), empty_city, params,
                               border_samples=256)
        b = build_coverage_map(BaseStation(2, Point3(1400, 1000, 20.0)), empty_city, params,
                               border_samples=256)
        points = common_border_points(a, b)
        r = R_LOS - RADIUS_SAFETY
        # arc fraction of one circle inside the other: half-angle of the lens
        half_angle = math.acos(gap / (2 * r))
        expect = 2 * 256 * (half_angle / math.pi)
        assert points.shape[0] == pytest.approx(expect, abs=6)

    def test_all_points_pass_both_coverage_tests(self, params):
        scn = small_city_scenario(seed=31, k=4)
        maps, commons = build_all_coverage(scn)
        for (k, j), points in border_dict(commons).items():
            assert points_in_coverage(points, maps[k]).all()
            assert points_in_coverage(points, maps[j]).all()


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

    # the random footprints again, in one fan_blocked call of 22,262 (azimuth, building) pairs
    many = rng.uniform(400, 1600, size=(12000, 2))
    yield "random footprints, 12,000 points", station, random, many, None


class TestNetworkCovered:
    def test_fan_blocking_matches_generic_path_across_wrap(self, params):
        for name, station, buildings, pts, grazing in _fan_cases():
            city = CityMap(2000, 2000, buildings)
            fan = fan_blocked(station, pts, city, params)
            p0 = np.column_stack([pts, np.full(len(pts), params.uav_altitude)])
            p1 = np.array([*station, params.bs_height])
            generic = ~segments_clear_buildings(p0, p1, city.building_arrays())
            agree = slice(None) if grazing is None else ~grazing
            np.testing.assert_array_equal(fan[agree], generic[agree], err_msg=name)

    def test_matches_explicit_max_snr(self, params):
        scn = small_city_scenario(seed=37, k=5)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 800, size=(2500, 2))
        fast = network_covered(pts, scn)
        slow = direct_snr_max(pts, scn) >= params.snr_threshold
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("entry", ["network_covered", "points_in_coverage", "fan_blocked"])
    def test_empty_point_list_gives_empty_result(self, entry):
        scn = small_city_scenario(seed=11, k=2)
        bs = scn.base_stations[0]
        call = {
            "network_covered": lambda pts: network_covered(pts, scn),
            "points_in_coverage": lambda pts: points_in_coverage(
                pts, build_coverage_map(bs, scn.city, scn.radio)),
            "fan_blocked": lambda pts: fan_blocked(bs.xy, pts, scn.city, scn.radio),
        }[entry]
        for empty in ([], np.empty((0, 2))):
            assert call(empty).shape == (0,)

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
        for start, end, radius in zip(cov.starts.tolist(), cov.ends.tolist(), cov.radii.tolist()):
            for ang in (start, end, 0.5 * (start + end)):
                u = np.array([math.cos(ang), math.sin(ang)])
                n = np.array([-u[1], u[0]])
                radii = np.concatenate([[1e-6, 1.5e-6, 1.0, 0.5 * radius], radius + offs])
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
        scn = small_city_scenario(seed=seed, k=6)
        maps, _ = build_all_coverage(scn)
        rng = np.random.default_rng(seed)
        for cov in maps.values():
            if cov.is_empty:
                continue
            pts = self._probe_points(cov, rng)
            expected = points_in_sectors(pts, cov.center, cov.starts, cov.ends - cov.starts,
                                         cov.radii)
            np.testing.assert_array_equal(points_in_coverage(pts, cov), expected)

    def test_radius_steps_match_sector_lookup(self):
        scn = small_city_scenario(seed=103, k=6)
        maps, _ = build_all_coverage(scn)
        theta = np.random.default_rng(5).uniform(0.0, 2 * math.pi, 4000)
        for cov in maps.values():
            lookup = np.zeros_like(theta)
            for start, end, radius in zip(cov.starts, cov.ends, cov.radii):
                held = (theta >= start) & (theta < end)
                lookup = np.where(held, np.maximum(lookup, radius), lookup)
            jumps, before, after = _steps_alone(cov)
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
        ([1.0, 1.0 - 4e-13], [1.0 + 5e-13, 2.0], [10.0, 20.0]),  # a start goes down
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
        jumps, before, after = _steps_alone(cov)
        # the two edges of the joint are one jump, at the smaller angle
        assert jumps.tolist() == [0.0, edge, 2.0]
        assert before.tolist() == [0.0, 10.0, 20.0]
        assert after.tolist() == [10.0, 20.0, 0.0]


class TestDistanceToCoverage:
    """``distance_to_coverage`` against the wedge-by-wedge distance oracle."""

    @staticmethod
    def _check(cov, pts):
        for p in pts:
            got, want = distance_to_coverage(p, cov), map_distance_oracle(p, cov)
            assert got == pytest.approx(want, rel=0.0, abs=1e-9), (p, got, want)

    @staticmethod
    def _probe_points(cov, rng):
        """Random points, points around the apex, inside and just outside each
        wedge, in the gaps between wedges and across the 0 / 2*pi wrap."""
        c = np.asarray(cov.center)
        rad = max(cov.max_radius, 1.0) * 1.5
        pts = [c + rng.uniform(-rad, rad, size=(300, 2))]
        ang = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        for r in (0.0, 0.5 * GEOM_EPS, GEOM_EPS, 2 * GEOM_EPS, 1.0):
            pts.append(c + r * np.column_stack([np.cos(ang), np.sin(ang)]))
        mid = 0.5 * (cov.starts + cov.ends)
        gap_mid = 0.5 * (cov.ends + np.append(cov.starts[1:], cov.starts[0] + 2 * math.pi))
        for theta, radius in ((mid, 0.5 * cov.radii), (mid, cov.radii + 3.0),
                              (gap_mid, 0.5 * cov.radii), (gap_mid, cov.radii + 3.0)):
            pts.append(c + radius[:, None] * np.column_stack([np.cos(theta), np.sin(theta)]))
        wrap = np.array([-1e-9, 0.0, 1e-9, 1e-3, -1e-3])
        for r in (1.0, 50.0, cov.max_radius + 1.0):
            pts.append(c + r * np.column_stack([np.cos(wrap), np.sin(wrap)]))
        return np.vstack(pts)

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_small_city_maps(self, seed):
        scn = small_city_scenario(seed=seed, k=6)
        maps, _ = build_all_coverage(scn)
        rng = np.random.default_rng(seed)
        for cov in maps.values():
            if not cov.is_empty:
                self._check(cov, self._probe_points(cov, rng))

    @pytest.mark.parametrize("starts, ends, radii", [
        ([0.5], [2.0], [100.0]),                                    # one wedge
        ([0.2, 1.5, 4.0], [1.0, 3.0, 5.5], [30.0, 30.0, 120.0]),    # gaps
        ([0.0, 1.5, 3.0, 4.5], [1.5, 3.0, 4.5, 2 * math.pi], [40.0, 90.0, 60.0, 90.0]),  # wraps
        ([5.0], [2 * math.pi], [80.0]),                             # ends at 2*pi
        ([1.0, 2.0], [2.0, 3.0], [0.0, 25.0]),                      # zero-radius wedge
        ([1.0, 2.0], [2.0, 3.0], [0.0, 0.0]),                       # all radii zero
    ])
    def test_hand_built_maps(self, starts, ends, radii):
        cov = _wedge_map(starts, ends, radii, center=(3.0, -4.0))
        self._check(cov, self._probe_points(cov, np.random.default_rng(0)))

    def test_known_distances(self):
        cov = _wedge_map([0.0], [math.pi / 2], [10.0])
        assert distance_to_coverage((5.0, 5.0), cov) == 0.0
        assert distance_to_coverage((20.0, 0.0), cov) == pytest.approx(10.0)
        assert distance_to_coverage((3.0, -4.0), cov) == pytest.approx(4.0)  # below the x edge
        assert distance_to_coverage((-3.0, -4.0), cov) == pytest.approx(5.0)  # nearest the apex
        flat = _wedge_map([1.0], [2.0], [0.0])
        assert distance_to_coverage((0.5 * GEOM_EPS, 0.0), flat) == 0.5 * GEOM_EPS

    def test_empty_map_is_infinitely_far(self):
        empty = _wedge_map([], [], [])
        assert distance_to_coverage((0.0, 0.0), empty) == math.inf
        assert map_distance_oracle((0.0, 0.0), empty) == math.inf


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

        *got, counts = _cells_to_wedges(radii[None, :], merge_tol, min_radius)
        want = cell_merge_oracle(radii, merge_tol, min_radius)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
        assert counts.tolist() == [len(want[0])]
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
        radii = _certified_cell_radii([bs_c.xy for bs_c in scn.base_stations], scn.city,
                                      params, 720)
        for row in radii:
            self._check(np.maximum(row - RADIUS_SAFETY, 0.0), RADIUS_MERGE_TOL)


def _wedge_map(starts, ends, radii, center=(0.0, 0.0)):
    """A hand-built map. At the origin no rounding against the centre hides a
    difference in the last bits of a border point."""
    from skypath.coverage import CoverageMap

    return CoverageMap(7, center, starts, ends, radii, np.empty((0, 2)))


QS = [1, 4, 64, 257]
TAU = 2 * math.pi


def _steps_alone(cov):
    """``_radius_steps`` of one map: its jump angles, R before and R after."""
    return _radius_steps(cov.starts, cov.ends, cov.radii, [cov.radii.size])[:3]


class TestStackedRadiusSteps:
    """``_radius_steps`` on a stack of maps, as ``_jump_table`` calls it,
    against the per-map calls concatenated."""

    @staticmethod
    def _hand_built():
        return [
            _wedge_map([0.5, 2.0], [1.5, 3.0], [40.0, 40.0]),                  # one radius, a gap
            _wedge_map([0.0, math.pi], [math.pi, TAU], [25.0, 25.0]),          # no jump at all
            _wedge_map([1.0, 4.0, 5.0], [3.0, 5.0, TAU], [10.0, 30.0, 20.0]),  # last ends at 2*pi
            _wedge_map([0.0, 1.0], [1.0 + 4e-16, 2.0], [10.0, 20.0], center=(3.0, -4.0)),  # joint
            _wedge_map([], [], []),
        ]

    @staticmethod
    def _check(maps):
        stacked = _radius_steps(*(np.concatenate([getattr(cov, a) for cov in maps])
                                  for a in ("starts", "ends", "radii")),
                                [cov.radii.size for cov in maps])
        alone = [_radius_steps(cov.starts, cov.ends, cov.radii, [cov.radii.size]) for cov in maps]
        for i, got in enumerate(stacked):
            assert_bitwise(got, np.concatenate([steps[i] for steps in alone]))
        # the jump table reads the same steps: map m's block of (map, angle)
        # keys has real part m and its own table's angles, bit for bit
        table = _jump_table(maps)
        per_map = [_jump_table([cov]) for cov in maps]
        blocks = np.split(table[0], np.cumsum([t[0].size for t in per_map])[:-1])
        for m, (block, t) in enumerate(zip(blocks, per_map)):
            assert (block.real == m).all()
            assert_bitwise(block.imag, t[0].imag)
        for i in range(1, 5):
            assert_bitwise(table[i], np.concatenate([t[i] for t in per_map]))
        return stacked

    def test_hand_built_maps(self):
        maps = self._hand_built()
        *_, counts = self._check(maps)
        assert counts.tolist() == [4, 0, 5, 3, 0]
        jumps, before, after = _steps_alone(maps[2])
        # the gap after the wedge ending at 2*pi starts at angle 0 and goes first
        assert jumps.tolist() == [0.0, 1.0, 3.0, 4.0, 5.0]
        assert before.tolist() == [20.0, 0.0, 10.0, 0.0, 30.0]
        assert after.tolist() == [0.0, 10.0, 0.0, 30.0, 20.0]

    def test_no_maps(self):
        """No maps: an empty jump table, and members with no slots."""
        keys, *columns = _jump_table([])
        assert keys.shape == (0,) and keys.dtype == complex
        for column in columns:
            assert column.shape == (0,) and column.dtype == float
        none = np.empty(0, dtype=int)
        members = _members(np.zeros((3, 2)), [], none, none)
        assert members.slot.shape == (0, 3) and members.node.size == 0
        assert all(column.size == 0 for column in members.table)

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_built_maps_with_hand_built_ones(self, seed):
        from skypath.scenario import build_default_scenario, place_base_stations

        base = build_default_scenario(seed=1, k=25)
        stations = place_base_stations(base.city, k=25, h_g=base.radio.bs_height, seed=seed)
        maps = build_coverage_maps(stations, base.city, base.radio)
        assert not any(hasattr(cov, "radius_steps") for cov in maps)
        hand = self._hand_built()
        self._check(hand[:2] + maps[:12] + hand[2:] + maps[12:])

    def test_built_map_after_a_thousand_empty_maps(self):
        """A map's block of the table equals its own table at any stack
        position: a float offset of 4*pi*m would round its angles here."""
        from skypath.scenario import build_default_scenario

        base = build_default_scenario(seed=1, k=25)
        cov = build_coverage_maps(base.base_stations[:1], base.city, base.radio)[0]
        assert cov.radii.size > 0
        self._check([_wedge_map([], [], [])] * 1000 + [cov])


class TestBorderWalkFromArrays:
    """The array border walk against the item-by-item walk."""

    @staticmethod
    def _check(cov, q):
        points, drawn = _border_points(cov.center, cov.starts, cov.ends, cov.radii,
                                       [cov.radii.size], q)
        assert_bitwise(points, border_walk_oracle(cov, q))
        assert drawn.tolist() == [points.shape[0]]
        return points

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("seed", [11, 19, 23, 29])
    def test_small_city_maps(self, seed, q):
        scn = small_city_scenario(seed=seed, k=6)
        for cov in build_coverage_maps(scn.base_stations, scn.city, scn.radio, border_samples=q):
            assert_bitwise(cov.border_points.reshape(-1, 2), border_walk_oracle(cov, q))

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


def _stations(xys, ids=None, height=20.0):
    ids = range(1, len(xys) + 1) if ids is None else ids
    return [BaseStation(i, Point3(x, y, height)) for i, (x, y) in zip(ids, xys)]


class TestBatchBuilder:
    """Maps built together in one ``build_coverage_maps`` call against each
    station's map built alone."""

    @staticmethod
    def _check(stations, city, params, **settings):
        batch = build_coverage_maps(stations, city, params, **settings)
        assert [cov.bs_id for cov in batch] == [bs.id for bs in stations]
        for got, bs in zip(batch, stations):
            alone = build_coverage_maps([bs], city, params, **settings)[0]
            assert got.center == bs.xy == alone.center
            for a, b in zip((got.starts, got.ends, got.radii, got.border_points),
                            (alone.starts, alone.ends, alone.radii, alone.border_points)):
                assert_bitwise(a, b)
        return batch

    @pytest.mark.parametrize("seed", [100, 101, 102, 103, 104])
    def test_default_city(self, seed):
        from skypath.scenario import build_default_scenario, place_base_stations

        base = build_default_scenario(seed=1, k=25)
        stations = place_base_stations(base.city, k=25, h_g=base.radio.bs_height, seed=seed)
        batch = self._check(stations, base.city, base.radio, border_samples=64)
        assert all(cov.border_count == 64 for cov in batch)

    @pytest.mark.parametrize("seed", [11, 19, 23, 29])
    def test_small_city(self, seed, params):
        scn = small_city_scenario(seed=seed, k=6)
        self._check(scn.base_stations, scn.city, params)

    @pytest.mark.parametrize("layout", ["station on a footprint edge", "station inside a footprint"])
    def test_station_in_a_footprint(self, layout, params):
        # the first station lies in a footprint's closed extent, so that
        # building blocks every azimuth; the others see it from outside
        city = CityMap(2000, 2000, CERTIFIED_LAYOUTS[layout])
        self._check(_stations([(1000.0, 1000.0), (1150.0, 1000.0), (900.0, 1100.0)]), city, params)

    def test_empty_city(self, params, empty_city):
        batch = self._check(_stations([(1000.0, 1000.0), (300.0, 1700.0), (1990.0, 10.0)]),
                            empty_city, params)
        assert all((cov.radii == batch[0].radii[0]).all() for cov in batch)

    def test_unreachable_threshold_gives_empty_maps(self, empty_city):
        harsh = default_radio_params(snr_threshold_db=80.0)
        batch = self._check(_stations([(1000.0, 1000.0), (400.0, 400.0)]), empty_city, harsh)
        assert all(cov.is_empty and cov.border_count == 0 for cov in batch)

    @pytest.mark.parametrize("merge_tol", [0.0, -1.0])
    def test_non_positive_merge_tolerance(self, merge_tol, params):
        # the stacked cell merge against one row at a time, where every cell
        # starts its own group
        scn = small_city_scenario(seed=19, k=4)
        centers = np.array([bs.xy for bs in scn.base_stations])
        radii = _certified_cell_radii(centers, scn.city, params, 720) - RADIUS_SAFETY
        radii = np.maximum(radii, 0.0)
        *stacked, counts = _cells_to_wedges(radii, merge_tol, MIN_SECTOR_RADIUS)
        assert counts.sum() == stacked[0].size
        cuts = np.cumsum([0, *counts])
        for row, lo, hi in zip(radii, cuts[:-1], cuts[1:]):
            *alone, count = _cells_to_wedges(row[None, :], merge_tol, MIN_SECTOR_RADIUS)
            assert count.tolist() == [hi - lo]
            for a, b in zip(stacked, alone):
                assert_bitwise(a[lo:hi], b)

    def test_one_station(self, params):
        scn = small_city_scenario(seed=23, k=3)
        self._check(scn.base_stations[1:2], scn.city, params)

    def test_duplicate_positions(self, params):
        scn = small_city_scenario(seed=11, k=2)
        xy = scn.base_stations[0].xy
        batch = self._check(_stations([xy, scn.base_stations[1].xy, xy], ids=[4, 5, 6]),
                            scn.city, params)
        assert_bitwise(batch[0].border_points, batch[2].border_points)

    def test_unsorted_ids_keep_their_order(self, params):
        scn = small_city_scenario(seed=29, k=3)
        xys = [bs.xy for bs in scn.base_stations]
        self._check(_stations(xys, ids=[9, 2, 5]), scn.city, params)

    def test_no_stations(self, params, empty_city):
        assert build_coverage_maps([], empty_city, params) == []


class TestBatchedCommonBorders:
    """One membership call per map against the pair-by-pair loop."""

    @staticmethod
    def _check(maps, commons):
        points, pairs, cuts = commons
        # pairs (a, b), a < b, in strictly increasing order, none empty, and
        # every point in one of them
        assert pairs.shape == (cuts.size - 1, 2) and (pairs[:, 0] < pairs[:, 1]).all()
        step = np.diff(pairs, axis=0)
        assert ((step[:, 0] > 0) | ((step[:, 0] == 0) & (step[:, 1] > 0))).all()
        assert cuts[0] == 0 and (np.diff(cuts) > 0).all() and cuts[-1] == len(points)
        expected = pairwise_common_borders(maps)
        got = border_dict(commons)
        assert list(got) == list(expected)
        for pair, points in expected.items():
            assert_bitwise(got[pair], points)
            assert_bitwise(common_border_points(maps[pair[0]], maps[pair[1]]), points)

    @pytest.mark.parametrize("seed", [11, 19, 31, 100])
    def test_small_city(self, seed):
        scn = small_city_scenario(seed=seed, k=6)
        self._check(*build_all_coverage(scn))

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_default_city(self, seed, k=25):
        from skypath.scenario import build_default_scenario, place_base_stations

        base = build_default_scenario(seed=1, k=k)
        stations = place_base_stations(base.city, k=k, h_g=base.radio.bs_height, seed=seed)
        maps, commons = build_all_coverage(base.with_base_stations(stations))
        assert commons
        self._check(maps, commons)

    @pytest.mark.parametrize("k", [50, 100])
    @pytest.mark.parametrize("seed", [100, 101, 102, 103])
    def test_default_city_more_stations(self, seed, k):
        self.test_default_city(seed, k)

    def test_pairs_keep_argument_order(self, params, empty_city):
        a = build_coverage_map(BaseStation(9, Point3(900, 1000, 20.0)), empty_city, params)
        b = build_coverage_map(BaseStation(2, Point3(1300, 1000, 20.0)), empty_city, params)
        ab, ba = common_border_points(a, b), common_border_points(b, a)
        n_a = int(points_in_coverage(a.border_points, b).sum())
        assert 0 < n_a < ab.shape[0]
        assert_bitwise(ab[:n_a], a.border_points[points_in_coverage(a.border_points, b)])
        assert_bitwise(ab[:n_a], ba[-n_a:])
        assert_bitwise(ab[n_a:], ba[:-n_a])

    def test_empty_and_borderless_maps_share_nothing(self, params, empty_city):
        a = build_coverage_map(BaseStation(1, Point3(1000, 1000, 20.0)), empty_city, params)
        empty = _wedge_map([], [], [], center=(1000.0, 1000.0))
        flat = _wedge_map([1.0, 2.0], [2.0, 3.0], [0.0, 0.0], center=(1000.0, 1000.0))
        assert common_border_points(a, empty).shape == (0, 2)
        # a map with no border points still holds the other map's points at its apex
        assert_bitwise(common_border_points(a, flat),
                       a.border_points[points_in_coverage(a.border_points, flat)])


def _cut_map(s, gap, center):
    """A map around ``center`` whose wedges start at 0, at azimuth s, 3e-9 rad
    on (a sliver narrower than the angular slack, followed by the widest
    wedge) and 2 and 4 rad on; with ``gap`` the wedge ending at s is left out."""
    radius = {s: 40.0, (s + 3e-9) % TAU: 80.0, (s + 2.0) % TAU: 55.0, (s + 4.0) % TAU: 60.0}
    cuts = sorted({0.0, TAU, *radius})
    starts, ends = cuts[:-1], cuts[1:]
    radii = [radius.get(a, 45.0) for a in starts]
    if gap and s > 0.0:
        i = starts.index(s) - 1
        del starts[i], ends[i], radii[i]
    return _wedge_map(starts, ends, radii, center=center)


class TestStackedMembership:
    """The (point, map) row kernel against the one-map oracle, bit for bit."""

    CENTER = (1000.0, 1000.0)

    @staticmethod
    def _check(xy, maps, point, which):
        got = points_in_coverage(xy, maps, point, which)
        want = [bool(map_membership_oracle(xy[p], maps[m])[0]) for p, m in zip(point, which)]
        np.testing.assert_array_equal(got, want)
        return got

    def test_azimuths_at_and_near_wedge_starts(self):
        rng = np.random.default_rng(17)
        c = np.array(self.CENTER)
        theta, r = np.meshgrid(
            np.concatenate([rng.uniform(0.0, TAU, 6), [0.0, 1e-9, -1e-9, math.pi, -math.pi / 2]]),
            [30.0, 40.0 + 5e-7, 55.0, 60.0 + 1e-6, 80.0 - 1e-7, 90.0])
        theta, r = theta.ravel(), r.ravel()
        xy = c + r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
        az = np.arctan2(xy[:, 1] - c[1], xy[:, 0] - c[0])
        az = np.where(az < 0.0, az + TAU, az)  # as the kernel measures them
        maps, point, which = [], [], []
        for i, a in enumerate(az.tolist()):
            for k in range(-4, 5):
                s = min(max(_ulp_steps(a, k), 0.0), math.nextafter(TAU, 0.0))
                for gap in (False, True):
                    point.append(i)
                    which.append(len(maps))
                    maps.append(_cut_map(s, gap, self.CENTER))
        # every point against a few other maps too, the rows shuffled and some repeated
        point += rng.integers(0, xy.shape[0], 400).tolist()
        which += rng.integers(0, len(maps), 400).tolist()
        order = rng.permutation(np.concatenate([np.arange(len(point)),
                                                rng.integers(0, len(point), 50)]))
        got = self._check(xy, maps, np.array(point)[order], np.array(which)[order])
        assert got.any() and not got.all()

    def test_apex_and_degenerate_maps(self):
        c = np.array(self.CENTER)
        offsets = [0.0, 0.5 * GEOM_EPS, GEOM_EPS, 1.5 * GEOM_EPS, 10.0, 59.0]
        xy = np.concatenate([c + np.column_stack([offsets, np.zeros(6)]),
                             c + np.column_stack([np.zeros(6), offsets[::-1]])])
        maps = [
            _wedge_map([1.0], [2.0], [50.0], center=self.CENTER),  # one wedge
            _wedge_map([0.0], [math.pi], [60.0], center=self.CENTER),
            _wedge_map([], [], [], center=self.CENTER),  # no wedges
            _wedge_map([1.0, 2.0], [2.0, 3.0], [0.0, 0.0], center=self.CENTER),  # zero radii
            _cut_map(0.5, True, self.CENTER),
        ]
        point, which = np.meshgrid(np.arange(xy.shape[0]), np.arange(len(maps)))
        got = self._check(xy, maps, point.ravel(), which.ravel())
        assert got.any() and not got.all()

    def test_rows_in_any_order(self):
        scn = small_city_scenario(seed=19, k=6)
        maps, _ = build_all_coverage(scn)
        covs = [maps[k] for k in sorted(maps)]
        rng = np.random.default_rng(3)
        xy = rng.uniform(0.0, 800.0, (300, 2))
        point = rng.integers(0, 300, 3000)
        which = rng.integers(0, len(covs), 3000)
        got = self._check(xy, covs, point, which)
        assert got.any() and not got.all()
        # one map at a time, every point: the frozen one-map call
        for cov in covs:
            np.testing.assert_array_equal(points_in_coverage(xy, cov),
                                          map_membership_oracle(xy, cov))

    def test_no_rows(self):
        cov = _cut_map(1.0, False, self.CENTER)
        empty = np.zeros(0, dtype=int)
        assert points_in_coverage(np.empty((0, 2)), cov).shape == (0,)
        assert points_in_coverage(np.ones((3, 2)), [cov], empty, empty).shape == (0,)
        assert points_in_coverage(np.ones((3, 2)), [], empty, empty).shape == (0,)


def _ulp_steps(x, k):
    """x moved k ulps up (k > 0) or down (k < 0)."""
    toward = math.inf if k > 0 else -math.inf
    for _ in range(abs(k)):
        x = math.nextafter(x, toward)
    return x


def _boundary_cloud(stations, radii, ulps=2):
    """Points at x = bx +/- r and up to ``ulps`` ulps either side, at y = by,
    and the same with the roles of x and y swapped, for every station and
    radius: the points the x window of ``network_covered`` must not drop."""
    pts = []
    for bx, by in stations:
        for r in radii:
            for sign in (1.0, -1.0):
                for k in range(-ulps, ulps + 1):
                    pts.append((_ulp_steps(bx + sign * r, k), by))
                    pts.append((bx, _ulp_steps(by + sign * r, k)))
    return np.array(pts).reshape(-1, 2)


def _exact_boundary_points(bx, by, d_sq, rng, tries=400):
    """Points whose squared distance from (bx, by), rounded as
    ``network_covered`` rounds it, equals d_sq exactly."""
    r = math.sqrt(d_sq)
    found = []
    for _ in range(tries):
        u = rng.uniform(0.9, 1.0)
        dx = r * u
        dy = math.sqrt(max(d_sq - dx * dx, 0.0))
        for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            x, y = bx + sx * dx, by + sy * dy
            if (x - bx) * (x - bx) + (y - by) * (y - by) == d_sq:
                found.append((x, y))
    return np.array(found).reshape(-1, 2)


def _scenario_with(buildings, stations, params):
    """A 3 km city holding ``buildings`` and the given stations, minus any
    station inside a footprint (a scenario rejects those)."""
    from skypath.scenario import Mission, Scenario

    city = CityMap(3000.0, 3000.0, tuple(buildings))
    stations = [(x, y) for x, y in stations if not city.point_in_any_footprint(x, y)]
    return Scenario(
        city=city,
        base_stations=tuple(
            BaseStation(id=i + 1, position=Point3(x, y, params.bs_height))
            for i, (x, y) in enumerate(stations)
        ),
        radio=params,
        mission=Mission(start=Point3(0.0, 0.0, params.uav_altitude),
                        goal=Point3(1.0, 1.0, params.uav_altitude)),
    )


def _default_placement(seed):
    from skypath.scenario import build_default_scenario, place_base_stations

    base = build_default_scenario(seed=1, k=25)
    stations = place_base_stations(base.city, k=25, h_g=base.radio.bs_height, seed=seed)
    return base.with_base_stations(stations)


def assert_same_mask(points, scenario):
    got = network_covered(points, scenario)
    expected = dense_network_covered(points, scenario)
    assert got.dtype == np.bool_ and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    return got


class TestWindowedDirectModel:
    """``network_covered``'s per-station x windows against the dense matrix."""

    @staticmethod
    def _checked(monkeypatch, module):
        seen = []

        def check(points, scenario):
            seen.append(len(points))
            return assert_same_mask(points, scenario)

        monkeypatch.setattr(module, "network_covered", check)
        return seen

    @pytest.mark.parametrize("seed", [200, 201, 202, 203])
    def test_every_grid_call(self, monkeypatch, seed):
        from skypath import planner

        seen = self._checked(monkeypatch, planner)
        planner.grid_baseline_plan(_default_placement(seed))
        assert len(seen) >= 5  # lattice, four edge directions, then the snaps

    def test_outage_samples(self, monkeypatch):
        from skypath import evaluation

        seen = self._checked(monkeypatch, evaluation)
        for seed in range(100, 110):
            evaluation.evaluate_planners(_default_placement(seed))
        assert len(seen) >= 10

    @pytest.mark.parametrize("layout", ["open field", "small city"])
    def test_points_on_and_next_to_the_window_edges(self, params, layout):
        rng = np.random.default_rng(5)
        buildings = small_city_scenario(seed=37).city.buildings if layout == "small city" else ()
        radii = (R_LOS, R_NLOS)
        for _ in range(40):
            scn = _scenario_with(buildings, rng.uniform(0.0, 900.0, size=(3, 2)), params)
            stations = [bs.xy for bs in scn.base_stations]
            pts = np.vstack([_boundary_cloud(stations, radii),
                             rng.uniform(-200.0, 1000.0, size=(300, 2))])
            assert_same_mask(pts, scn)

    def test_exact_disk_radii(self, params):
        # In an open field the LoS disk decides; inside RINGED only the NLoS disk does.
        rng = np.random.default_rng(9)
        for d_sq, buildings in ((D_LOS_SQ, ()), (D_NLOS_SQ, RINGED)):
            pts = _exact_boundary_points(1000.0, 1000.0, d_sq, rng)
            assert len(pts) > 0
            scn = _scenario_with(buildings, [(1000.0, 1000.0)], params)
            assert network_covered(pts, scn).all()
            assert_same_mask(pts, scn)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hypothesis_clouds(self, params, data):
        coord = st.floats(0.0, 2000.0, allow_nan=False)
        stations = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
        # repeated coordinates: stations sharing an x, points sharing the stations' x
        if data.draw(st.booleans()):
            stations.append((stations[0][0], data.draw(coord)))
        radii = data.draw(st.lists(st.sampled_from([R_LOS, R_NLOS, 0.0, 1.0]),
                                   min_size=1, max_size=2))
        pts = _boundary_cloud(stations, radii, ulps=data.draw(st.integers(0, 2)))
        extra = data.draw(st.lists(st.tuples(coord, coord), max_size=20))
        pts = np.vstack([pts, np.array(extra).reshape(-1, 2)])
        buildings = small_city_scenario(seed=37).city.buildings if data.draw(st.booleans()) \
            else RINGED
        assert_same_mask(pts, _scenario_with(buildings, stations, params))

    @pytest.mark.parametrize("case", [
        "no points", "one point", "one station",
        "repeated x", "stations left of every point", "stations right of every point",
        "station without LoS candidates", "no stations",
    ])
    def test_edge_cases(self, params, case):
        buildings = small_city_scenario(seed=37).city.buildings
        rng = np.random.default_rng(3)
        cloud = rng.uniform(0.0, 800.0, size=(400, 2))
        stations = [(240.0, 320.0), (640.0, 480.0), (400.0, 400.0), (80.0, 720.0)]
        pts = {
            "no points": [],
            "one point": [[250.0, 330.0]],
            "repeated x": np.column_stack([np.repeat([200.0, 330.5, 600.0], 150),
                                           rng.uniform(0.0, 800.0, 450)]),
            "stations left of every point": cloud + [1500.0, 0.0],
        }.get(case, cloud)
        stations = {
            "one station": stations[:1],
            "stations left of every point": [(1000.0, 300.0), (1200.0, 500.0), (1400.0, 100.0)],
            "stations right of every point": [(900.0, 300.0), (1100.0, 500.0), (1300.0, 100.0)],
            "station without LoS candidates": stations + [(2900.0, 400.0), (400.0, 2900.0)],
            "no stations": [],
        }.get(case, stations)
        scn = _scenario_with(buildings, stations, params)
        assert len(scn.base_stations) == len(stations)
        assert_same_mask(pts, scn)
