import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skypath.geometry import Building
from skypath.scenario import (
    BaseStation,
    CityMap,
    InvalidConfigError,
    PlacementError,
    Scenario,
    ScenarioFormatError,
    build_default_scenario,
    default_mission,
    default_radio_params,
    generate_city,
    load_scenario,
    place_base_stations,
    save_scenario,
    scenario_to_dict,
)


class TestGenerateCity:
    def test_default_building_count(self):
        city = generate_city(seed=1)
        assert len(city.buildings) == (2000 // 80) ** 2 == 625
        heights = [b.height for b in city.buildings]
        assert min(heights) >= 5.0 and max(heights) <= 70.0

    def test_collapsed_height_range(self):
        city = generate_city(width=400, depth=400, height_range=(10.0, 10.0), seed=2)
        assert all(b.height == 10.0 for b in city.buildings)

    def test_determinism(self):
        a = generate_city(seed=42)
        b = generate_city(seed=42)
        assert a.buildings == b.buildings

    def test_different_seed_changes_heights(self):
        a = generate_city(seed=1)
        b = generate_city(seed=2)
        assert a.buildings != b.buildings

    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidConfigError):
            generate_city(width=-5)
        with pytest.raises(InvalidConfigError):
            generate_city(block_size=10.0, street_width=10.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name, setting", [("width", "width"), ("depth", "depth"),
                                               ("block_size", "block size"),
                                               ("rayleigh_scale", "rayleigh scale")])
    def test_rejects_non_finite_settings(self, name, setting, value):
        with pytest.raises(InvalidConfigError, match=f"{setting} must be finite and positive"):
            generate_city(**{name: value})

    def test_streets_reserved_between_footprints(self):
        city = generate_city(width=400, depth=400, block_size=80, street_width=20, seed=3)
        for b in city.buildings:
            assert (b.x_min % 80.0) == pytest.approx(10.0)
            assert (b.x_max - b.x_min) == pytest.approx(60.0)

    def test_rayleigh_shape(self):
        # pool heights from many generations: mode near the scale parameter,
        # clamp mass only at the extremes
        heights = []
        for seed in range(40):
            heights.extend(b.height for b in generate_city(seed=seed).buildings)
        heights = np.array(heights)
        assert heights.size >= 10_000
        interior = heights[(heights > 5.0) & (heights < 70.0)]
        hist, edges = np.histogram(interior, bins=26, range=(5, 70))
        mode_center = (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1]) / 2
        assert 25.0 * 0.7 <= mode_center <= 25.0 * 1.3
        # Rayleigh(25): P(H<5) ~ 2%, P(H>70) ~ 2%
        assert 0.005 < np.mean(heights == 5.0) < 0.05
        assert 0.005 < np.mean(heights == 70.0) < 0.05


class TestPlaceBaseStations:
    def test_default_placement(self):
        city = generate_city(seed=1)
        stations = place_base_stations(city, k=25, h_g=20.0, seed=1)
        assert len(stations) == 25
        assert [bs.id for bs in stations] == list(range(1, 26))
        for bs in stations:
            assert bs.position.z == 20.0
            assert not city.point_in_any_footprint(*bs.xy)

    def test_single_station_open_field(self):
        from skypath.scenario import CityMap

        city = CityMap(width=100, depth=100, buildings=())
        (bs,) = place_base_stations(city, k=1, h_g=20.0, seed=9)
        assert 0 <= bs.position.x <= 100 and 0 <= bs.position.y <= 100

    def test_determinism(self):
        city = generate_city(seed=1)
        a = place_base_stations(city, k=10, h_g=20.0, seed=5)
        b = place_base_stations(city, k=10, h_g=20.0, seed=5)
        assert a == b

    def test_placement_failure_when_streets_vanish(self):
        from skypath.geometry import Building
        from skypath.scenario import CityMap

        # one footprint swallowing almost the whole map
        city = CityMap(100, 100, (Building(0.0, 99.99, 0.0, 99.99, 30.0),))
        with pytest.raises(PlacementError):
            place_base_stations(city, k=5, h_g=20.0, seed=1)

    def test_rejects_zero_stations(self):
        city = generate_city(width=200, depth=200, seed=1)
        with pytest.raises(InvalidConfigError):
            place_base_stations(city, k=0, h_g=20.0, seed=1)


class TestScenarioValidation:
    @pytest.mark.parametrize("height", [float("nan"), float("inf"), 0.0])
    def test_building_height_must_be_finite_and_positive(self, height):
        with pytest.raises(ValueError, match="building height must be finite and positive"):
            Building(0.0, 10.0, 0.0, 10.0, height)

    @pytest.mark.parametrize("width, depth", [(float("nan"), 100.0), (100.0, float("inf")),
                                              (float("inf"), 100.0), (100.0, 0.0)])
    def test_city_extent_must_be_finite_and_positive(self, width, depth):
        with pytest.raises(InvalidConfigError, match="width and depth must be finite"):
            CityMap(width, depth, ())

    def test_uav_must_fly_above_roofs(self):
        city = generate_city(width=400, depth=400, height_range=(60.0, 70.0), seed=1)
        radio = default_radio_params(uav_altitude=65.0)
        stations = place_base_stations(city, k=2, h_g=radio.bs_height, seed=1)
        with pytest.raises(InvalidConfigError):
            Scenario(city=city, base_stations=stations, radio=radio,
                     mission=default_mission((50, 50), (350, 350), uav_altitude=65.0))

    def test_alpha_ordering_enforced(self):
        with pytest.raises(InvalidConfigError):
            default_radio_params(alpha_los=3.0, alpha_nlos=2.2)

    def test_mission_must_sit_inside_city(self):
        city = generate_city(width=400, depth=400, seed=1)
        radio = default_radio_params()
        stations = place_base_stations(city, k=2, h_g=radio.bs_height, seed=1)
        with pytest.raises(InvalidConfigError):
            Scenario(city=city, base_stations=stations, radio=radio,
                     mission=default_mission((50, 50), (900, 900)))

    def test_station_ids_must_differ(self):
        # maps are keyed by station id, so a shared id would drop a station
        scenario = build_default_scenario(seed=1)
        first, second, *rest = scenario.base_stations
        twin = BaseStation(first.id, second.position)
        with pytest.raises(InvalidConfigError, match=f"id {first.id} is used twice"):
            Scenario(city=scenario.city, base_stations=(first, twin, *rest),
                     radio=scenario.radio, mission=scenario.mission)
        with pytest.raises(InvalidConfigError):
            scenario.with_base_stations((first, twin, *rest))


class TestPersistence:
    def test_round_trip_default_scenario(self, tmp_path):
        scenario = build_default_scenario(seed=1, k=5)
        path = tmp_path / "scn.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.city == scenario.city
        assert loaded.base_stations == scenario.base_stations
        assert loaded.radio == scenario.radio
        assert loaded.mission == scenario.mission

    def test_save_load_save_is_stable(self, tmp_path):
        scenario = build_default_scenario(seed=2, k=3)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_scenario(scenario, p1)
        save_scenario(load_scenario(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_db_fields_convert_to_linear(self, tmp_path):
        scenario = build_default_scenario(seed=1, k=2)
        data = scenario_to_dict(scenario)
        assert data["radio"]["p_over_sigma2_db"] == pytest.approx(120.0)
        assert data["radio"]["snr_threshold_db"] == pytest.approx(20.0)
        assert scenario.radio.tx_power_over_noise == pytest.approx(1e12)
        assert scenario.radio.snr_threshold == pytest.approx(100.0)

    def test_alpha_violation_in_file_rejected(self, tmp_path):
        scenario = build_default_scenario(seed=1, k=2)
        data = scenario_to_dict(scenario)
        data["radio"]["alpha_los"] = 3.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidConfigError):
            load_scenario(path)

    def test_truncated_file_gives_parse_error(self, tmp_path):
        scenario = build_default_scenario(seed=1, k=2)
        path = tmp_path / "t.json"
        save_scenario(scenario, path)
        path.write_text(path.read_text()[: 200])
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert "line" in str(err.value)

    def test_missing_field_names_the_field(self, tmp_path):
        scenario = build_default_scenario(seed=1, k=2)
        data = scenario_to_dict(scenario)
        del data["radio"]["beta_los"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match="beta_los"):
            load_scenario(path)

    def test_nan_height_in_file_rejected(self, tmp_path):
        data = scenario_to_dict(build_default_scenario(seed=1, k=2))
        data["city"]["buildings"][3]["height"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))  # writes the non-standard NaN literal
        with pytest.raises(ScenarioFormatError, match="building height"):
            load_scenario(path)

    def test_wrong_version_rejected(self, tmp_path):
        scenario = build_default_scenario(seed=1, k=2)
        data = scenario_to_dict(scenario)
        data["version"] = 99
        path = tmp_path / "v.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match="version"):
            load_scenario(path)

    @settings(max_examples=25, deadline=None)
    @given(
        p_db=st.floats(80.0, 140.0),
        thr_db=st.floats(5.0, 40.0),
        a_los=st.floats(2.0, 2.5),
        extra=st.floats(0.0, 1.0),
    )
    def test_round_trip_random_radio(self, tmp_path_factory, p_db, thr_db, a_los, extra):
        radio = default_radio_params(
            p_over_sigma2_db=p_db, snr_threshold_db=thr_db,
            alpha_los=a_los, alpha_nlos=a_los + extra,
        )
        scenario = Scenario(
            city=generate_city(width=200, depth=200, seed=1),
            base_stations=place_base_stations(
                generate_city(width=200, depth=200, seed=1), k=1, h_g=radio.bs_height, seed=1
            ),
            radio=radio,
            mission=default_mission((20, 20), (180, 180)),
        )
        path = tmp_path_factory.mktemp("rt") / "s.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.radio.tx_power_over_noise == pytest.approx(
            radio.tx_power_over_noise, rel=1e-12
        )
        assert loaded.radio.snr_threshold == pytest.approx(radio.snr_threshold, rel=1e-12)
