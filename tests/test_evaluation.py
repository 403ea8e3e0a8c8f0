import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skypath import evaluation
from skypath.coverage import (
    RADIUS_SAFETY,
    LinkState,
    build_all_coverage,
    coverage_disk_radius_sq,
    network_covered,
)
from skypath.evaluation import (
    MonteCarloConfig,
    evaluate_planners,
    outage_fraction,
    run_monte_carlo,
    sample_polyline,
    summarize_reports,
    write_report_csv,
)
from skypath.geometry import GEOM_EPS, Point3
from skypath.planner import InfeasibleEndpointError, Trajectory, straight_line_plan
from skypath.scenario import (
    InvalidConfigError,
    PlacementError,
    build_default_scenario,
    default_mission,
    default_radio_params,
)

from conftest import (
    dense_network_covered,
    node_graph_base,
    open_field_scenario,
    small_city_scenario,
)

R_LOS = math.sqrt(coverage_disk_radius_sq(default_radio_params(), LinkState.LOS))


def traj(points, kind="straight"):
    return Trajectory(waypoints=tuple(Point3(x, y, 80.0) for x, y in points), kind=kind)


class TestTrajectoryLength:
    def test_two_waypoints(self):
        assert traj([(0, 0), (100, 0)]).length == pytest.approx(100.0)

    def test_default_mission_straight(self):
        t = straight_line_plan(default_mission())
        assert t.length == pytest.approx(1697.0562748477141, rel=1e-12)

    def test_interior_detour_adds_length(self):
        direct = traj([(0, 0), (100, 0)]).length
        detour = traj([(0, 0), (50, 50), (100, 0)]).length
        collinear = traj([(0, 0), (50, 0), (100, 0)]).length
        assert detour > direct
        assert collinear == pytest.approx(direct)


class TestOutageFraction:
    def test_inside_single_disk_is_zero(self):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(700.0, 1000.0), goal_xy=(1300.0, 1000.0))
        t = straight_line_plan(scn.mission)
        assert outage_fraction(t, scn) == 0.0

    def test_fully_outside_is_one(self):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(50.0, 50.0), goal_xy=(50.0, 400.0))
        t = straight_line_plan(scn.mission)
        assert outage_fraction(t, scn) == 1.0

    def test_half_in_half_out_chord(self):
        # start at the disk center, end 2r to the right: the first r of the
        # path is covered, the second r is not
        r = math.sqrt(281203.58684358007)
        scn = open_field_scenario([(500.0, 1000.0)],
                                  start_xy=(500.0, 1000.0),
                                  goal_xy=(500.0 + 2 * r, 1000.0))
        t = straight_line_plan(scn.mission)
        out = outage_fraction(t, scn, step=1.0)
        assert out == pytest.approx(0.5, abs=2.0 / (2 * r))

    def test_densification_invariance(self):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(600.0, 1000.0), goal_xy=(1400.0, 1000.0))
        sparse = traj([(600, 1000), (1400, 1000)])
        dense = traj([(600, 1000), (800, 1000), (1000, 1000), (1200, 1000), (1400, 1000)])
        a = outage_fraction(sparse, scn)
        b = outage_fraction(dense, scn)
        assert a == pytest.approx(b, abs=1.0 / 800.0)

    def test_rejects_bad_step(self):
        scn = open_field_scenario([(1000.0, 1000.0)])
        for step in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                outage_fraction(straight_line_plan(scn.mission), scn, step=step)


class TestSamplePolyline:
    def test_endpoint_included(self):
        pts = sample_polyline(np.array([[0.0, 0.0], [10.5, 0.0]]), 1.0)
        assert pts[0] == pytest.approx([0.0, 0.0])
        assert pts[-1] == pytest.approx([10.5, 0.0])
        assert len(pts) == 12

    def test_spacing_uniform(self):
        pts = sample_polyline(np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0]]), 1.0)
        gaps = np.hypot(*np.diff(pts, axis=0).T)
        assert (gaps <= 1.0 + 1e-9).all()


class TestEvaluatePlanners:
    def test_open_field_all_planners(self):
        scn = open_field_scenario(
            [(600.0, 1000.0), (1400.0, 1000.0)],
            start_xy=(300.0, 1000.0), goal_xy=(1700.0, 1000.0),
        )
        reports, trajectories = evaluate_planners(
            scn, planners=("straight", "base", "optimized", "grid"), seed=7
        )
        by_name = {r.planner: r for r in reports}
        assert set(by_name) == {"straight", "base", "optimized", "grid"}
        assert all(r.feasible for r in reports)
        assert by_name["straight"].length_m <= by_name["optimized"].length_m + 1e-9
        assert by_name["optimized"].length_m <= by_name["base"].length_m + 1e-9
        assert by_name["base"].outage == 0.0
        assert by_name["optimized"].outage == 0.0
        assert trajectories["base"].kind == "base"

    @pytest.mark.parametrize("offset", [0.0, 1e-10])
    def test_goal_at_the_start_gives_zero_length_paths(self, offset):
        from dataclasses import replace

        from skypath.scenario import Mission, build_default_scenario, place_base_stations

        base = build_default_scenario(seed=1)
        stations = place_base_stations(base.city, k=25, h_g=base.radio.bs_height, seed=2)
        start = base.mission.start
        scn = replace(base.with_base_stations(stations),
                      mission=Mission(start, Point3(start.x + offset, start.y, start.z)))
        reports, trajectories = evaluate_planners(scn, planners=evaluation.PLANNER_ORDER)
        assert [r.planner for r in reports] == list(evaluation.PLANNER_ORDER)
        assert all(r.feasible and r.outage == 0.0 for r in reports)
        for name in ("straight", "optimized", "grid"):
            assert trajectories[name].waypoints == (scn.mission.start, scn.mission.goal)

    def test_infeasible_endpoints_recorded(self):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(100.0, 100.0), goal_xy=(1000.0, 900.0))
        reports, trajectories = evaluate_planners(
            scn, planners=("straight", "base", "optimized"), seed=1
        )
        by_name = {r.planner: r for r in reports}
        assert by_name["straight"].feasible
        assert not by_name["base"].feasible
        assert not by_name["optimized"].feasible
        assert by_name["base"].length_m is None
        assert trajectories["base"] is None

    @pytest.mark.parametrize("step", [0.0, math.nan, math.inf])
    def test_bad_step_raises_without_any_trajectory(self, step):
        # the start is uncovered, so no selected planner finds a path
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(100.0, 100.0), goal_xy=(1000.0, 900.0))
        with pytest.raises(ValueError, match="finite and positive"):
            evaluate_planners(scn, planners=("base", "optimized"), outage_step=step)


def _record_network_covered(monkeypatch):
    """Record (points, mask) of every scoring ``network_covered`` call."""
    calls = []
    real = evaluation.network_covered

    def recording(points, scenario):
        mask = real(points, scenario)
        calls.append((np.array(points), mask))
        return mask

    monkeypatch.setattr(evaluation, "network_covered", recording)
    return calls


class TestStackedScoring:
    """``evaluate_planners`` scores all of a trial's trajectories with one
    ``network_covered`` call on their stacked samples."""

    def test_matches_scoring_each_trajectory_alone(self):
        scn = build_default_scenario(seed=1)
        start = scn.mission.start
        trajectories = [
            traj([(start.x, start.y), (start.x, start.y)]),  # zero length
            straight_line_plan(scn.mission),
            traj([(100.0, 200.0), (150.0, 1000.0), (100.0, 1800.0)]),  # left edge
            traj([(1900.0, 200.0), (1850.0, 1000.0), (1900.0, 1800.0)]),  # right edge
        ]
        samples = [sample_polyline(t.xy_array(), 1.0) for t in trajectories]
        alone = [network_covered(s, scn) for s in samples]
        stacked = network_covered(np.concatenate(samples), scn)
        assert np.array_equal(stacked, np.concatenate(alone))

        expected = [float(1.0 - mask.mean()) for mask in alone]
        assert evaluation._outage_fractions(trajectories, scn, 1.0) == expected
        assert evaluation._outage_fractions(trajectories[::-1], scn, 1.0) == expected[::-1]
        assert [outage_fraction(t, scn) for t in trajectories] == expected
        assert len(samples[0]) == 1 and expected[0] in (0.0, 1.0)
        assert 0.0 < expected[1] < 1.0

        # the two edge paths are more than 2 r_los apart: no station serves both
        bs_xy = np.array([bs.xy for bs in scn.base_stations])

        def serving(pts):
            d2 = ((pts[:, None, :] - bs_xy[None]) ** 2).sum(axis=2)
            return set(np.flatnonzero((d2 <= R_LOS ** 2).any(axis=0)).tolist())

        left, right = serving(samples[2]), serving(samples[3])
        assert left and right and not left & right

    def test_mask_matches_dense_reference(self, monkeypatch):
        scn = small_city_scenario(seed=8, k=5)
        calls = _record_network_covered(monkeypatch)
        reports, trajectories = evaluate_planners(scn)
        assert [r.planner for r in reports] == ["straight", "base", "optimized"]
        assert all(r.feasible for r in reports)
        assert len(calls) == 1
        points, mask = calls[0]
        assert np.array_equal(points, np.concatenate(
            [sample_polyline(t.xy_array(), 1.0) for t in trajectories.values()]))
        assert np.array_equal(mask, dense_network_covered(points, scn))
        assert [r.outage for r in reports] == [
            outage_fraction(t, scn) for t in trajectories.values()]

    def test_one_scoring_call_per_trial(self, monkeypatch):
        calls = _record_network_covered(monkeypatch)
        rows = run_monte_carlo(small_city_scenario(seed=8, k=5),
                               MonteCarloConfig(trials=3, base_seed=1))
        assert sum(r.feasible for r in rows if r.planner == "base") >= 1
        assert len(calls) == 3
        # no trajectory at all: nothing to score
        calls.clear()
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(100.0, 100.0), goal_xy=(1000.0, 900.0))
        evaluate_planners(scn, planners=("base", "optimized"))
        assert calls == []


def _all_maps_first(scn):
    """The base row as building every map first would give it: (feasible,
    note, nodes, edges, waypoints)."""
    maps, commons = build_all_coverage(scn)
    try:
        graph, found = node_graph_base(scn, maps, commons)
    except InfeasibleEndpointError as exc:
        return False, str(exc), None, None, None
    if found is None:
        return False, "no path between the mission endpoints in the feasibility graph", \
            graph.node_count, graph.edge_count, None
    return True, "", graph.node_count, graph.edge_count, found[0]


# distances from an endpoint: around r_los, where the endpoint-first check
# stops looking, around the claimed radius, where membership ends, and anywhere
_OFFSETS = st.floats(-1e-6, 1e-6)
_DISTANCES = st.one_of(
    _OFFSETS.map(lambda u: R_LOS + u),
    _OFFSETS.map(lambda u: R_LOS - RADIUS_SAFETY + GEOM_EPS + u),
    st.floats(0.0, R_LOS + 100.0),
)


class TestEndpointFirst:
    """evaluate_planners, which builds the maps near each endpoint first,
    against building every map before looking at the endpoints."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), _DISTANCES, st.floats(0.0, 2.0 * math.pi)),
                    min_size=1, max_size=5))
    def test_matches_building_every_map(self, placed):
        start, goal = (700.0, 1000.0), (1300.0, 1000.0)
        stations = []
        for at_goal, r, theta in placed:
            cx, cy = goal if at_goal else start
            stations.append((cx + r * math.cos(theta), cy + r * math.sin(theta)))
        scn = open_field_scenario(stations, start_xy=start, goal_xy=goal)
        reports, trajectories = evaluate_planners(scn, planners=("base",))
        row = reports[0]
        base = trajectories["base"]
        got = (row.feasible, row.note, row.nodes, row.edges,
               [(p.x, p.y) for p in base.waypoints] if base else None)
        assert got == _all_maps_first(scn)

    @staticmethod
    def _record_batches(monkeypatch):
        """Record the station ids of every ``build_coverage_maps`` call."""
        from skypath import coverage

        calls = []
        real = coverage.build_coverage_maps

        def recording(stations, *args, **kwargs):
            calls.append([bs.id for bs in stations])
            return real(stations, *args, **kwargs)

        monkeypatch.setattr(coverage, "build_coverage_maps", recording)
        monkeypatch.setattr(evaluation, "build_coverage_maps", recording)
        return calls

    def test_uncovered_start_stops_before_the_goal_batch(self, monkeypatch):
        # the first station is near the start but holds it only past its
        # claimed radius; the second covers the goal, the third neither
        start, goal = (700.0, 1000.0), (1300.0, 1000.0)
        scn = open_field_scenario([(start[0] - (R_LOS - 1e-3), 1000.0), goal, (1000.0, 1700.0)],
                                  start_xy=start, goal_xy=goal)
        calls = self._record_batches(monkeypatch)
        with pytest.raises(InfeasibleEndpointError, match="start"):
            evaluation._endpoint_maps(scn, evaluation.ANGULAR_STEP, evaluation.BORDER_SAMPLES)
        assert calls == [[scn.base_stations[0].id]]
        calls.clear()
        reports, _ = evaluate_planners(scn, planners=("base", "optimized"))
        assert not any(r.feasible for r in reports) and "start" in reports[0].note
        assert calls == [[scn.base_stations[0].id]]

    def test_three_batches_build_each_station_once(self, monkeypatch):
        start, goal = (700.0, 1000.0), (1300.0, 1000.0)
        # near both endpoints, near the start, near the goal, near neither
        scn = open_field_scenario([(1000.0, 1000.0), (600.0, 1000.0), (1400.0, 1000.0),
                                   (1000.0, 1700.0)], start_xy=start, goal_xy=goal)
        both, near_start, near_goal, far = (bs.id for bs in scn.base_stations)
        calls = self._record_batches(monkeypatch)
        reports, _ = evaluate_planners(scn, planners=("base", "optimized"))
        assert all(r.feasible for r in reports)
        assert calls == [[both, near_start], [near_goal], [far]]

    def test_invalid_settings_raise_before_the_endpoint_check(self):
        # no station can hold the start, and the settings are still checked first
        scn = open_field_scenario([(1800.0, 1800.0)], start_xy=(100.0, 100.0))
        with pytest.raises(InvalidConfigError):
            evaluate_planners(scn, planners=("base",), border_samples=0)
        with pytest.raises(InvalidConfigError):
            evaluate_planners(scn, planners=("base",), angular_step=0.7)

    @pytest.mark.parametrize("bad", [
        {"border_samples": 0}, {"angular_step": 0.1}, {"angular_step": 0.0},
        {"grid_step": 0.0}, {"grid_step": math.nan}, {"outage_step": 0.0},
    ])
    def test_settings_are_checked_as_montecarlo_checks_them(self, bad):
        # the straight line reads no map or grid setting; a Monte Carlo with
        # the same settings is refused before its first trial
        scn = open_field_scenario([(1000.0, 1000.0)])
        with pytest.raises(ValueError) as lib:
            evaluate_planners(scn, planners=("straight",), **bad)
        with pytest.raises(ValueError) as mc:
            MonteCarloConfig(trials=1, planners=("straight",), **bad)
        assert (type(lib.value), str(lib.value)) == (type(mc.value), str(mc.value))

    def test_unknown_planner_raises(self):
        scn = build_default_scenario(seed=1)
        with pytest.raises(ValueError, match=r"unknown planners: \['optimised'\]"):
            evaluate_planners(scn, planners=("optimised",))
        with pytest.raises(ValueError, match="unknown planners"):
            evaluate_planners(scn, planners=("base", "grid", "dijkstra"))


class TestMonteCarlo:
    def test_single_trial_deterministic(self):
        scn = small_city_scenario(seed=3, k=4)
        cfg = MonteCarloConfig(trials=2, base_seed=5, planners=("straight", "base", "optimized"))
        a = run_monte_carlo(scn, cfg)
        b = run_monte_carlo(scn, cfg)
        assert [(r.seed, r.planner, r.length_m, r.outage, r.nodes, r.edges, r.feasible)
                for r in a] == [
            (r.seed, r.planner, r.length_m, r.outage, r.nodes, r.edges, r.feasible)
            for r in b
        ]
        assert {r.seed for r in a} == {5, 6}

    def test_proposed_planners_zero_outage(self):
        scn = small_city_scenario(seed=8, k=5)
        cfg = MonteCarloConfig(trials=4, base_seed=1, planners=("base", "optimized"))
        rows = run_monte_carlo(scn, cfg)
        feasible = [r for r in rows if r.feasible]
        assert feasible, "expected at least one feasible trial"
        assert all(r.outage == 0.0 for r in feasible)

    def test_parallel_jobs_match_sequential(self):
        scn = open_field_scenario(
            [(150.0, 150.0)], start_xy=(50.0, 150.0), goal_xy=(250.0, 150.0),
            width=300.0, depth=300.0,
        )
        key = lambda rows: [(r.seed, r.planner, r.length_m, r.outage) for r in rows]
        seq = run_monte_carlo(scn, MonteCarloConfig(trials=3, base_seed=4, jobs=1))
        par = run_monte_carlo(scn, MonteCarloConfig(trials=3, base_seed=4, jobs=2))
        assert key(seq) == key(par)

    def test_failing_trial_recorded_as_infeasible_rows(self, monkeypatch):
        place = evaluation.place_base_stations

        def place_or_fail(*args, seed, **kwargs):
            if seed == 6:
                raise PlacementError("street area too small")
            return place(*args, seed=seed, **kwargs)

        monkeypatch.setattr(evaluation, "place_base_stations", place_or_fail)
        scn = small_city_scenario(seed=3, k=4)
        planners = ("straight", "base", "optimized")
        cfg = MonteCarloConfig(trials=3, base_seed=5, planners=planners, jobs=1)
        rows = run_monte_carlo(scn, cfg)
        assert [(r.seed, r.planner) for r in rows] == [
            (seed, p) for seed in (5, 6, 7) for p in planners
        ]
        bad = [r for r in rows if r.seed == 6]
        assert all(
            not r.feasible and r.length_m is None and r.outage is None
            and r.nodes is None and r.edges is None
            and r.note == "PlacementError: street area too small"
            for r in bad
        )
        assert all(r.note != bad[0].note for r in rows if r.seed != 6)
        assert [r.feasible for r in rows if r.planner == "straight" and r.seed != 6] == [
            True, True
        ]

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=1, planners=("warp",))
        for bad in ({"border_samples": 0}, {"angular_step": 0.7}, {"grid_step": 0.0},
                    {"outage_step": -1.0}, {"base_seed": -3}):
            with pytest.raises(ValueError):
                MonteCarloConfig(trials=1, **bad)

    @pytest.mark.parametrize("field, error", [
        ("angular_step", InvalidConfigError),
        ("grid_step", InvalidConfigError),
        ("outage_step", ValueError),
    ])
    @pytest.mark.parametrize("value", [0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_rejects_zero_or_non_finite_step(self, field, error, value):
        with pytest.raises(error, match="finite and positive|evenly divide"):
            MonteCarloConfig(trials=1, **{field: value})

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_fewer_than_one_job(self, jobs):
        with pytest.raises(ValueError, match="at least one job"):
            MonteCarloConfig(trials=1, jobs=jobs)

    def test_import_leaves_the_process_pool_out(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = "import sys, skypath; print('concurrent.futures.process' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestReporting:
    def test_csv_columns_and_rows(self, tmp_path):
        scn = open_field_scenario(
            [(600.0, 1000.0), (1400.0, 1000.0)],
            start_xy=(300.0, 1000.0), goal_xy=(1700.0, 1000.0),
        )
        cfg = MonteCarloConfig(trials=2, base_seed=9, planners=("straight", "base"))
        rows = run_monte_carlo(scn, cfg)
        out = tmp_path / "mc.csv"
        write_report_csv(rows, out)
        with open(out) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["seed", "planner", "length_m", "outage",
                             "nodes", "edges", "wall_ms"]
        assert len(parsed) == 1 + 2 * 2

    def test_summary_aggregates(self):
        # 300x300 field: the whole map is inside any station's disk, so every
        # re-placed trial stays feasible
        scn = open_field_scenario(
            [(150.0, 150.0)], start_xy=(50.0, 150.0), goal_xy=(250.0, 150.0),
            width=300.0, depth=300.0,
        )
        cfg = MonteCarloConfig(trials=2, base_seed=9,
                               planners=("straight", "base", "optimized"))
        rows = run_monte_carlo(scn, cfg)
        summary = summarize_reports(rows)
        entry = summary["planners"]["optimized"]
        assert entry["trials"] == 2
        assert entry["feasible"] == 2
        assert entry["mean_outage"] == 0.0
        assert entry["mean_length_m"] >= 200.0 - 1e-9
