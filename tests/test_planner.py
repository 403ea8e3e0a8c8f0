import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skypath import coverage, planner
from skypath.coverage import (
    CoverageMap,
    _members,
    _segments_clear,
    _slots_clear,
    build_all_coverage,
    build_coverage_map,
    points_in_coverage,
)
from skypath.evaluation import sample_polyline
from skypath.geometry import Point3
from skypath.planner import (
    InfeasibleEndpointError,
    PlanGraph,
    _free_search,
    Trajectory,
    base_trajectory,
    build_feasibility_graph,
    build_refined_graph,
    feasibility_graph_size,
    grid_baseline_plan,
    line_in_coverage,
    optimize_trajectory,
    save_trajectory,
    segments_in_coverage,
    shortest_path,
    straight_line_plan,
)
from skypath.scenario import (InvalidConfigError, build_default_scenario, default_mission,
                              place_base_stations)

from conftest import (assert_edges_covered, border_table, direct_snr_max, free_search_oracle,
                      line_check_tie, node_graph_base, open_field_scenario, refined_graph_oracle,
                      sampled_line_in_coverage, small_city_scenario)

R_CLAIMED = math.sqrt(281203.58684358007) - 0.01  # claimed open-field radius


def graph_from_edges(n, edges):
    xy = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return PlanGraph(xy=xy, edges=tuple(edges))


def path_length(graph, path):
    """Summed Euclidean legs of a node path, each by ``math.hypot``."""
    return sum(math.hypot(*(graph.xy[a] - graph.xy[b])) for a, b in zip(path, path[1:]))


class TestShortestPath:
    def test_src_equals_dst(self):
        g = graph_from_edges(2, [(0, 1, 1.0)])
        assert shortest_path(g, 0, 0) == [0]

    def test_disconnected_returns_none(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert shortest_path(g, 0, 3) is None

    def test_direct_edge_vs_two_hop(self):
        g = graph_from_edges(3, [(0, 2, 5.0), (0, 1, 3.0), (1, 2, 4.0)])
        assert shortest_path(g, 0, 2) == [0, 2]
        g2 = graph_from_edges(3, [(0, 2, 8.0), (0, 1, 3.0), (1, 2, 4.0)])
        assert shortest_path(g2, 0, 2) == [0, 1, 2]

    def test_deterministic_tie_break(self):
        # two equal-cost routes: via node 1 and via node 2; lower id wins
        g = graph_from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        assert shortest_path(g, 0, 3) == [0, 1, 3]

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_enumeration(self, data):
        n = data.draw(st.integers(2, 8))
        density = data.draw(st.floats(0.2, 0.9))
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    edges.append((i, j, float(rng.uniform(0.1, 10.0))))
        g = graph_from_edges(n, edges)
        got = shortest_path(g, 0, n - 1)
        best_cost = _brute_force_cost(n, edges)
        if got is None:
            assert best_cost is None
        else:
            cost = _path_cost(got, edges)
            assert best_cost is not None
            assert cost == pytest.approx(best_cost, rel=1e-12)


def _brute_force_cost(n, edges):
    w = {}
    for u, v, c in edges:
        w[(u, v)] = w[(v, u)] = c
    best = None
    for k in range(0, n - 1):
        for mid in itertools.permutations(range(1, n - 1), k):
            path = [0, *mid, n - 1]
            cost = 0.0
            ok = True
            for a, b in zip(path, path[1:]):
                if (a, b) not in w:
                    ok = False
                    break
                cost += w[(a, b)]
            if ok and (best is None or cost < best):
                best = cost
    return best


def _path_cost(path, edges):
    w = {}
    for u, v, c in edges:
        w[(u, v)] = w[(v, u)] = c
    return sum(w[(a, b)] for a, b in zip(path, path[1:]))


class TestFeasibilityGraph:
    def test_single_bs_covering_both_endpoints(self):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(700.0, 1000.0), goal_xy=(1300.0, 1000.0))
        maps, commons = build_all_coverage(scn)
        g = build_feasibility_graph(scn, maps, commons)
        assert g.node_count == 3
        assert g.edge_count == 2
        base = base_trajectory(scn, maps, commons, graph=g)
        assert [(p.x, p.y) for p in base.trajectory.waypoints] == [
            (700.0, 1000.0), (1000.0, 1000.0), (1300.0, 1000.0)
        ]
        assert base.visit_indices == (1,)

    def test_disjoint_disks_disconnected(self):
        scn = open_field_scenario([(300.0, 1000.0), (1700.0, 1000.0)],
                                  start_xy=(300.0, 1000.0), goal_xy=(1700.0, 1000.0))
        maps, commons = build_all_coverage(scn)
        assert commons.points.shape == (0, 2) and commons.pairs.shape == (0, 2)
        assert commons.cuts.tolist() == [0]
        g = build_feasibility_graph(scn, maps, commons)
        assert base_trajectory(scn, maps, commons, graph=g) is None

    def test_two_overlapping_disks_edge_count(self):
        scn = open_field_scenario([(600.0, 1000.0), (1400.0, 1000.0)],
                                  start_xy=(300.0, 1000.0), goal_xy=(1700.0, 1000.0))
        maps, commons = build_all_coverage(scn)
        g = build_feasibility_graph(scn, maps, commons)
        assert commons.pairs.tolist() == [[1, 2]]
        n_common = commons.points.shape[0]
        assert g.edge_count == 2 + 2 * n_common
        assert g.node_count == 2 + 2 + n_common

    def test_uncovered_endpoint_raises_named_error(self):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(100.0, 100.0), goal_xy=(1000.0, 900.0))
        maps, commons = build_all_coverage(scn)
        with pytest.raises(InfeasibleEndpointError) as err:
            build_feasibility_graph(scn, maps, commons)
        assert err.value.endpoint == "start"

    def test_base_index_order_preserved(self):
        # chain of four disks: only consecutive pairs overlap (gap 550 < 2r,
        # skip-one gap 1100 > 2r ~ 1060.6), so the visit order is forced
        xs = [200.0, 750.0, 1300.0, 1850.0]
        scn = open_field_scenario([(x, 1000.0) for x in xs],
                                  start_xy=(60.0, 1000.0), goal_xy=(1990.0, 1000.0))
        maps, commons = build_all_coverage(scn)
        base = base_trajectory(scn, maps, commons)
        assert base.visit_indices == (1, 2, 3, 4)
        assert [bs.id for bs in base.visited_stations] == [1, 2, 3, 4]
        # every visited projection appears among the waypoints
        wp = {(round(p.x, 6), round(p.y, 6)) for p in base.trajectory.waypoints}
        for bs in base.visited_stations:
            assert (round(bs.position.x, 6), round(bs.position.y, 6)) in wp


@pytest.fixture(scope="module")
def planning_inputs():
    """(scenario, maps, commons) of open fields, small cities and default-city
    placements. The open fields' shortest paths have one and two legs."""
    cases = []
    for stations, start, goal in (
        ([(1000.0, 1000.0)], (800.0, 1200.0), (1200.0, 1200.0)),
        ([(600.0, 1000.0), (1400.0, 1000.0)], (400.0, 1350.0), (1600.0, 650.0)),
    ):
        scn = open_field_scenario(stations, start_xy=start, goal_xy=goal)
        cases.append((scn, *build_all_coverage(scn, border_samples=16)))
    for seed in (8, 11, 19, 20, 23, 29):
        scn = small_city_scenario(seed=seed, k=6)
        cases.append((scn, *build_all_coverage(scn, border_samples=16)))
    city = build_default_scenario(seed=1, k=25)
    for seed in range(100, 108):
        stations = place_base_stations(city.city, k=25, h_g=city.radio.bs_height, seed=seed)
        scn = city.with_base_stations(stations)
        cases.append((scn, *build_all_coverage(scn)))
    return cases


def _disk(bs, radius):
    """A hand-made map: a disk of the given radius around the station."""
    return CoverageMap(bs.id, bs.xy, [0.0, math.pi], [math.pi, 2.0 * math.pi],
                       [radius, radius], np.empty((0, 2)))


# Hand-written layouts with exact ties: (stations, radii, start, goal, commons).
TIE_LAYOUTS = {
    # two border points mirrored about the line between the stations
    "mirrored": ([(1000.0, 1000.0), (1400.0, 1000.0)], [250.0, 250.0], (900.0, 1000.0),
                 (1500.0, 1000.0), {(1, 2): [(1200.0, 1100.0), (1200.0, 900.0)]}),
    # totals 500 through both points; the graph pops the nearer one first
    "in line": ([(1000.0, 1000.0), (1400.0, 1000.0)], [250.0, 250.0], (900.0, 1000.0),
                (1500.0, 1000.0), {(1, 2): [(1300.0, 1000.0), (1100.0, 1000.0)]}),
    # mirrored points whose totals tie under the graph's math.hypot weights,
    # while np.hypot would make the second point's total smaller
    "rounding": ([(1000.0, 1000.0), (1400.0, 1000.0)], [250.0, 250.0], (900.0, 1000.0),
                 (1500.0, 1000.0),
                 {(1, 2): [(1227.734375, 1043.8125), (1172.265625, 1043.8125)]}),
    # 200 + 300 + 500 through station 1 equals the 1000 m spoke to station 2
    "start spoke": ([(700.0, 1000.0), (1500.0, 1000.0)], [600.0, 1100.0], (500.0, 1000.0),
                    (1550.0, 1000.0), {(1, 2): [(1000.0, 1000.0)]}),
    "goal": ([(1000.0, 1100.0), (1000.0, 900.0)], [600.0, 600.0], (1000.0, 1000.0),
             (1500.0, 1000.0), {}),
    # the middle border point has two mirrored parents of equal reach, and
    # its f exceeds theirs, so the sequence-free search can defer both rows
    "relay": ([(700.0, 1000.0), (1100.0, 1000.0), (1500.0, 1000.0)], [250.0, 250.0, 250.0],
              (500.0, 1000.0), (1700.0, 1000.0),
              {(1, 2): [(900.0, 1100.0), (900.0, 900.0)], (2, 3): [(1300.0, 1000.0)]}),
}


def _hand_layout(stations, radii, start, goal, commons):
    scn = open_field_scenario(stations, start_xy=start, goal_xy=goal)
    maps = {bs.id: _disk(bs, r) for bs, r in zip(scn.base_stations, radii)}
    return scn, maps, border_table(commons)


class TestStationSearch:
    """base_trajectory's search over the stations against Dijkstra over every
    node of the feasibility graph: waypoints, visit order and graph size."""

    def _check(self, scn, maps, commons):
        try:
            graph, expected = node_graph_base(scn, maps, commons)
        except InfeasibleEndpointError as exc:
            with pytest.raises(InfeasibleEndpointError) as err:
                base_trajectory(scn, maps, commons)
            assert str(err.value) == str(exc)
            return None
        base = base_trajectory(scn, maps, commons)
        goal = graph.node_count - 1
        covers = (sum(u == 0 for u, _, _ in graph.edges),
                  sum(v == goal for _, v, _ in graph.edges))
        assert feasibility_graph_size(maps, commons, *covers) == (
            graph.node_count, graph.edge_count)
        if expected is None:
            assert base is None
            return None
        waypoints, visited = expected
        assert [(p.x, p.y) for p in base.trajectory.waypoints] == waypoints
        assert base.visit_indices == visited
        assert [bs.id for bs in base.visited_stations] == list(visited)
        # the graph argument is accepted and does not change the result
        again = base_trajectory(scn, maps, commons, graph=graph)
        assert again.trajectory.waypoints == base.trajectory.waypoints
        return base

    def test_cities_and_default_placements(self, planning_inputs):
        found = sum(self._check(*case) is not None for case in planning_inputs)
        assert found >= 5

    def test_equal_totals_and_reaches_take_the_lower_node_id(self):
        base = self._check(*_hand_layout(*TIE_LAYOUTS["mirrored"]))
        assert (base.trajectory.waypoints[2].x, base.trajectory.waypoints[2].y) == (1200.0, 1100.0)

    def test_equal_totals_take_the_shorter_reach(self):
        base = self._check(*_hand_layout(*TIE_LAYOUTS["in line"]))
        assert (base.trajectory.waypoints[2].x, base.trajectory.waypoints[2].y) == (1100.0, 1000.0)

    def test_rounding_tie_follows_the_graph_weights(self):
        base = self._check(*_hand_layout(*TIE_LAYOUTS["rounding"]))
        assert base.trajectory.waypoints[2].x == 1172.265625

    def test_start_spoke_wins_an_equal_total(self):
        base = self._check(*_hand_layout(*TIE_LAYOUTS["start spoke"]))
        assert base.visit_indices == (2,)

    def test_goal_tie_goes_to_the_first_station_settled(self):
        base = self._check(*_hand_layout(*TIE_LAYOUTS["goal"]))
        assert base.visit_indices == (1,)


class TestPrunedFreeSearch:
    """_free_search against the A* over every point, at several bounds."""

    @staticmethod
    def _assert_matches_eager_search(scn, maps, commons, bounds):
        for bound in bounds:
            got = _free_search(scn, maps, commons, bound)
            want = free_search_oracle(scn, maps, commons, bound)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.tobytes() == want.tobytes()

    def test_matches_unpruned_search(self, planning_inputs):
        searched = 0
        for scn, maps, commons in planning_inputs:
            try:
                base = base_trajectory(scn, maps, commons)
            except InfeasibleEndpointError:
                continue
            if base is None:
                continue
            searched += 1
            refined = build_refined_graph(base, scn, maps, commons)
            path = shortest_path(refined, 0, refined.node_count - 1)
            refined_length = path_length(refined, path)
            straight = scn.mission.start.distance_to(scn.mission.goal)
            best = free_search_oracle(scn, maps, commons, math.inf)
            shortest = float(np.hypot(*np.diff(best, axis=0).T).sum())
            # a bound just above the shortest path keeps its nodes, which sit
            # on or inside the ellipse |s v| + |v g| = bound, barely
            self._assert_matches_eager_search(
                scn, maps, commons, (refined_length * (1.0 - 1e-12), base.trajectory.length,
                                     shortest * (1.0 + 1e-12), shortest, 1.01 * straight,
                                     straight, 0.5 * straight, math.inf))
        assert searched >= 5

    def test_start_in_no_map_has_no_path(self):
        """No edge leaves a start that no map holds, with or without wedges."""
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(100.0, 100.0), goal_xy=(1000.0, 900.0))
        maps, commons = build_all_coverage(scn)
        assert _free_search(scn, maps, commons, math.inf) is None
        empty = {1: CoverageMap(1, (1000.0, 1000.0), [], [], [], np.empty((0, 2)))}
        assert _free_search(scn, empty, commons, math.inf) is None

    def test_hands_the_kernel_member_slots(self, planning_inputs, monkeypatch):
        """The search checks no membership of its own: each tail is an
        expanded node's slot in the segment's map and each head a
        candidate's slot in that map, both taken from the member table."""
        calls = []

        def checked(xy, members, tail, head, which):
            for slot in (tail, head):
                assert (slot >= 0).all()
                assert (members.slot[which, members.node[slot]] == slot).all()
            calls.append(tail.size)
            return _slots_clear(xy, members, tail, head, which)

        monkeypatch.setattr(planner, "_slots_clear", checked)
        for scn, maps, commons in planning_inputs:
            try:
                if base_trajectory(scn, maps, commons) is not None:
                    _free_search(scn, maps, commons, math.inf)
            except InfeasibleEndpointError:
                continue
        assert len(calls) > 100

    def test_hands_the_kernel_fewer_rows_than_the_eager_search(self, planning_inputs,
                                                                monkeypatch):
        """Edges that wait above the check threshold until the goal is closed
        are never checked, so the kernel sees fewer rows than the eager A*'s."""
        rows = {planner: 0, coverage: 0}

        def counted(module):
            def kernel(xy, members, tail, head, which):
                rows[module] += tail.size
                return _slots_clear(xy, members, tail, head, which)
            return kernel

        for module in rows:  # free_search_oracle takes the kernel from coverage
            monkeypatch.setattr(module, "_slots_clear", counted(module))
        for scn, maps, commons in planning_inputs:
            try:
                if base_trajectory(scn, maps, commons) is None:
                    continue
            except InfeasibleEndpointError:
                continue
            _free_search(scn, maps, commons, math.inf)
            free_search_oracle(scn, maps, commons, math.inf)
        assert 0 < rows[planner] < rows[coverage]

    @pytest.mark.parametrize("step", [0.0, planner._CHECK_STEP, 1.0])
    @pytest.mark.parametrize("name", list(TIE_LAYOUTS))
    def test_tie_layouts_match_the_eager_search(self, name, step, monkeypatch):
        """Exact equal reaches, under threshold steps from one per distinct f
        (step 0) to a few for the whole search, and under a bound just above
        the shortest path, which caps the threshold. The border points of
        "in line" lie in one map each, so no sequence-free path exists."""
        monkeypatch.setattr(planner, "_CHECK_STEP", step)
        scn, maps, commons = _hand_layout(*TIE_LAYOUTS[name])
        bounds = [math.inf]
        best = free_search_oracle(scn, maps, commons, math.inf)
        if best is not None:
            shortest = float(np.hypot(*np.diff(best, axis=0).T).sum())
            bounds += [shortest * (1.0 + 1e-12), shortest]
        self._assert_matches_eager_search(scn, maps, commons, bounds)

    @pytest.mark.parametrize("k", [50, 100])
    def test_denser_placements_match_the_eager_search(self, k):
        """Default-city placements at K = 50 and 100, at the refined path's
        bound, as ``optimize_trajectory`` searches, and with no bound."""
        city = build_default_scenario(seed=1, k=k)
        for seed in (100, 101, 102):
            stations = place_base_stations(city.city, k=k, h_g=city.radio.bs_height, seed=seed)
            scn = city.with_base_stations(stations)
            maps, commons = build_all_coverage(scn)
            base = base_trajectory(scn, maps, commons)
            refined = build_refined_graph(base, scn, maps, commons)
            path = shortest_path(refined, 0, refined.node_count - 1)
            self._assert_matches_eager_search(
                scn, maps, commons, (path_length(refined, path) * (1.0 - 1e-12), math.inf))


def _ray_points(xy, center, rng):
    """Points on or within 1e-6 rad of the rays from ``center`` through xy."""
    a = xy - center
    turn = np.arctan2(a[:, 1], a[:, 0]) + rng.choice([0.0, 1e-12, -1e-9, 1e-6], xy.shape[0])
    r = np.hypot(a[:, 0], a[:, 1]) * rng.uniform(0.05, 0.95, xy.shape[0])
    return center + np.column_stack([r * np.cos(turn), r * np.sin(turn)])


def _sweep_kinds(a, b, cov):
    """Which of 'gap', 'radial' and 'wrap' segment a-b is about cov's apex:
    some of its points lie at an azimuth no wedge spans, its ends lie within
    1e-6 rad of one ray, or it crosses the ray at azimuth 0."""
    pts = np.linspace(a, b, 400) - cov.center
    az = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
    spanned = ((az[:, None] - cov.starts) % (2.0 * math.pi) <= cov.ends - cov.starts).any(axis=1)
    (ax, ay), (bx, by) = pts[0], pts[-1]
    turn = abs(math.atan2(ax * by - ay * bx, ax * bx + ay * by))
    wraps = bool((ay < 0.0 <= by or by < 0.0 <= ay) and ax - ay * (bx - ax) / (by - ay) > 0.0)
    return {"gap": not spanned.all(), "radial": turn <= 1e-6, "wrap": wraps}


class TestSlotKernel:
    """``coverage._slots_clear`` against dense sampling, on (tail, head, map)
    triples drawn from the members of default-city placements.

    No default-city map has an azimuth gap, as R never falls below the NLoS
    radius, so each map also comes with every fifth wedge removed. The
    node table adds points on and near the rays through border points, so
    that near-radial segments occur.
    """

    @staticmethod
    def _segments(planning_inputs):
        """(xy, covs, members, tail, head, which) of each default-city case."""
        rng = np.random.default_rng(21)
        for scn, maps, commons in planning_inputs[-3:]:
            covs = [maps[k] for k in sorted(maps)][:8]
            covs += [CoverageMap(cov.bs_id, cov.center, *(np.delete(getattr(cov, a), np.s_[::5])
                                                          for a in ("starts", "ends", "radii")),
                                 cov.border_points) for cov in covs]
            border = np.unique(commons.points, axis=0)
            rays = [_ray_points(border, cov.center, rng) for cov in covs]
            # nodes: the apexes, the border points, then their ray points about each apex
            xy = np.vstack([[cov.center for cov in covs], border, *rays])
            n, m, q = xy.shape[0], len(covs), border.shape[0]
            members = _members(xy, covs, np.tile(np.arange(n), m), np.repeat(np.arange(m), n))
            tail, head, which = [], [], []
            for j in range(m):
                own = members.slot[j][members.slot[j] >= 0]
                tail.append(rng.choice(own, 30))
                head.append(rng.choice(own, 30))
                # a border point and a point near its ray about this map's apex
                pairs = np.column_stack([members.slot[j, m:m + q],
                                         members.slot[j, m + q * (1 + j):m + q * (2 + j)]])
                pairs = pairs[(pairs >= 0).all(axis=1)][:20]
                tail.append(pairs[:, 0])
                head.append(pairs[:, 1])
                which.append(np.full(tail[-2].size + pairs.shape[0], j))
            yield (xy, covs, members, *(np.concatenate(a) for a in (tail, head, which)))

    def test_matches_dense_sampling(self, planning_inputs):
        kinds = dict.fromkeys(["gap", "radial", "wrap", "inside", "outside"], 0)
        for xy, covs, members, tail, head, which in self._segments(planning_inputs):
            got = _slots_clear(xy, members, tail, head, which)
            for t, h, j, ok in zip(tail, head, which, got.tolist()):
                a, b, cov = xy[members.node[t]], xy[members.node[h]], covs[j]
                if ok != sampled_line_in_coverage(a, b, cov, step=0.5):
                    assert line_check_tie(a, b, cov, step=0.5)
                for kind, hit in _sweep_kinds(a, b, cov).items():
                    kinds[kind] += hit
                kinds["inside" if ok else "outside"] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_same_verdicts_after_a_thousand_empty_maps(self, planning_inputs):
        """The segments' verdicts do not depend on where their maps sit in
        the stack: the jump table's (map, angle) keys are exact."""
        empty = [CoverageMap(0, (0.0, 0.0), [], [], [], np.empty((0, 2)))] * 1000
        for xy, covs, members, tail, head, which in self._segments(planning_inputs):
            u, v = members.node[tail], members.node[head]
            want = _segments_clear(xy, members, u, v, which)
            far = which + len(empty)
            ends = np.unique(np.concatenate([far * xy.shape[0] + u, far * xy.shape[0] + v]))
            moved = _members(xy, empty + covs, ends % xy.shape[0], ends // xy.shape[0])
            np.testing.assert_array_equal(_segments_clear(xy, moved, u, v, far), want)
            assert 0 < np.count_nonzero(want) < want.size


class TestLineInCoverage:
    def test_same_sector_chord(self):
        scn = open_field_scenario([(1000.0, 1000.0)])
        cov = build_coverage_map(scn.base_stations[0], scn.city, scn.radio)
        assert line_in_coverage((800.0, 1000.0), (1000.0, 1200.0), cov)

    def test_any_chord_of_open_field_disk(self):
        scn = open_field_scenario([(1000.0, 1000.0)])
        cov = build_coverage_map(scn.base_stations[0], scn.city, scn.radio)
        rng = np.random.default_rng(7)
        for _ in range(60):
            ang = rng.uniform(0, 2 * math.pi, 2)
            rad = rng.uniform(0, R_CLAIMED - 1.0, 2)
            a = (1000 + rad[0] * math.cos(ang[0]), 1000 + rad[0] * math.sin(ang[0]))
            b = (1000 + rad[1] * math.cos(ang[1]), 1000 + rad[1] * math.sin(ang[1]))
            assert line_in_coverage(a, b, cov)

    def test_chord_crossing_gap_rejected(self):
        # two wedges with a dead gap between them; chord across the gap fails
        cov = CoverageMap(bs_id=1, center=(0.0, 0.0), starts=[0.0, 1.0], ends=[0.4, 1.4],
                          radii=[500.0, 500.0], border_points=np.empty((0, 2)))
        a = (400 * math.cos(0.2), 400 * math.sin(0.2))
        b = (400 * math.cos(1.2), 400 * math.sin(1.2))
        assert not line_in_coverage(a, b, cov)
        # pulling one endpoint near the apex still sweeps the dead azimuths
        a2 = (5 * math.cos(0.2), 5 * math.sin(0.2))
        assert not line_in_coverage(a2, b, cov)

    def test_matches_dense_sampling_oracle(self):
        scn = small_city_scenario(seed=41, k=3)
        maps, _ = build_all_coverage(scn)
        rng = np.random.default_rng(8)
        checked = 0
        for cov in maps.values():
            pts = rng.uniform(0, 800, size=(400, 2))
            inside = pts[points_in_coverage(pts, cov)]
            for i in range(0, len(inside) - 1, 2):
                a, b = inside[i], inside[i + 1]
                exact = line_in_coverage(a, b, cov)
                sampled = sampled_line_in_coverage(a, b, cov, step=0.5)
                if exact != sampled:
                    # only tolerable when the call sits within the oracle's
                    # resolution of the boundary
                    assert line_check_tie(a, b, cov, step=0.5)
                checked += 1
        assert checked >= 150


class TestRefinedGraph:
    def test_single_station_reduces_to_base(self):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(700.0, 1000.0), goal_xy=(1300.0, 1000.0))
        maps, commons = build_all_coverage(scn)
        base = base_trajectory(scn, maps, commons)
        g = build_refined_graph(base, scn, maps, commons)
        assert g.node_count == 3
        opt = optimize_trajectory(base, scn, maps, commons, graph=g)
        assert opt.length == pytest.approx(base.trajectory.length, rel=1e-12)

    def test_two_disks_shortcut_beats_base(self):
        # mission crosses the lens diagonally, so the base path's station
        # flyovers cost real length and the refined shortcut must win
        start, goal = (400.0, 1350.0), (1600.0, 650.0)
        scn = open_field_scenario([(600.0, 1000.0), (1400.0, 1000.0)],
                                  start_xy=start, goal_xy=goal)
        maps, commons = build_all_coverage(scn)
        base = base_trajectory(scn, maps, commons)
        assert base.visit_indices == (1, 2)
        opt = optimize_trajectory(base, scn, maps, commons)
        assert opt.length < base.trajectory.length - 1.0
        # independent oracle: best v_I -> lens point -> v_F among the
        # discretized common-border points whose two legs stay covered
        best = math.inf
        assert commons.pairs.tolist() == [[1, 2]]
        for x, y in commons.points:
            if not sampled_line_in_coverage(start, (x, y), maps[1], 0.5):
                continue
            if not sampled_line_in_coverage((x, y), goal, maps[2], 0.5):
                continue
            best = min(best, math.hypot(x - start[0], y - start[1])
                       + math.hypot(goal[0] - x, goal[1] - y))
        assert opt.length == pytest.approx(best, rel=1e-9)

    def test_single_station_shortcut_off_axis(self):
        # both endpoints in one station's disk, off the line through its
        # projection: the refined graph keeps the detour, the result does not
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(800.0, 1200.0), goal_xy=(1200.0, 1200.0))
        maps, commons = build_all_coverage(scn)
        base = base_trajectory(scn, maps, commons)
        g = build_refined_graph(base, scn, maps, commons)
        assert g.node_count == 3
        opt = optimize_trajectory(base, scn, maps, commons, graph=g)
        assert [(p.x, p.y) for p in opt.waypoints] == [(800.0, 1200.0), (1200.0, 1200.0)]
        assert opt.length == pytest.approx(400.0, rel=1e-12)

    def test_node_count_bound(self):
        scn = small_city_scenario(seed=8, k=5)
        maps, commons = build_all_coverage(scn, border_samples=64)
        try:
            base = base_trajectory(scn, maps, commons)
        except InfeasibleEndpointError:
            pytest.skip("endpoints uncovered for this seed")
        if base is None:
            pytest.skip("disconnected")
        g = build_refined_graph(base, scn, maps, commons)
        kp = len(base.visit_indices)
        assert g.node_count <= 2 + kp + (kp - 1) * 2 * 64

    def test_refined_contains_base_path(self):
        scn = open_field_scenario(
            [(500.0, 800.0), (1000.0, 1200.0), (1500.0, 800.0)],
            start_xy=(300.0, 700.0), goal_xy=(1700.0, 700.0),
        )
        maps, commons = build_all_coverage(scn)
        base = base_trajectory(scn, maps, commons)
        opt = optimize_trajectory(base, scn, maps, commons)
        assert opt.length <= base.trajectory.length + 1e-9

    def test_edges_pass_dense_sampling_audit(self):
        scn = small_city_scenario(seed=20, k=4)
        maps, commons = build_all_coverage(scn)
        try:
            base = base_trajectory(scn, maps, commons)
        except InfeasibleEndpointError:
            pytest.skip("endpoints uncovered for this seed")
        if base is None:
            pytest.skip("disconnected")
        feas = build_feasibility_graph(scn, maps, commons)
        assert_edges_covered(feas, scn, step=0.5)
        refined = build_refined_graph(base, scn, maps, commons)
        assert_edges_covered(refined, scn, step=0.5)


def _covered_leg(a, b, shared, maps):
    return any(sampled_line_in_coverage(a, b, maps[k], 0.5) for k in shared)


def _tie_leg(a, b, shared, maps):
    return any(line_check_tie(a, b, maps[k], 0.5) for k in shared)


def _grazing_leg(a, b, shared, maps):
    """Covered at the oracle's step in some map, but in each such map 4x finer
    sampling finds an excursion small enough for line_check_tie."""
    covering = [k for k in shared if sampled_line_in_coverage(a, b, maps[k], 0.5)]
    return bool(covering) and all(
        not sampled_line_in_coverage(a, b, maps[k], 0.125)
        and line_check_tie(a, b, maps[k], 0.5)
        for k in covering
    )


@pytest.fixture(scope="module")
def refined_inputs():
    """(scenario, maps, commons, base) of default-city placements 100-129 and
    small-city seeds 11, 19 and 23 whose base path exists."""
    cases = []
    city = build_default_scenario(seed=1, k=25)
    scenarios = [(city.with_base_stations(place_base_stations(
        city.city, k=25, h_g=city.radio.bs_height, seed=seed)), 64, seed)
        for seed in range(100, 130)]
    scenarios += [(small_city_scenario(seed=seed, k=6), 16, seed) for seed in (11, 19, 23)]
    for scn, q, seed in scenarios:
        maps, commons = build_all_coverage(scn, border_samples=q)
        try:
            base = base_trajectory(scn, maps, commons)
        except InfeasibleEndpointError:
            continue
        if base is not None:
            cases.append((seed, scn, maps, commons, base))
    return cases


class TestBatchedShortcutChecks:
    """The refined graph's shortcuts, checked in one batch over its maps."""

    def test_matches_one_check_per_family(self, refined_inputs):
        checked = 0
        for seed, scn, maps, commons, base in refined_inputs:
            if seed >= 110:  # placements 100-109 and the small cities
                continue
            got = build_refined_graph(base, scn, maps, commons)
            xy, edges = refined_graph_oracle(base, scn, maps, commons)
            assert got.xy.tobytes() == xy.tobytes()
            assert list(got.edges) == edges
            checked += 1
        assert checked >= 5

    def test_every_edge_is_a_free_search_edge(self, refined_inputs):
        """Each refined edge lies in some map that holds both its ends, so the
        sequence-free search over the same points has it too."""
        edges = 0
        for seed, scn, maps, commons, base in refined_inputs:
            graph = build_refined_graph(base, scn, maps, commons)
            ends = np.array([(u, v) for u, v, _ in graph.edges])
            p0, p1 = graph.xy[ends[:, 0]], graph.xy[ends[:, 1]]
            accepted = np.zeros(ends.shape[0], dtype=bool)
            for cov in maps.values():
                accepted |= segments_in_coverage(p0, p1, cov)
            assert accepted.all(), f"placement {seed}: edge {ends[~accepted][0]} in no map"
            edges += ends.shape[0]
        assert edges > 6000


class TestOptimizeOracle:
    """optimize_trajectory against an exhaustive search over the same points.

    Nodes: the endpoints, the station projections and the distinct
    common-border points. Every pair lying in one station's map is an edge
    when dense sampling finds the segment covered in such a map; disagreements
    with the planner are allowed only where line_check_tie calls them ties.
    """

    def _check(self, scn, maps, commons):
        mission = scn.mission
        ids = [k for k in sorted(maps) if not maps[k].is_empty]
        border = np.unique(commons.points, axis=0)
        xy = np.vstack([[mission.start.xy], [maps[k].center for k in ids], border,
                        [mission.goal.xy]])
        inside = {k: points_in_coverage(xy, maps[k]) for k in ids}

        def shared(i, j):
            return [k for k in ids if inside[k][i] and inside[k][j]]

        edges = []
        for i, j in itertools.combinations(range(len(xy)), 2):
            common = shared(i, j)
            if common and _covered_leg(xy[i], xy[j], common, maps):
                edges.append((i, j, float(math.hypot(*(xy[j] - xy[i])))))
        oracle_path = shortest_path(PlanGraph(xy=xy, edges=tuple(edges)), 0, len(xy) - 1)
        oracle = _path_cost(oracle_path, edges)

        base = base_trajectory(scn, maps, commons)
        opt = optimize_trajectory(base, scn, maps, commons)
        index = {(x, y): i for i, (x, y) in enumerate(xy.tolist())}
        legs = [(index[(a.x, a.y)], index[(b.x, b.y)])
                for a, b in zip(opt.waypoints, opt.waypoints[1:])]
        for i, j in legs:
            common = shared(i, j)
            assert common, f"leg {i}-{j} shares no station's map"
            assert (_covered_leg(xy[i], xy[j], common, maps)
                    or _tie_leg(xy[i], xy[j], common, maps))
        if opt.length > oracle * (1 + 1e-9):  # the planner refused an oracle edge
            assert any(_grazing_leg(xy[i], xy[j], shared(i, j), maps)
                       for i, j in zip(oracle_path, oracle_path[1:]))
        elif opt.length < oracle * (1 - 1e-9):  # it took an edge the oracle refused
            assert not all(_covered_leg(xy[i], xy[j], shared(i, j), maps) for i, j in legs)
        else:
            assert opt.length == pytest.approx(oracle, rel=1e-9)

        samples = sample_polyline(opt.xy_array(), 0.5)
        assert (direct_snr_max(samples, scn) >= scn.radio.snr_threshold).all()
        return base, opt

    def test_small_city(self):
        scn = small_city_scenario(seed=20, k=6)
        maps, commons = build_all_coverage(scn, border_samples=16)
        self._check(scn, maps, commons)

    def test_open_field_route_leaves_station_sequence(self):
        scn = open_field_scenario([(575.0, 1096.0), (1338.0, 876.0), (590.0, 1390.0)],
                                  start_xy=(1382.0, 1297.0), goal_xy=(343.0, 1632.0))
        maps, commons = build_all_coverage(scn, border_samples=16)
        base, opt = self._check(scn, maps, commons)
        refined = build_refined_graph(base, scn, maps, commons)
        path = shortest_path(refined, 0, refined.node_count - 1)
        refined_length = path_length(refined, path)
        assert opt.length < refined_length - 1.0


class TestGridBaseline:
    def test_octile_bound_open_field(self):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(800.0, 900.0), goal_xy=(1200.0, 1100.0))
        res = grid_baseline_plan(scn, grid_step=10.0)
        straight = math.hypot(400.0, 200.0)
        assert res.trajectory is not None
        assert straight <= res.trajectory.length <= straight * 1.083 + 1e-6

    def test_node_budget(self):
        scn = open_field_scenario([(1000.0, 1000.0)])
        res = grid_baseline_plan(scn, grid_step=10.0)
        assert res.node_count <= 201 * 201

    @pytest.mark.parametrize("step", [0.0, math.nan, math.inf])
    def test_rejects_zero_or_non_finite_step(self, step):
        scn = open_field_scenario([(1000.0, 1000.0)])
        with pytest.raises(InvalidConfigError, match="finite and positive"):
            grid_baseline_plan(scn, grid_step=step)

    def test_infeasible_when_endpoint_uncoverable(self):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(100.0, 100.0), goal_xy=(1000.0, 900.0))
        res = grid_baseline_plan(scn, grid_step=10.0)
        assert res.trajectory is None

    def test_grid_path_fully_covered(self):
        scn = small_city_scenario(seed=22, k=4)
        res = grid_baseline_plan(scn, grid_step=10.0)
        if res.trajectory is None:
            pytest.skip("grid infeasible on this seed")
        samples = sample_polyline(res.trajectory.xy_array(), 1.0)
        assert (direct_snr_max(samples, scn) >= scn.radio.snr_threshold).all()


class TestStraightLine:
    def test_length_is_euclidean_distance(self):
        t = straight_line_plan(default_mission())
        assert t.length == pytest.approx(1697.0562748477141, rel=1e-12)
        assert t.kind == "straight"
        assert len(t.waypoints) == 2


class TestTrajectoryPersistence:
    def test_json_fields(self, tmp_path):
        t = straight_line_plan(default_mission())
        path = tmp_path / "t.json"
        save_trajectory(t, path)
        data = json.loads(path.read_text())
        assert data["kind"] == "straight"
        assert data["total_length_m"] == pytest.approx(t.length)
        assert len(data["waypoints"]) == 2
        assert len(data["edge_lengths_m"]) == 1

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(waypoints=(Point3(0, 0, 80),), kind="straight")
