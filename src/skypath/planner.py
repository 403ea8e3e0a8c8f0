"""Trajectory planners: two-stage coverage-graph search, grid baseline, straight line.

The feasibility stage connects the mission endpoints through station
projections and discretized common-border points; every edge of that graph is
coverage-safe by construction (the wedges share the projection as apex, so
the union is star-shaped about it). Its shortest path is found by a Dijkstra
over the stations that gives the full graph's path, without building the
graph. The refinement stage rebuilds a graph restricted to the stations the
base path visits and adds shortcut edges that are verified to stay inside one
station's coverage, then searches it again. The optimized trajectory is the
shorter of that path and an exact A* over the same kind of points with no
station sequence, whose edges are verified the same way, in bulk, one
threshold step of f at a time. Against checking each node's edges when it
is expanded, that halves the segment check's calls and rows and takes about
a quarter off the search, with the same paths (58 searches of placements
100-149, 200-229 and 300-339, replayed by ``scripts/search_replay.py``).

This module holds the graphs and searches; membership and the common-border
table (``coverage.CommonBorders``, whose pair order numbers the border nodes)
live in ``coverage``. Both graphs are node tables (``PlanGraph.xy``) with
edge lists. Every segment check runs on the (node, map) slots that
``coverage._members`` numbers, in ``coverage._slots_clear``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from pathlib import Path
from typing import Sequence

import numpy as np

from .coverage import (CommonBorders, CoverageMap, _members, _segments_clear, _slots_clear,
                       network_covered, points_in_coverage)
from .coverage import line_in_coverage, segments_in_coverage  # bound here under their old names
from .geometry import GEOM_EPS, Point3
from .scenario import InvalidConfigError, Mission, Scenario

GRID_STEP = 10.0
# ``_free_search`` checks waiting edges one threshold step at a time, each
# step (1 + _CHECK_STEP) times the least waiting f; see its docstring. Its 58
# searches on placements 100-149, 200-229 and 300-339, against checking each
# node's edges at its expansion (5,977 kernel calls), interleaved search by
# search, min of 5, on a 2-vCPU host: w = 0.001 took 13% less time with 4,064
# calls, 0.002 23% less with 3,264, 0.005 23% less with 2,975, 0.01 18% less
# with 3,249, 0.02 10% less with 3,702 and 0.05 3% less with 4,569.
_CHECK_STEP = 0.005


class InfeasibleEndpointError(Exception):
    """A mission endpoint lies outside every station's coverage."""

    def __init__(self, endpoint: str, point: Point3):
        self.endpoint = endpoint
        self.point = point
        super().__init__(
            f"mission {endpoint} ({point.x:.1f}, {point.y:.1f}) is outside all coverage areas"
        )


@dataclass(eq=False)
class PlanGraph:
    """Weighted undirected graph over waypoint candidates.

    Node i sits at ``xy[i]``, an (n, 2) array; each edge (u, v, w) has w =
    ``math.hypot`` of xy[u] - xy[v]. Both builders number their nodes the
    same way: the mission start, the station projections, the common-border
    points pair by pair, and the goal last.

    - ``build_feasibility_graph``: every map's projection in sorted station
      id order, then the common-border points in the table's order.
    - ``build_refined_graph``: the projections of the base path's stations in
      visit order, then the points of each consecutive pair's common border.
    """

    xy: np.ndarray
    edges: tuple[tuple[int, int, float], ...]

    @cached_property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.node_count)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    @property
    def node_count(self) -> int:
        return self.xy.shape[0]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(eq=False)
class Trajectory:
    """Piecewise-linear fixed-altitude path from mission start to goal."""

    waypoints: tuple[Point3, ...]
    kind: str

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("trajectory needs at least two waypoints")

    @property
    def length(self) -> float:
        return sum(
            a.distance_to(b) for a, b in zip(self.waypoints, self.waypoints[1:])
        )

    def xy_array(self) -> np.ndarray:
        return np.array([[p.x, p.y] for p in self.waypoints])


@dataclass(eq=False)
class BaseResult:
    """Feasibility-stage output: path plus the ordered stations it visits."""

    trajectory: Trajectory
    visited_stations: tuple
    visit_indices: tuple[int, ...]


@dataclass(eq=False)
class GridPlanResult:
    trajectory: Trajectory | None
    node_count: int
    edge_count: int


def _lengths(d: np.ndarray) -> list[float]:
    """``math.hypot`` of each row of d (n, 2); ``np.hypot`` can differ in the last bit."""
    return list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist()))


def _edges(xy: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[tuple[int, int, float]]:
    """Edges (u[i], v[i], |xy[u[i]] xy[v[i]]|)."""
    return list(zip(u.tolist(), v.tolist(), _lengths(xy[u] - xy[v])))


def _node_table(mission: Mission, centers, borders) -> np.ndarray:
    """Node positions in ``PlanGraph`` order: start, centers, border point
    arrays in turn, goal."""
    return np.vstack([[mission.start.xy], np.reshape(centers, (-1, 2)), *borders,
                      [mission.goal.xy]]).astype(float)


def _dedupe_waypoints(points_xy, altitude: float) -> tuple[Point3, ...]:
    """The points at ``altitude``, each dropped when within 1e-9 m of the one
    kept before it. The last point is kept when only one would remain, so a
    mission whose goal is its start gives a zero-length two-point path."""
    points = [Point3(float(x), float(y), altitude) for x, y in points_xy]
    out = points[:1]
    for p in points[1:]:
        if math.hypot(p.x - out[-1].x, p.y - out[-1].y) > 1e-9:
            out.append(p)
    if len(out) == 1 and len(points) > 1:
        out.append(points[-1])
    return tuple(out)


# ---------------------------------------------------------------------------
# shortest path
# ---------------------------------------------------------------------------


def _dijkstra(adj: Sequence[Sequence[tuple[int, float]]], src: int, dst: int):
    """Min-heap Dijkstra; ties break toward the lower node id."""
    dist = {src: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, src)]
    done = set()
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == dst:
            break
        for v, w in adj[u]:
            if v in done:
                continue
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
    if dst not in done:
        return None, math.inf
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path, dist[dst]


def shortest_path(graph: PlanGraph, src: int, dst: int) -> list[int] | None:
    """Minimum-weight node sequence from src to dst, or None when disconnected."""
    path, _ = _dijkstra(graph.adjacency, src, dst)
    return path


# ---------------------------------------------------------------------------
# feasibility graph + base trajectory
# ---------------------------------------------------------------------------


def build_feasibility_graph(
    scenario: Scenario,
    maps: dict[int, CoverageMap],
    commons: CommonBorders,
) -> PlanGraph:
    """Endpoints + station projections + all common-border points.

    Edges: endpoint-to-projection where the endpoint lies in that station's
    coverage, and each common-border point to both of its pair's projections.
    Every edge stays inside a single coverage area, so it is SNR-safe.
    """
    mission = scenario.mission
    ids = sorted(maps)
    start_cover, goal_cover = _endpoint_covers(mission, ids, maps)
    xy = _node_table(mission, [maps[k].center for k in ids], [commons.points])
    goal = xy.shape[0] - 1
    # node 1 + i is the projection of station ids[i]; each border point links
    # to its pair's two projections in turn
    owner = np.searchsorted(ids, np.repeat(commons.pairs, np.diff(commons.cuts), axis=0))
    start_cover, goal_cover = (1 + np.searchsorted(ids, c) for c in (start_cover, goal_cover))
    edges = (_edges(xy, np.zeros_like(start_cover), start_cover)
             + _edges(xy, 1 + owner.ravel(), np.repeat(np.arange(1 + len(ids), goal), 2))
             + _edges(xy, goal_cover, np.full_like(goal_cover, goal)))
    return PlanGraph(xy=xy, edges=tuple(edges))


def feasibility_graph_size(
    maps: dict[int, CoverageMap],
    commons: CommonBorders,
    start_cover: int,
    goal_cover: int,
) -> tuple[int, int]:
    """Node and edge counts of ``build_feasibility_graph``, by closed form.

    ``start_cover`` and ``goal_cover`` count the maps that hold each endpoint.
    """
    border = commons.points.shape[0]
    return 2 + len(maps) + border, start_cover + 2 * border + goal_cover


def _endpoint_covers(mission: Mission, ids: list[int], maps: dict[int, CoverageMap]):
    """The ids whose map holds the start and those whose map holds the goal,
    in order, from one ``points_in_coverage`` call. Raises
    InfeasibleEndpointError, for the start first, when no map holds one."""
    n = len(ids)
    held = points_in_coverage([mission.start.xy, mission.goal.xy], [maps[k] for k in ids],
                              np.repeat([0, 1], n), np.tile(np.arange(n), 2)).reshape(2, n)
    covers = []
    for name, point, row in (("start", mission.start, held[0]), ("goal", mission.goal, held[1])):
        if not row.any():
            raise InfeasibleEndpointError(name, point)
        covers.append([k for k, ok in zip(ids, row.tolist()) if ok])
    return covers


def base_trajectory(
    scenario: Scenario,
    maps: dict[int, CoverageMap],
    commons: CommonBorders,
    graph: PlanGraph | None = None,
) -> BaseResult | None:
    """Shortest path in the feasibility graph, or None when disconnected.

    The search runs over the K stations instead of the graph's nodes. In the
    graph a border point p of stations k and j only leads from one to the
    other, so when station k settles at dist_k, Dijkstra relaxes each partner
    j with the best of (dist_k + |c_k p|) + |p c_j| over the pair's points, in
    one pass. The sums are added in the graph's order, and ties break by
    (total, dist_k + |c_k p|, border-node id), the order in which the graph's
    search pops those points, so path, waypoints and visit order are the
    graph's own. ``graph`` is accepted for compatibility and not used.
    Raises InfeasibleEndpointError when no map holds an endpoint.
    """
    mission = scenario.mission
    ids = sorted(maps)
    start_cover, goal_cover = _endpoint_covers(mission, ids, maps)
    goal_cover = set(goal_cover)
    index = {k: i for i, k in enumerate(ids)}
    centers = [maps[k].center for k in ids]
    goal = len(ids)  # the goal's heap index follows every station's, as its node id does
    # the border points as the graph numbers them
    points, cuts = commons.points, commons.cuts.tolist()
    owner = np.searchsorted(ids, np.repeat(commons.pairs, np.diff(commons.cuts), axis=0))
    # |c p| from each of the pair's stations, as the graph's edge weights are
    spoke = [np.array(_lengths(np.array(centers)[owner[:, side]] - points)) for side in (0, 1)]
    partners: list[list[tuple[int, int, int, int]]] = [[] for _ in ids]
    for (a, b), lo, hi in zip(commons.pairs.tolist(), cuts[:-1], cuts[1:]):
        partners[index[a]].append((index[b], lo, hi, 0))
        partners[index[b]].append((index[a], lo, hi, 1))
    first_border = 1 + len(ids)  # node id of the graph's first border point

    # best[j]: (dist, tie, border-node id) of j's best way in so far, and
    # via[j] the station and border point it comes through; the start's
    # spokes come first in the graph, so they win every tie
    best: dict[int, tuple[float, float, int]] = {}
    via: dict[int, tuple[int, np.ndarray] | None] = {}
    goal_dist, last = math.inf, -1  # the first station settled wins a tie
    heap: list[tuple[float, int]] = []
    for k in start_cover:
        j = index[k]
        best[j] = (math.hypot(mission.start.x - centers[j][0], mission.start.y - centers[j][1]),
                   -math.inf, -1)
        via[j] = None
        heappush(heap, (best[j][0], j))
    done = set()
    while heap:
        d, k = heappop(heap)
        if k in done:
            continue
        done.add(k)
        if k == goal:
            break
        if ids[k] in goal_cover:
            c = centers[k]
            total = d + math.hypot(c[0] - mission.goal.x, c[1] - mission.goal.y)
            if total < goal_dist:
                goal_dist, last = total, k
                heappush(heap, (total, goal))
        for j, lo, hi, side in partners[k]:
            if j in done:
                continue
            reach = d + spoke[side][lo:hi]
            total = reach + spoke[1 - side][lo:hi]
            tied = np.flatnonzero(total == total.min())
            i = int(tied[np.argmin(reach[tied])])
            key = (float(total[i]), float(reach[i]), first_border + lo + i)
            if key < best.get(j, (math.inf,)):
                best[j], via[j] = key, (k, points[lo + i])
                heappush(heap, (key[0], j))
    if goal not in done:
        return None

    path, visited_ids, k = [(mission.goal.x, mission.goal.y)], [], last
    while True:
        path.append(centers[k])
        visited_ids.append(ids[k])
        if via[k] is None:
            break
        k, p = via[k]
        path.append(p)
    path.append((mission.start.x, mission.start.y))
    path.reverse()
    visited_ids.reverse()
    by_id = {bs.id: bs for bs in scenario.base_stations}
    return BaseResult(
        trajectory=Trajectory(
            waypoints=_dedupe_waypoints(path, scenario.radio.uav_altitude), kind="base"
        ),
        visited_stations=tuple(by_id[k] for k in visited_ids),
        visit_indices=tuple(visited_ids),
    )


# ---------------------------------------------------------------------------
# refined graph + optimized trajectory
# ---------------------------------------------------------------------------


def build_refined_graph(
    base: BaseResult,
    scenario: Scenario,
    maps: dict[int, CoverageMap],
    commons: CommonBorders,
) -> PlanGraph:
    """Graph over the base path's stations and their consecutive common borders.

    Edge families: endpoint spokes to the first/last visited projection;
    endpoint shortcuts to the first/last border set when the segment stays in
    the boundary station's coverage; border-to-border hops through each middle
    station's coverage; and spokes from every border point to its pair's two
    projections. The base path is a subgraph, so the refined search can only
    shorten it. The shortcuts of all families are checked in one batch.
    """
    order = base.visit_indices
    kprime = len(order)
    # hop[t, j]: table pair t joins visits j and j + 1; a pair not in the table has no points
    hop = (commons.pairs[:, None] == np.sort(np.column_stack([order[:-1], order[1:]]))).all(axis=2)
    first, sizes = commons.cuts[:-1] @ hop, np.diff(commons.cuts) @ hop
    xy = _node_table(scenario.mission, [maps[k].center for k in order],
                     [commons.points[a:a + size] for a, size in zip(first, sizes)])
    n = xy.shape[0]
    # the border points between visits j and j + 1 (projections 1 + j and
    # 2 + j) are nodes cuts[j]..cuts[j + 1] - 1
    cuts = np.cumsum([1 + kprime, *sizes])
    slots = [np.arange(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    spoke = np.repeat(np.arange(1, kprime), np.diff(cuts))
    edges = (_edges(xy, np.array([0, kprime]), np.array([1, n - 1]))
             + _edges(xy, np.column_stack([spoke, spoke + 1]).ravel(),
                      np.repeat(np.arange(cuts[0], n - 1), 2)))

    # shortcuts (u, v) through the map of visit m: the start to the first
    # border set and the last set to the goal in the end maps, then each pair
    # of consecutive sets in the map of the station between them
    shortcuts = [(a.repeat(b.size), np.tile(b, a.size), m)
                 for m, (a, b) in enumerate(zip(slots, slots[1:]), 1)]
    if kprime >= 2:
        shortcuts[:0] = [(np.zeros_like(slots[0]), slots[0], 0),
                         (slots[-1], np.full_like(slots[-1], n - 1), kprime - 1)]
        u, v, which = (np.concatenate(c) for c in zip(*((a, b, np.full(a.size, m))
                                                         for a, b, m in shortcuts)))
        ends = np.unique(np.concatenate([which * n + u, which * n + v]))
        members = _members(xy, [maps[k] for k in order], ends % n, ends // n)
        ok = _segments_clear(xy, members, u, v, which)
        edges += _edges(xy, u[ok], v[ok])
    return PlanGraph(xy=xy, edges=tuple(edges))


def _free_search(
    scenario: Scenario,
    maps: dict[int, CoverageMap],
    commons: CommonBorders,
    bound: float,
) -> np.ndarray | None:
    """Exact A* over the refinement's points, free of any station sequence.

    Nodes are the mission endpoints, the station projections and every
    distinct common-border point, less those with |s v| + |v g| >=
    bound * (1 + 1e-9): no path through them can be shorter than ``bound``,
    and the margin absorbs rounding between those distances and a path's
    summed legs. Two nodes are joined when both lie in one station's map and
    the segment between them stays in that map, as ``segments_in_coverage``
    decides. Each candidate edge is a pair of ``_members`` slots of one map,
    numbered with their polar offsets before the search; only edges toward
    nodes whose Euclidean lower bound stays below ``bound`` are candidates.
    The Euclidean heuristic is consistent, so each node is expanded once.
    Returns the waypoints of the shortest path, or None when no path is
    shorter than ``bound`` or no map holds the start.

    An edge is checked in bulk, one threshold step at a time. The search
    runs in phases with a check threshold T, at first |s g| * (1 + w) with w
    = ``_CHECK_STEP``. When a node is expanded, its candidates with f =
    reach + |v g| <= T are checked in one ``_slots_clear`` call and relaxed;
    the others wait in a buffer, in expansion order. When the heap empties
    before the goal is closed, T rises to min(bound, (least waiting f) *
    (1 + w)), and the waiting rows with f <= T whose head is open and still
    improvable are checked in one call and relaxed in buffer order.

    The plans are those of the eager search, which checks and relaxes every
    candidate as its tail is expanded, bit for bit. Invariant: the rows
    relaxed so far are exactly the rows made so far with f <= T, in the
    order of their tails' expansions. An expansion keeps it, as T stays and
    its rows with f <= T are relaxed at once; so does a rise, as every
    waiting row has f > the old T and the rows now due are relaxed before
    any row of a later expansion. For one head v, f = reach + |v g| rounds
    monotonically in reach, so every row with f <= T has a smaller reach
    than every row with f > T, and the rows left out cannot change which
    row with f <= T wins v: the least reach, the earliest on ties, as the
    strict ``<`` keeps it. So the heap holds the eager heap's entries with
    keys <= T, with the same nodes and parents, and the eager heap holds
    only larger keys besides. Both pop the same (key, id) sequence until
    this heap empties; the eager search's next key is then a waiting row's
    f, which the rise brings under T. The kernel's verdicts are row-wise, so
    other batches change no bit, and a row's reach, recomputed at a rise
    from its closed tail's cost, has the same bits.
    ``w`` only sets how many rows wait and how many calls are made.
    """
    mission = scenario.mission
    stations = [k for k in sorted(maps) if not maps[k].is_empty]
    xy = _node_table(mission, [maps[k].center for k in stations], [commons.points])
    to_goal = np.hypot(xy[:, 0] - xy[-1, 0], xy[:, 1] - xy[-1, 1])
    from_start = np.hypot(xy[:, 0] - xy[0, 0], xy[:, 1] - xy[0, 1])
    live = from_start + to_goal < bound * (1.0 + 1e-9)
    if not (live[-1] and stations):  # no path beats the bound, or no map has a wedge
        return None
    # the distinct kept border points; the test keeps all copies of a point or none
    first = 1 + len(stations)
    kept = first + np.flatnonzero(live[first:-1])
    _, distinct = np.unique(xy[kept], axis=0, return_index=True)
    nodes = np.concatenate([np.flatnonzero(live[:first]), kept[distinct], [xy.shape[0] - 1]])
    xy, to_goal = xy[nodes], to_goal[nodes]
    xs, ys = xy[:, 0], xy[:, 1]
    n = xy.shape[0]
    goal = n - 1
    members = _members(xy, [maps[k] for k in stations], np.tile(np.arange(n), len(stations)),
                       np.repeat(np.arange(len(stations)), n))
    # slot s: node slot_node[s] in map slot_map[s]; each map's slots form one run
    slot_map, slot_node = np.nonzero(members.slot >= 0)
    own_maps = np.ascontiguousarray(members.slot.T >= 0)  # row u: the maps holding node u
    cuts = np.searchsorted(slot_map, np.arange(len(stations) + 1))
    runs = [np.arange(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    cost = np.full(n, math.inf)
    cost[0] = 0.0
    parent = np.full(n, -1)
    closed = np.zeros(n, dtype=bool)
    heap = [(to_goal[0], 0)] if own_maps[0].any() else []  # ties break toward the lower id

    def relax(tail, head, reach):
        """Check the rows (tail node, head slot) and relax the heads that pass, in order."""
        which = slot_map[head]
        good = _slots_clear(xy, members, members.slot.ravel()[which * n + tail], head, which)
        for u, v, c in zip(tail[good].tolist(), slot_node[head[good]].tolist(),
                           reach[good].tolist()):
            if c < cost[v]:
                cost[v] = c
                parent[v] = u
                heappush(heap, (c + to_goal[v], v))

    limit = to_goal[0] * (1.0 + _CHECK_STEP)  # the check threshold T
    # the waiting rows, in expansion order: tail node, head slot and f
    wait_tail, wait_head, wait_f = (np.empty(256, dtype=t) for t in (int, int, float))
    waiting = 0
    while heap or waiting:
        if not heap:  # a phase ends: raise T and relax the rows now due
            f = wait_f[:waiting]
            limit = min(bound, f.min() * (1.0 + _CHECK_STEP))
            due = f <= limit
            tail, head = wait_tail[:waiting][due], wait_head[:waiting][due]
            rest = ~due
            for a in (wait_tail, wait_head, wait_f):  # compact the rows still waiting
                a[:waiting - tail.size] = a[:waiting][rest]
            waiting -= tail.size
            v = slot_node[head]
            reach = cost[tail] + np.hypot(xs[v] - xs[tail], ys[v] - ys[tail])
            keep = ~closed[v] & (reach < cost[v])
            if np.count_nonzero(keep):
                relax(tail[keep], head[keep], reach[keep])
            continue
        _, u = heappop(heap)
        if closed[u]:
            continue
        closed[u] = True
        if u == goal:
            break
        # every (u's slot, neighbour slot) pair of a shared map
        slots = np.concatenate([runs[m] for m in np.flatnonzero(own_maps[u])])
        cand = slot_node[slots]
        reach = cost[u] + np.hypot(xs[cand] - xs[u], ys[cand] - ys[u])
        f = reach + to_goal[cand]
        keep = ~closed[cand] & (reach < cost[cand]) & (f < bound)
        later = keep & (f > limit)
        m = np.count_nonzero(later)  # faster than .any() on small arrays
        if m:
            if waiting + m > wait_f.size:
                size = max(2 * wait_f.size, waiting + m)
                wait_tail, wait_head, wait_f = (np.resize(a, size)
                                                for a in (wait_tail, wait_head, wait_f))
            wait_tail[waiting:waiting + m] = u
            wait_head[waiting:waiting + m] = slots[later]
            wait_f[waiting:waiting + m] = f[later]
            waiting += m
            keep ^= later
        m = np.count_nonzero(keep)
        if m:
            relax(np.full(m, u), slots[keep], reach[keep])
    if not closed[goal]:
        return None
    path = [goal]
    while path[-1] != 0:
        path.append(int(parent[path[-1]]))
    return xy[path[::-1]]


def _search_bound(points: np.ndarray) -> float:
    """``_free_search``'s bound from the refined path's points: the summed legs,
    less 1e-12 relative, so that a path shorter only by rounding is a tie."""
    return float(np.hypot(*np.diff(points, axis=0).T).sum()) * (1.0 - 1e-12)


def optimize_trajectory(
    base: BaseResult,
    scenario: Scenario,
    maps: dict[int, CoverageMap],
    commons: CommonBorders,
    graph: PlanGraph | None = None,
) -> Trajectory:
    """Shortest certified path over the refinement's points.

    First the paper's refinement: Dijkstra in the refined graph, confined to
    the base path's station sequence. Then an exact A* over the same kind of
    points with no sequence (``_free_search``), pruned to paths shorter than
    the first. The shorter path wins, the refined one on ties, so the result
    is never longer than the refined path, nor than the base path.
    """
    if graph is None:
        graph = build_refined_graph(base, scenario, maps, commons)
    path = shortest_path(graph, 0, graph.node_count - 1)
    if path is None:  # cannot happen: the base path is a subgraph
        raise RuntimeError("refined graph unexpectedly disconnected")
    points = graph.xy[path]
    shorter = _free_search(scenario, maps, commons, _search_bound(points))
    if shorter is not None:
        points = shorter
    waypoints = _dedupe_waypoints(points, scenario.radio.uav_altitude)
    return Trajectory(waypoints=waypoints, kind="optimized")


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def straight_line_plan(mission: Mission) -> Trajectory:
    """Direct two-waypoint path; carries no coverage guarantee."""
    return Trajectory(waypoints=(mission.start, mission.goal), kind="straight")


def _segment_samples(p0: np.ndarray, p1: np.ndarray, spacing: float):
    """Points spaced <= spacing along each segment, endpoints included."""
    length = np.hypot(p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1])
    n_steps = np.maximum(np.ceil(length / spacing).astype(int), 1)
    reps = n_steps + 1
    seg_idx = np.repeat(np.arange(p0.shape[0]), reps)
    if np.all(reps == reps[0]):
        local = np.tile(np.linspace(0.0, 1.0, int(reps[0])), p0.shape[0])
    else:
        local = np.concatenate([np.linspace(0.0, 1.0, r) for r in reps])
    pts = p0[seg_idx] + local[:, None] * (p1[seg_idx] - p0[seg_idx])
    return pts, seg_idx


def grid_baseline_plan(scenario: Scenario, grid_step: float = GRID_STEP) -> GridPlanResult:
    """Lattice planner over the whole map with direct SNR coverage tests.

    A lattice node survives when covered by some station; an 8-neighbor edge
    survives when both endpoints are covered and samples every grid_step/4
    along it are covered too. Mission endpoints snap to the nearest covered
    node, connected only when the snap segment passes the same sampled check.
    """
    if not 0.0 < grid_step < math.inf:
        raise InvalidConfigError(f"grid step must be finite and positive: {grid_step}")
    city = scenario.city
    xs = np.arange(0.0, city.width + 1e-9, grid_step)
    ys = np.arange(0.0, city.depth + 1e-9, grid_step)
    nx, ny = xs.size, ys.size
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    lattice = np.column_stack([gx.ravel(), gy.ravel()])  # idx = ix * ny + iy
    covered = network_covered(lattice, scenario)
    node_count = int(covered.sum())
    spacing = grid_step / 4.0

    adj: list[list[tuple[int, float]]] = [[] for _ in range(nx * ny + 2)]
    edge_count = 0
    offsets = ((1, 0), (0, 1), (1, 1), (1, -1))
    for dx, dy in offsets:
        ix, iy = np.meshgrid(np.arange(nx - dx), np.arange(ny), indexing="ij")
        jy = iy + dy
        valid = (jy >= 0) & (jy < ny)
        a_idx = (ix * ny + iy)[valid]
        b_idx = ((ix + dx) * ny + jy)[valid]
        keep = covered[a_idx] & covered[b_idx]
        a_idx, b_idx = a_idx[keep], b_idx[keep]
        if a_idx.size == 0:
            continue
        pts, seg_idx = _segment_samples(lattice[a_idx], lattice[b_idx], spacing)
        ok_samples = network_covered(pts, scenario)
        ok = np.ones(a_idx.size, dtype=bool)
        np.logical_and.at(ok, seg_idx, ok_samples)
        w = math.hypot(dx * grid_step, dy * grid_step)
        for a, b in zip(a_idx[ok], b_idx[ok]):
            adj[a].append((int(b), w))
            adj[b].append((int(a), w))
            edge_count += 1

    def snap(point: Point3, virtual_id: int) -> bool:
        target = np.array([point.x, point.y])
        if node_count == 0:
            return False
        cand = np.flatnonzero(covered)
        d = np.hypot(lattice[cand, 0] - target[0], lattice[cand, 1] - target[1])
        best = int(cand[np.argmin(d)])
        seg_len = float(d.min())
        if seg_len > GEOM_EPS:
            pts, _ = _segment_samples(
                target[None, :], lattice[best][None, :], spacing
            )
            if not network_covered(pts, scenario).all():
                return False
        adj[virtual_id].append((best, seg_len))
        adj[best].append((virtual_id, seg_len))
        return True

    src, dst = nx * ny, nx * ny + 1
    mission = scenario.mission
    if not snap(mission.start, src) or not snap(mission.goal, dst):
        return GridPlanResult(None, node_count, edge_count)
    path, _ = _dijkstra(adj, src, dst)
    if path is None:
        return GridPlanResult(None, node_count, edge_count)
    coords = [(mission.start.x, mission.start.y)]
    coords += [tuple(lattice[i]) for i in path[1:-1]]
    coords.append((mission.goal.x, mission.goal.y))
    waypoints = _dedupe_waypoints(coords, scenario.radio.uav_altitude)
    return GridPlanResult(
        Trajectory(waypoints=waypoints, kind="grid"), node_count, edge_count
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def trajectory_to_dict(t: Trajectory) -> dict:
    edge_lengths = [
        a.distance_to(b) for a, b in zip(t.waypoints, t.waypoints[1:])
    ]
    return {
        "kind": t.kind,
        "waypoints": [[p.x, p.y, p.z] for p in t.waypoints],
        "edge_lengths_m": edge_lengths,
        "total_length_m": sum(edge_lengths),
    }


def save_trajectory(t: Trajectory, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trajectory_to_dict(t), indent=2) + "\n")
