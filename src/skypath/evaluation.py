"""Trajectory scoring (length, outage) and the seeded Monte-Carlo harness."""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coverage import (
    ANGULAR_STEP,
    BORDER_SAMPLES,
    LinkState,
    build_all_coverage,
    build_coverage_maps,
    check_map_settings,
    coverage_disk_radius_sq,
    network_covered,
    points_in_coverage,
)
from .geometry import GEOM_EPS
from .planner import (
    GRID_STEP,
    InfeasibleEndpointError,
    Trajectory,
    base_trajectory,
    build_refined_graph,
    feasibility_graph_size,
    grid_baseline_plan,
    optimize_trajectory,
    straight_line_plan,
)
from .scenario import InvalidConfigError, Scenario, place_base_stations

OUTAGE_STEP = 1.0

PLANNER_ORDER = ("straight", "base", "optimized", "grid")
DEFAULT_PLANNERS = ("straight", "base", "optimized")

CSV_COLUMNS = ("seed", "planner", "length_m", "outage", "nodes", "edges", "wall_ms")


def _check_settings(planners, border_samples, angular_step, grid_step, outage_step) -> None:
    """Raises ValueError for settings every trial would fail on, whichever
    planners run: a planner not in PLANNER_ORDER, map settings that
    ``check_map_settings`` rejects, or a grid or outage step that is not
    finite and positive (InvalidConfigError for the map and grid settings)."""
    unknown = set(planners) - set(PLANNER_ORDER)
    if unknown:
        raise ValueError(f"unknown planners: {sorted(unknown)}")
    check_map_settings(angular_step, border_samples)
    if not 0.0 < grid_step < math.inf:
        raise InvalidConfigError(f"grid step must be finite and positive: {grid_step}")
    _check_step(outage_step)


def sample_polyline(points_xy: np.ndarray, step: float) -> np.ndarray:
    """Arc-length samples of a polyline at the given spacing plus the endpoint."""
    pts = np.asarray(points_xy, dtype=float)
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total <= 0.0:
        return pts[:1]
    s = np.arange(0.0, total, step)
    if total - s[-1] > 1e-9:
        s = np.append(s, total)
    x = np.interp(s, cum, pts[:, 0])
    y = np.interp(s, cum, pts[:, 1])
    return np.column_stack([x, y])


def _check_step(step: float) -> None:
    if not 0.0 < step < math.inf:
        raise ValueError(f"sampling step must be finite and positive: {step}")


def _outage_fractions(trajectories, scenario: Scenario, step: float) -> list[float]:
    """``outage_fraction`` of each trajectory, from one ``network_covered``
    call on all their samples; the mask is split back per trajectory.

    A sample's verdict depends only on its own position: the disk tests are
    per point, and ``fan_blocked`` drops only buildings that block no point
    of the call. So each fraction is the one the trajectory gets alone.
    """
    samples = [sample_polyline(t.xy_array(), step) for t in trajectories]
    if not samples:
        return []
    covered = network_covered(np.concatenate(samples), scenario)
    cuts = np.cumsum([len(s) for s in samples])[:-1]
    return [float(1.0 - part.mean()) for part in np.split(covered, cuts)]


def outage_fraction(t: Trajectory, scenario: Scenario, step: float = OUTAGE_STEP) -> float:
    """Fraction of arc-length samples where no station meets the SNR threshold.

    At constant speed the arc-length fraction equals the time fraction. This
    is the one-trajectory case of the scorer ``evaluate_planners`` runs on
    all of a trial's trajectories at once.
    """
    _check_step(step)
    return _outage_fractions([t], scenario, step)[0]


@dataclass
class PlannerReport:
    """One planner's outcome on one scenario draw.

    For ``base``, nodes/edges count the feasibility graph, by closed form.
    For ``optimized``, they count the paper's refined graph, also when the
    path came from the sequence-free A* over all common-border points.
    """

    seed: int
    planner: str
    feasible: bool
    length_m: float | None
    outage: float | None
    nodes: int | None
    edges: int | None
    wall_ms: float
    note: str = ""


@dataclass
class MonteCarloConfig:
    trials: int
    base_seed: int = 0
    planners: tuple[str, ...] = DEFAULT_PLANNERS
    border_samples: int = BORDER_SAMPLES
    angular_step: float = ANGULAR_STEP
    grid_step: float = GRID_STEP
    outage_step: float = OUTAGE_STEP
    jobs: int = 1

    def __post_init__(self) -> None:
        """Rejects settings every trial would fail on, before any trial runs:
        the trial handler records a failing trial rather than raising."""
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.jobs < 1:
            raise ValueError(f"need at least one job, got {self.jobs}")
        _check_settings(self.planners, self.border_samples, self.angular_step, self.grid_step,
                        self.outage_step)
        if self.base_seed < 0:
            raise ValueError(f"base seed must be non-negative: {self.base_seed}")


def _endpoint_maps(scenario: Scenario, angular_step: float, border_samples: int):
    """Maps of the stations that can hold a mission endpoint, the start first.

    Every wedge radius is at most r_los and membership adds only GEOM_EPS, so
    no station farther than r_los + GEOM_EPS from an endpoint can hold it.
    The maps come in two ``build_coverage_maps`` batches: the stations near
    the start, then those near the goal that the first batch did not build.
    InfeasibleEndpointError is raised, as ``base_trajectory`` would raise it,
    as soon as no map of a batch's endpoint holds it, so an uncovered start
    stops the trial before any goal-side map is built. Returns the maps
    built, by station id, and the number of maps that hold the start and the
    goal.
    """
    reach = math.sqrt(coverage_disk_radius_sq(scenario.radio, LinkState.LOS)) + GEOM_EPS
    stations = scenario.base_stations
    centers = np.array([bs.xy for bs in stations]).reshape(-1, 2)
    maps = {}
    counts = []
    for name, point in (("start", scenario.mission.start), ("goal", scenario.mission.goal)):
        near = np.hypot(point.x - centers[:, 0], point.y - centers[:, 1]) <= reach
        near = [bs for bs, ok in zip(stations, near.tolist()) if ok]
        todo = [bs for bs in near if bs.id not in maps]
        maps.update((cov.bs_id, cov) for cov in build_coverage_maps(
            todo, scenario.city, scenario.radio, angular_step, border_samples))
        count = int(points_in_coverage([point.xy], [maps[bs.id] for bs in near],
                                       np.zeros(len(near), dtype=int), np.arange(len(near))).sum())
        if not count:
            raise InfeasibleEndpointError(name, point)
        counts.append(count)
    return maps, counts


def evaluate_planners(
    scenario: Scenario,
    planners=DEFAULT_PLANNERS,
    seed: int = 0,
    border_samples: int = BORDER_SAMPLES,
    angular_step: float = ANGULAR_STEP,
    grid_step: float = GRID_STEP,
    outage_step: float = OUTAGE_STEP,
):
    """Run the selected planners on one scenario, then score their trajectories.

    Returns (reports, trajectories). Every planner runs first; then one
    ``network_covered`` call scores all the trajectories found, on their
    stacked samples (``outage_fraction`` per trajectory, bit for bit). Wall
    times exclude the scoring and are cumulative over the stages a planner
    needs: the optimized planner's time includes coverage construction and
    the base stage it refines. Raises ValueError, before any planner runs,
    for every setting ``MonteCarloConfig`` rejects (``_check_settings``).

    The graph planners skip work that cannot change their answer. The maps
    come in three ``build_coverage_maps`` batches, none rebuilding a station:
    the stations near the start, then those near the goal
    (``_endpoint_maps``), then the rest (``build_all_coverage``). A trial
    with an uncovered endpoint stops after that endpoint's batch, before the
    other maps and the common borders are built. ``base_trajectory``
    searches over the stations rather than the feasibility graph, so that
    graph is never built; the base row's nodes/edges still count it, by
    closed form (``feasibility_graph_size``). The optimized row's nodes/edges
    count the refined graph, not the sequence-free A* search, which prunes
    its points to those that could beat the refined path.
    """
    _check_settings(planners, border_samples, angular_step, grid_step, outage_step)
    wanted = [p for p in PLANNER_ORDER if p in planners]
    # planner -> (trajectory or None, nodes, edges, wall_ms, note)
    planned: dict[str, tuple] = {}

    def ms_since(t0: float) -> float:
        return (time.perf_counter() - t0) * 1e3

    if "straight" in wanted:
        t0 = time.perf_counter()
        traj = straight_line_plan(scenario.mission)
        planned["straight"] = (traj, 2, 1, ms_since(t0), "")

    if {"base", "optimized"} & set(wanted):
        t0 = time.perf_counter()
        note = ""
        base = None
        size = (None, None)
        try:
            maps, covers = _endpoint_maps(scenario, angular_step, border_samples)
            maps, commons = build_all_coverage(
                scenario, angular_step=angular_step, border_samples=border_samples,
                built=maps,
            )
            size = feasibility_graph_size(maps, commons, *covers)
            base = base_trajectory(scenario, maps, commons)
            if base is None:
                note = "no path between the mission endpoints in the feasibility graph"
        except InfeasibleEndpointError as exc:
            note = str(exc)
        base_wall = ms_since(t0)

        if "base" in wanted:
            planned["base"] = (base.trajectory if base else None, *size, base_wall, note)
        if "optimized" in wanted:
            if base is None:
                planned["optimized"] = (None, None, None, base_wall, note)
            else:
                t1 = time.perf_counter()
                refined = build_refined_graph(base, scenario, maps, commons)
                traj = optimize_trajectory(base, scenario, maps, commons, graph=refined)
                planned["optimized"] = (traj, refined.node_count, refined.edge_count,
                                        base_wall + ms_since(t1), "")

    if "grid" in wanted:
        t0 = time.perf_counter()
        result = grid_baseline_plan(scenario, grid_step=grid_step)
        planned["grid"] = (result.trajectory, result.node_count, result.edge_count,
                           ms_since(t0), "")

    trajectories = {name: plan[0] for name, plan in planned.items()}
    found = [name for name, traj in trajectories.items() if traj is not None]
    outages = dict(zip(found, _outage_fractions(
        [trajectories[name] for name in found], scenario, outage_step)))
    reports = [
        PlannerReport(seed, name, traj is not None, traj.length if traj else None,
                      outages.get(name), nodes, edges, wall, note)
        for name, (traj, nodes, edges, wall, note) in planned.items()
    ]
    return reports, trajectories


def _run_trial(args):
    """One trial's reports; a trial that raises gives one infeasible row per planner."""
    scenario, config, trial = args
    seed = config.base_seed + trial
    t0 = time.perf_counter()
    try:
        stations = place_base_stations(
            scenario.city,
            k=len(scenario.base_stations),
            h_g=scenario.radio.bs_height,
            seed=seed,
        )
        trial_scenario = scenario.with_base_stations(stations)
        reports, _ = evaluate_planners(
            trial_scenario,
            planners=config.planners,
            seed=seed,
            border_samples=config.border_samples,
            angular_step=config.angular_step,
            grid_step=config.grid_step,
            outage_step=config.outage_step,
        )
    except Exception as exc:
        wall = (time.perf_counter() - t0) * 1e3
        note = f"{type(exc).__name__}: {exc}"
        return [
            PlannerReport(seed, planner, False, None, None, None, None, wall, note)
            for planner in PLANNER_ORDER
            if planner in config.planners
        ]
    return reports


def run_monte_carlo(scenario: Scenario, config: MonteCarloConfig) -> list[PlannerReport]:
    """Re-draw station placement per trial (seeds S..S+N-1) and score planners.

    Infeasible trials are recorded, not fatal, and so is a trial that raises
    (see ``_run_trial``). Rows come back sorted by (seed, planner order), so
    aggregation is independent of execution order.
    """
    tasks = [(scenario, config, i) for i in range(config.trials)]
    if config.jobs > 1:
        # Imported here: the process pool pulls in multiprocessing, which a
        # plain ``import skypath`` should not pay for.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_trial = list(pool.map(_run_trial, tasks))
    else:
        per_trial = [_run_trial(t) for t in tasks]
    rows: list[PlannerReport] = []
    for reports in per_trial:
        rows.extend(reports)
    return rows


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(reports: list[PlannerReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(
                [
                    r.seed,
                    r.planner,
                    _csv_cell(r.length_m),
                    _csv_cell(r.outage),
                    _csv_cell(r.nodes),
                    _csv_cell(r.edges),
                    _csv_cell(round(r.wall_ms, 3)),
                ]
            )


def summarize_reports(reports: list[PlannerReport]) -> dict:
    """Aggregate per planner: feasibility rate, length and outage statistics."""
    summary: dict = {"planners": {}}
    planners = sorted({r.planner for r in reports}, key=PLANNER_ORDER.index)
    for name in planners:
        rows = [r for r in reports if r.planner == name]
        feasible = [r for r in rows if r.feasible]
        lengths = np.array([r.length_m for r in feasible], dtype=float)
        outages = np.array([r.outage for r in feasible], dtype=float)
        entry = {
            "trials": len(rows),
            "feasible": len(feasible),
            "feasibility_rate": len(feasible) / len(rows) if rows else 0.0,
            "mean_wall_ms": float(np.mean([r.wall_ms for r in rows])) if rows else 0.0,
        }
        if len(feasible):
            entry.update(
                {
                    "mean_length_m": float(lengths.mean()),
                    "median_length_m": float(np.median(lengths)),
                    "p90_length_m": float(np.percentile(lengths, 90)),
                    "mean_outage": float(outages.mean()),
                    "max_outage": float(outages.max()),
                    "mean_nodes": float(np.mean([r.nodes for r in feasible])),
                    "mean_edges": float(np.mean([r.edges for r in feasible])),
                }
            )
        summary["planners"][name] = entry
    return summary


def write_summary_json(summary: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2) + "\n")
