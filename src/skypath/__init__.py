"""Coverage-aware UAV path planning over 3D city maps.

A scenario couples a procedural Manhattan-style city with base stations and a
segmented LoS/NLoS pathloss model. Each station's coverage at the flight
altitude becomes a union of convex circular wedges; a two-stage graph search
plans minimum-length trajectories that keep the best-station SNR above a
threshold at every point, with a lattice planner and a straight line as
baselines and a seeded Monte-Carlo harness for comparisons.
"""

from .coverage import (
    CoverageMap,
    LinkState,
    build_all_coverage,
    build_coverage_map,
    common_border_points,
    coverage_disk_radius_sq,
    line_in_coverage,
    network_covered,
)
from .evaluation import (
    MonteCarloConfig,
    PlannerReport,
    evaluate_planners,
    outage_fraction,
    run_monte_carlo,
    summarize_reports,
    write_report_csv,
    write_summary_json,
)
from .geometry import Building, Point3
from .planner import (
    BaseResult,
    GridPlanResult,
    InfeasibleEndpointError,
    PlanGraph,
    Trajectory,
    base_trajectory,
    build_feasibility_graph,
    build_refined_graph,
    grid_baseline_plan,
    optimize_trajectory,
    shortest_path,
    straight_line_plan,
)
from .scenario import (
    BaseStation,
    CityMap,
    InvalidConfigError,
    Mission,
    PlacementError,
    RadioParams,
    Scenario,
    ScenarioFormatError,
    build_default_scenario,
    generate_city,
    load_scenario,
    place_base_stations,
    save_scenario,
)

__version__ = "0.1.0"
