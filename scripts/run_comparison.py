#!/usr/bin/env python3
"""Single-scenario planner comparison on the standard 2 km x 2 km setup.

Builds the default city, re-draws station placements until a feasible one
appears, runs all four planners, and prints a comparison table. Optionally
writes the trajectories, the coverage dump, and the scenario itself.
"""

import argparse
from pathlib import Path

from skypath.coverage import build_coverage_maps, save_coverage_dump
from skypath.evaluation import evaluate_planners
from skypath.planner import save_trajectory
from skypath.scenario import build_default_scenario, place_base_stations, save_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="city seed")
    parser.add_argument("--placement-seed", type=int, default=2,
                        help="first station placement seed to try")
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args()

    scenario = build_default_scenario(seed=args.seed, k=25)
    seed = args.placement_seed
    while True:
        stations = place_base_stations(
            scenario.city, k=25, h_g=scenario.radio.bs_height, seed=seed
        )
        candidate = scenario.with_base_stations(stations)
        reports, trajectories = evaluate_planners(
            candidate, planners=("straight", "base", "optimized", "grid"), seed=seed
        )
        if all(r.feasible for r in reports):
            scenario = candidate
            break
        print(f"placement seed {seed}: infeasible, retrying")
        seed += 1

    print(f"\nplacement seed {seed}")
    print(f"{'planner':<12}{'length (m)':>12}{'outage':>9}{'nodes':>9}{'edges':>9}{'wall (ms)':>11}")
    for r in reports:
        print(f"{r.planner:<12}{r.length_m:>12.1f}{r.outage:>9.4f}"
              f"{r.nodes:>9}{r.edges:>9}{r.wall_ms:>11.1f}")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        save_scenario(scenario, args.out_dir / "scenario.json")
        for name, traj in trajectories.items():
            if traj is not None:
                save_trajectory(traj, args.out_dir / f"trajectory_{name}.json")
        maps = build_coverage_maps(scenario.base_stations, scenario.city, scenario.radio)
        save_coverage_dump({cov.bs_id: cov for cov in maps}, args.out_dir / "coverage.json")
        print(f"\nartifacts written to {args.out_dir}")


if __name__ == "__main__":
    main()
