#!/usr/bin/env python3
"""One sha256 over the plans of a fixed set of station placements.

For each placement seed, draws K stations on the default city (city seed 1),
runs ``evaluate_planners`` with its default planners and hashes every report
field except ``wall_ms``, then every trajectory's waypoint bytes. Two
checkouts that plan the same paths print the same digest, so a change meant
to keep plans byte-identical can be checked by running this on both:

    python scripts/plan_digest.py                       # 100-149 200-229 300-339, K = 25
    python scripts/plan_digest.py --k 100 --placements 100-109
"""

import argparse
import dataclasses
import hashlib

import numpy as np

from skypath.evaluation import PlannerReport, evaluate_planners
from skypath.scenario import build_default_scenario, place_base_stations

FIELDS = [f.name for f in dataclasses.fields(PlannerReport) if f.name != "wall_ms"]


def placement_range(text: str) -> range:
    """'a-b' as the seeds a..b, both included, or 'a' as the seed a alone."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def plan_digest(seeds, k: int) -> str:
    city = build_default_scenario(seed=1, k=k)
    h = hashlib.sha256()
    for seed in seeds:
        stations = place_base_stations(city.city, k=k, h_g=city.radio.bs_height, seed=seed)
        reports, trajectories = evaluate_planners(city.with_base_stations(stations), seed=seed)
        for report in reports:
            h.update(repr([getattr(report, name) for name in FIELDS]).encode())
        for name, traj in trajectories.items():
            h.update(name.encode())
            if traj is not None:
                h.update(np.array([[p.x, p.y, p.z] for p in traj.waypoints]).tobytes())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--placements", type=placement_range, nargs="+",
                        default=[range(100, 150), range(200, 230), range(300, 340)],
                        help="placement seed ranges, such as 100-149 (default: "
                             "100-149 200-229 300-339)")
    parser.add_argument("--k", type=int, default=25, help="stations per placement")
    args = parser.parse_args()
    seeds = [seed for r in args.placements for seed in r]
    print(f"plan digest {plan_digest(seeds, args.k)} over {len(seeds)} placements at K = {args.k}")


if __name__ == "__main__":
    main()
