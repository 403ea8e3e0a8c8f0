#!/usr/bin/env python3
"""Replay the sequence-free A* (``planner._free_search``) of fixed placements.

For each placement seed, draws K stations on the default city (city seed 1)
and builds the search's inputs through the public stages, as the optimized
planner does: ``build_all_coverage``, ``base_trajectory``, then
``build_refined_graph`` and ``shortest_path`` for the refined path, whose
bound ``planner._search_bound`` gives. Placements with an uncovered endpoint
or no base path have no search. Prints the number of searches, the segment
kernel's calls and rows (``planner._slots_clear``, counted in one untimed
pass), the summed per-search minimum over R timed rounds, and one sha256
over the returned paths' bytes. The counts and the hash are deterministic,
so two checkouts can be compared by running this on both:

    python scripts/search_replay.py --placements 100-104
    python scripts/search_replay.py --placements 100-149 200-229 300-339 --rounds 5
"""

import argparse
import hashlib
import time

from plan_digest import placement_range
from skypath import planner
from skypath.coverage import build_all_coverage
from skypath.scenario import build_default_scenario, place_base_stations


def search_inputs(seeds, k: int):
    """(scenario, maps, commons, bound) of each placement that has a base path."""
    city = build_default_scenario(seed=1, k=k)
    inputs = []
    for seed in seeds:
        stations = place_base_stations(city.city, k=k, h_g=city.radio.bs_height, seed=seed)
        scn = city.with_base_stations(stations)
        maps, commons = build_all_coverage(scn)
        try:
            base = planner.base_trajectory(scn, maps, commons)
        except planner.InfeasibleEndpointError:
            continue
        if base is None:
            continue
        graph = planner.build_refined_graph(base, scn, maps, commons)
        points = graph.xy[planner.shortest_path(graph, 0, graph.node_count - 1)]
        inputs.append((scn, maps, commons, planner._search_bound(points)))
    return inputs


def replay(inputs, rounds: int):
    """(kernel calls, kernel rows, summed min-of-rounds seconds, path sha256)."""
    kernel = planner._slots_clear
    calls = rows = 0

    def counted(xy, members, tail, head, which):
        nonlocal calls, rows
        calls += 1
        rows += tail.size
        return kernel(xy, members, tail, head, which)

    h = hashlib.sha256()
    planner._slots_clear = counted
    try:
        for case in inputs:
            path = planner._free_search(*case)
            h.update(b"none" if path is None else path.tobytes())
    finally:
        planner._slots_clear = kernel
    best = [float("inf")] * len(inputs)
    for _ in range(rounds):
        for i, case in enumerate(inputs):
            t0 = time.perf_counter()
            planner._free_search(*case)
            best[i] = min(best[i], time.perf_counter() - t0)
    return calls, rows, sum(best), h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--placements", type=placement_range, nargs="+",
                        default=[range(100, 105)],
                        help="placement seed ranges, such as 100-149 (default: 100-104)")
    parser.add_argument("--k", type=int, default=25, help="stations per placement")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed rounds; each search's time is its minimum")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error(f"need at least one round, got {args.rounds}")
    seeds = [seed for r in args.placements for seed in r]
    inputs = search_inputs(seeds, args.k)
    calls, rows, seconds, digest = replay(inputs, args.rounds)
    print(f"{len(inputs)} searches over {len(seeds)} placements at K = {args.k}")
    print(f"kernel calls {calls}  kernel rows {rows}")
    print(f"search {seconds:.4f} s (summed per-search min of {args.rounds})")
    print(f"paths sha256 {digest}")


if __name__ == "__main__":
    main()
