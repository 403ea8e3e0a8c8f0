"""Command-line front end: generate scenarios, plan, evaluate, Monte-Carlo.

Exit codes: 0 success, 1 input/config error, 2 infeasible planning.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation, scenario
from .coverage import ANGULAR_STEP, BORDER_SAMPLES, build_coverage_maps, save_coverage_dump
from .evaluation import (
    DEFAULT_PLANNERS,
    PLANNER_ORDER,
    MonteCarloConfig,
    evaluate_planners,
    run_monte_carlo,
    summarize_reports,
    write_report_csv,
    write_summary_json,
)
from .planner import GRID_STEP, InfeasibleEndpointError, save_trajectory
from .scenario import (
    InvalidConfigError,
    PlacementError,
    Scenario,
    ScenarioFormatError,
    db_to_linear,
    default_mission,
    default_radio_params,
    generate_city,
    load_scenario,
    place_base_stations,
    save_scenario,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _parse_xy(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected X,Y got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_planners(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    unknown = set(names) - set(PLANNER_ORDER)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown planners {sorted(unknown)}; choose from {', '.join(PLANNER_ORDER)}"
        )
    return names


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skypath",
        description="Coverage-aware UAV trajectory planning over 3D city maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a scenario file")
    gen.add_argument("--out", type=Path, default=Path("scenario.json"))
    gen.add_argument("--seed", type=int, default=scenario.DEFAULT_SEED)
    gen.add_argument("--k", type=int, default=scenario.DEFAULT_K, help="number of base stations")
    gen.add_argument("--width", type=float, default=scenario.DEFAULT_WIDTH)
    gen.add_argument("--depth", type=float, default=scenario.DEFAULT_DEPTH)
    gen.add_argument("--block-size", type=float, default=scenario.DEFAULT_BLOCK_SIZE)
    gen.add_argument("--street-width", type=float, default=scenario.DEFAULT_STREET_WIDTH)
    gen.add_argument("--rayleigh-scale", type=float, default=scenario.DEFAULT_RAYLEIGH_SCALE)
    gen.add_argument("--height-min", type=float, default=scenario.DEFAULT_HEIGHT_RANGE[0])
    gen.add_argument("--height-max", type=float, default=scenario.DEFAULT_HEIGHT_RANGE[1])
    gen.add_argument("--h", type=float, default=scenario.DEFAULT_UAV_ALTITUDE, help="UAV altitude")
    gen.add_argument("--hg", type=float, default=scenario.DEFAULT_BS_HEIGHT, help="BS height")
    gen.add_argument("--p-over-sigma2-db", type=float, default=scenario.DEFAULT_P_OVER_SIGMA2_DB)
    gen.add_argument("--snr-threshold-db", type=float, default=scenario.DEFAULT_SNR_THRESHOLD_DB)
    gen.add_argument("--alpha-los", type=float, default=scenario.DEFAULT_ALPHA_LOS)
    gen.add_argument("--alpha-nlos", type=float, default=scenario.DEFAULT_ALPHA_NLOS)
    gen.add_argument("--beta-los", type=float, default=scenario.DEFAULT_BETA_LOS)
    gen.add_argument("--beta-nlos", type=float, default=scenario.DEFAULT_BETA_NLOS)
    gen.add_argument("--start", type=_parse_xy, default=scenario.DEFAULT_MISSION_START)
    gen.add_argument("--goal", type=_parse_xy, default=scenario.DEFAULT_MISSION_GOAL)

    def add_shared(p, planners_default):
        p.add_argument("--scenario", type=Path, required=True)
        p.add_argument("--out-dir", type=Path, default=Path("."))
        p.add_argument("--planners", type=_parse_planners, default=planners_default)
        p.add_argument("--q", type=int, default=BORDER_SAMPLES,
                       help="border samples per station")
        p.add_argument("--grid-step", type=float, default=GRID_STEP)
        p.add_argument("--angular-step-deg", type=float,
                       default=math.degrees(ANGULAR_STEP))
        p.add_argument("--snr-threshold-db", type=float, default=None,
                       help="override the scenario's SNR threshold")

    plan = sub.add_parser("plan", help="plan trajectories for one scenario")
    add_shared(plan, PLANNER_ORDER)
    plan.add_argument("--dump-coverage", type=Path, default=None,
                      help="also write per-station sectors and borders as JSON")

    ev = sub.add_parser("eval", help="plan and score one scenario")
    add_shared(ev, PLANNER_ORDER)
    ev.add_argument("--outage-step", type=float, default=evaluation.OUTAGE_STEP)
    ev.add_argument("--seed", type=int, default=scenario.DEFAULT_SEED,
                    help="seed recorded in the report rows")

    mc = sub.add_parser("montecarlo", help="seeded Monte-Carlo planner comparison")
    add_shared(mc, DEFAULT_PLANNERS)
    mc.add_argument("--trials", type=int, default=50)
    mc.add_argument("--base-seed", type=int, default=scenario.DEFAULT_SEED)
    mc.add_argument("--outage-step", type=float, default=evaluation.OUTAGE_STEP)
    mc.add_argument("--jobs", type=_positive_int, default=1)
    return parser


def _angular_step(args) -> float:
    step = args.angular_step_deg
    n = round(360.0 / step) if 0.0 < step < math.inf else 0
    if n < 2 or abs(n * step - 360.0) > 1e-6:
        raise InvalidConfigError(f"--angular-step-deg must evenly divide 360: {step}")
    return 2.0 * math.pi / n


def _load_with_overrides(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.snr_threshold_db is not None:
        radio = replace(scenario.radio, snr_threshold=db_to_linear(args.snr_threshold_db))
        scenario = replace(scenario, radio=radio)
    return scenario


def cmd_generate(args) -> int:
    city = generate_city(
        width=args.width,
        depth=args.depth,
        block_size=args.block_size,
        street_width=args.street_width,
        height_range=(args.height_min, args.height_max),
        rayleigh_scale=args.rayleigh_scale,
        seed=args.seed,
    )
    radio = default_radio_params(
        p_over_sigma2_db=args.p_over_sigma2_db,
        snr_threshold_db=args.snr_threshold_db,
        uav_altitude=args.h,
        bs_height=args.hg,
        alpha_los=args.alpha_los,
        alpha_nlos=args.alpha_nlos,
        beta_los=args.beta_los,
        beta_nlos=args.beta_nlos,
    )
    stations = place_base_stations(city, k=args.k, h_g=args.hg, seed=args.seed)
    scenario = Scenario(
        city=city,
        base_stations=stations,
        radio=radio,
        mission=default_mission(args.start, args.goal, uav_altitude=args.h),
    )
    save_scenario(scenario, args.out)
    print(
        f"wrote {args.out}: {len(city.buildings)} buildings, "
        f"{len(stations)} base stations, seed {args.seed}"
    )
    return EXIT_OK


def cmd_plan(args) -> int:
    scenario = _load_with_overrides(args)
    angular_step = _angular_step(args)
    reports, trajectories = evaluate_planners(
        scenario,
        planners=args.planners,
        border_samples=args.q,
        angular_step=angular_step,
        grid_step=args.grid_step,
    )
    if args.dump_coverage is not None:
        maps = build_coverage_maps(scenario.base_stations, scenario.city, scenario.radio,
                                   angular_step, args.q)
        save_coverage_dump({cov.bs_id: cov for cov in maps}, args.dump_coverage)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    infeasible = False
    for r in reports:
        traj = trajectories.get(r.planner)
        if traj is None:
            infeasible = True
            reason = f" ({r.note})" if r.note else ""
            print(f"{r.planner}: infeasible{reason}", file=sys.stderr)
            continue
        out = args.out_dir / f"trajectory_{r.planner}.json"
        save_trajectory(traj, out)
        print(f"{r.planner}: length {traj.length:.1f} m -> {out}")
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def cmd_eval(args) -> int:
    scenario = _load_with_overrides(args)
    reports, _ = evaluate_planners(
        scenario,
        planners=args.planners,
        seed=args.seed,
        border_samples=args.q,
        angular_step=_angular_step(args),
        grid_step=args.grid_step,
        outage_step=args.outage_step,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(reports, args.out_dir / "eval.csv")
    write_summary_json(summarize_reports(reports), args.out_dir / "summary.json")
    for r in reports:
        length = f"{r.length_m:.1f} m" if r.length_m is not None else "-"
        outage = f"{r.outage:.4f}" if r.outage is not None else "-"
        print(f"{r.planner}: feasible={r.feasible} length={length} outage={outage}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    scenario = _load_with_overrides(args)
    config = MonteCarloConfig(
        trials=args.trials,
        base_seed=args.base_seed,
        planners=args.planners,
        border_samples=args.q,
        angular_step=_angular_step(args),
        grid_step=args.grid_step,
        outage_step=args.outage_step,
        jobs=args.jobs,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    reports = run_monte_carlo(scenario, config)
    write_report_csv(reports, args.out_dir / "montecarlo.csv")
    summary = summarize_reports(reports)
    summary["config"] = {
        "scenario": str(args.scenario),
        "trials": config.trials,
        "base_seed": config.base_seed,
        "planners": list(config.planners),
        "border_samples": config.border_samples,
        "angular_step_deg": args.angular_step_deg,
        "grid_step": config.grid_step,
        "outage_step": config.outage_step,
    }
    write_summary_json(summary, args.out_dir / "summary.json")
    for name, entry in summary["planners"].items():
        mean_len = entry.get("mean_length_m")
        mean_out = entry.get("mean_outage")
        print(
            f"{name}: feasible {entry['feasible']}/{entry['trials']}"
            + (f" mean length {mean_len:.1f} m" if mean_len is not None else "")
            + (f" mean outage {mean_out:.4f}" if mean_out is not None else "")
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "plan": cmd_plan,
        "eval": cmd_eval,
        "montecarlo": cmd_montecarlo,
    }
    try:
        return handlers[args.command](args)
    except InfeasibleEndpointError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ScenarioFormatError, InvalidConfigError, PlacementError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
