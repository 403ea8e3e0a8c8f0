"""Seeded Monte-Carlo benchmark of skypath, one workload per process.

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 55 --trace 0

Each workload is a closed loop with one client and jobs=1: a trial draws a
station placement from a seed derived from ``--seed``, hands the generated
scenario to ``skypath.evaluation.evaluate_planners``, checks its outputs,
and only then starts the next trial, until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs trials untraced for half the time, replays the same
trials with every function in ``spans.TRACED`` wrapped, prints per-layer
metrics and the tracing overhead, and requires both halves to produce the
same trajectory digest. Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCENARIO_SEED = 1  # the paper's default 2 km city
SETUP_REPEATS = 9  # set-ups per untraced run, spread over the run
LENGTH_SLACK = 1e-9  # optimized may not be longer than base by more than this
TAIL_BEYOND = 10  # trials that must lie beyond the tail percentile


@dataclass(frozen=True)
class Workload:
    name: str
    k: int  # stations per placement
    q: int  # border samples per station
    planners: tuple[str, ...]
    headline: str  # planner whose paths feasible_frac and len_rel_mean score
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-mc", 25, 64, ("straight", "base", "optimized"), "optimized",
            "The paper's Monte-Carlo study; about half the trials have an uncovered"
            " endpoint, so map building and common borders dominate.",
        ),
        Workload(
            "dense-refine", 40, 128, ("straight", "base", "optimized"), "optimized",
            "Dense stations and borders make most trials feasible, and the refined"
            " graph's segment checks take most of each trial.",
        ),
        Workload(
            "grid-mc", 25, 64, ("grid",), "grid",
            "Lattice planner only: the direct SNR model and grid search, with no"
            " sector maps or refinement, which map and refinement changes must not move.",
        ),
    )
}

# name -> unit; which way is better, and the bounds, live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "peak_rss_mb": "MB",
    "feasible_frac": "ratio",
    "len_rel_mean": "ratio",
    "completed_frac": "ratio",
}


@dataclass
class Trial:
    index: int
    seed: int
    wall: float = 0.0  # seconds in evaluate_planners: planning plus scoring
    covered: bool = False  # both endpoints covered under the direct SNR model
    reports: list = field(default_factory=list)
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    def report(self, planner: str):
        return next((r for r in self.reports if r.planner == planner), None)


def trial_seeds(seed: int):
    """Placement seeds of one run; the same --seed gives the same sequence."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def set_up():
    """Import skypath and build the default scenario with its building arrays.

    skypath's modules are dropped first, so every call pays the import; numpy
    is imported once before, by the caller. Returns the package, the scenario
    and the seconds taken.
    """
    for name in [m for m in sys.modules if m == "skypath" or m.startswith("skypath.")]:
        del sys.modules[name]
    t0 = perf_counter()
    sp = importlib.import_module("skypath")
    scenario = sp.build_default_scenario(seed=SCENARIO_SEED)
    scenario.city.building_arrays()
    return sp, scenario, perf_counter() - t0


def check(trial: Trial, headline: str) -> list[str]:
    """Output checks: zero outage on every feasible base and optimized path,
    and optimized never longer than base.

    The grid baseline is not held to zero outage: it tests its edges at
    samples grid_step/4 apart and claims no guarantee, and some of its paths
    cross gaps that the 1 m outage sampling finds. Its outage is reported.
    """
    problems = []
    if trial.report(headline) is None:
        problems.append(f"no {headline} report")
    for name in ("base", "optimized"):
        r = trial.report(name)
        if r is not None and r.feasible and r.outage != 0.0:
            problems.append(f"{name} outage {r.outage!r}")
    base, opt = trial.report("base"), trial.report("optimized")
    if base and opt and base.feasible and opt.feasible:
        if not opt.length_m <= base.length_m + LENGTH_SLACK:
            problems.append(f"optimized {opt.length_m!r} longer than base {base.length_m!r}")
    return problems


class Bench:
    """One workload on the default city, trial by trial."""

    def __init__(self, sp, scenario, workload: Workload):
        self.sp = sp
        self.scenario = scenario
        self.workload = workload
        m = scenario.mission
        self.endpoints = [(m.start.x, m.start.y), (m.goal.x, m.goal.y)]
        self.straight_len = math.hypot(m.goal.x - m.start.x, m.goal.y - m.start.y)
        # Bound now, so a traced run does not trace the benchmark's own oracle.
        self.oracle = sp.coverage.network_covered

    def trial(self, index: int, seed: int, tracer: spans.Tracer | None = None) -> Trial:
        """Place stations, plan and score; a trial that raises is recorded."""
        wl, sp = self.workload, self.sp
        t = Trial(index, seed)

        def traced():
            return tracer.open_trial(index) if tracer else nullcontext()

        try:
            with traced():
                stations = sp.scenario.place_base_stations(
                    self.scenario.city, k=wl.k, h_g=self.scenario.radio.bs_height, seed=seed
                )
            trial_scenario = self.scenario.with_base_stations(stations)
            t.covered = bool(self.oracle(self.endpoints, trial_scenario).all())
            with traced():
                t0 = perf_counter()
                t.reports, _ = sp.evaluation.evaluate_planners(
                    trial_scenario, planners=wl.planners, seed=seed, border_samples=wl.q
                )
                t.wall = perf_counter() - t0
        except Exception as exc:  # a bad trial is recorded, the run goes on
            t.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            return t
        t.problems = check(t, wl.headline)
        return t


def digest(trials: list[Trial]) -> str:
    """sha256 over (seed, planner, feasible, repr(length)) of every report."""
    h = hashlib.sha256()
    for t in trials:
        if t.error is not None:
            h.update(f"{t.seed}|error|{t.error}\n".encode())
        for r in t.reports:
            h.update(f"{t.seed}|{r.planner}|{r.feasible}|{r.length_m!r}\n".encode())
    return h.hexdigest()


def run_for(seconds: float, seeds, make_trial, between=None) -> tuple[list[Trial], float]:
    """Closed loop: next trial only after the previous one, until time is up.

    ``between(elapsed)`` runs after each trial and returns the seconds it
    took, which are left out of the returned loop time.
    """
    trials = []
    paused = 0.0
    start = perf_counter()
    for index, seed in enumerate(seeds):
        trials.append(make_trial(index, seed))
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            break
        if between is not None:
            paused += between(elapsed)
    return trials, perf_counter() - start - paused


def tail_percentile(n: int) -> int:
    """Highest whole percentile with TAIL_BEYOND trials beyond it (50..99)."""
    return min(99, max(50, 100 * (n - TAIL_BEYOND) // max(n, 1)))


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(trials, elapsed, setup_s, peak_rss_mb, bench: Bench) -> tuple[dict, list[str]]:
    head = bench.workload.headline
    done = [t for t in trials if t.error is None]
    walls = [t.wall for t in done]
    pct = tail_percentile(len(walls))
    covered = [t for t in done if t.covered]
    feasible = [t for t in done if getattr(t.report(head), "feasible", False)]
    found = [t for t in feasible if t.covered]
    rel = [t.report(head).length_m / bench.straight_len for t in feasible]
    gaps = [t.report(head).outage for t in feasible if t.report(head).outage]
    values = {
        "setup_s": setup_s,
        "trials_per_s": len(done) / elapsed,
        "trial_s_p50": statistics.median(walls) if walls else 0.0,
        "trial_s_tail": percentile(walls, pct),
        "peak_rss_mb": peak_rss_mb,
        "feasible_frac": len(found) / len(covered) if covered else 0.0,
        "len_rel_mean": statistics.fmean(rel) if rel else 0.0,
        "completed_frac": len(done) / len(trials),
    }
    notes = [
        f"trial_s_tail is p{pct} of {len(walls)} trials",
        f"{head} feasible on {len(feasible)}/{len(done)} trials;"
        f" endpoints covered on {len(covered)}, of which {len(found)} feasible",
        f"{head} outage > 0 on {len(gaps)} feasible trials"
        + (f" (max {max(gaps)!r})" if gaps else ""),
    ]
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, notes


def write_spans(path: Path, workload: str, seed: int, tracer: spans.Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    rows = [
        [s.name, s.trial, s.parent, s.start - t0, s.end - t0, s.attrs] for s in tracer.spans
    ]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": rows}))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skypath" / "__init__.py").is_file():
        print(f"error: skypath sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded once, outside the timed set-up)

    sp, scenario, first_setup_s = set_up()
    if not Path(sp.__file__).resolve().is_relative_to(SRC):
        print(f"error: skypath imported from {sp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    bench = Bench(sp, scenario, wl)
    warm = bench.trial(-1, SCENARIO_SEED)  # fills caches; checked, not timed
    # Peak memory through set-up and this fixed trial: the peak over the loop
    # would be set by whichever rare large trial a seed happens to draw.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [f"warm-up: {p}" for p in warm.problems]
    if warm.error is not None:
        problems.append(f"warm-up raised {warm.error}")

    seeds = trial_seeds(args.seed)
    if args.trace:
        trials, _ = run_for(args.seconds / 2, seeds, bench.trial)
        tracer = spans.Tracer()
        with spans.patched(tracer, sp) as absent:
            replay = [bench.trial(t.index, t.seed, tracer) for t in trials]
        plain_digest, traced_digest = digest(trials), digest(replay)
        if plain_digest != traced_digest:
            problems.append(f"traced digest {traced_digest} != untraced {plain_digest}")
        metrics, missing = spans.layer_metrics(tracer.spans, absent)
        plain_s = sum(t.wall for t in trials)
        metrics["trace.overhead_frac"] = {
            "value": sum(t.wall for t in replay) / plain_s - 1.0 if plain_s else 0.0,
            "unit": "ratio",
        }
        metrics["trace.spans"] = {"value": len(tracer.spans) / len(replay), "unit": "count"}
        out = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        write_spans(out, wl.name, args.seed, tracer)
        notes = [f"spans written to {out.relative_to(ROOT)}"]
        if absent:
            notes.append(f"absent layers: {', '.join(absent)}; metrics left out: {', '.join(missing)}")
        run_trials = trials + replay
        run_digest = plain_digest
    else:
        # Set-ups spread over the run see the same machine as the trials do;
        # back to back they would all land in one slow or fast spell.
        setups = [first_setup_s]

        def set_up_again(elapsed: float) -> float:
            if len(setups) >= SETUP_REPEATS or elapsed < args.seconds * len(setups) / SETUP_REPEATS:
                return 0.0
            t0 = perf_counter()
            setups.append(set_up()[2])
            return perf_counter() - t0

        run_trials, elapsed = run_for(args.seconds, seeds, bench.trial, set_up_again)
        setup_s = statistics.median(setups)
        metrics, notes = end_to_end(run_trials, elapsed, setup_s, peak_rss_mb, bench)
        notes.insert(0, f"setup_s is the median of {len(setups)} set-ups")
        run_digest = digest(run_trials)

    for t in run_trials:
        problems += [f"trial {t.index} seed {t.seed}: {p}" for p in t.problems]
    failed = sum(t.error is not None for t in run_trials)
    if failed == len(run_trials):
        problems.append("no trial completed")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(run_trials)} trials,"
          f" {failed} failed, digest sha256={run_digest}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": len(run_trials),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
