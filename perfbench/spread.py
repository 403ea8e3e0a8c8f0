"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --baseline perfbench/baseline.json

Runs every workload named in BENCHMARK.json (or --workloads) once per seed,
one process at a time, untraced. For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound. With
--baseline it writes those figures, the environment and the held-out seed
to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 90001  # for confirming a claimed gain; never used while tuning


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def environment() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    table = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in args.seeds]
        rows = {}
        print(f"{workload}: {len(runs)} seeds, {args.seconds} s each")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            rows[name] = spread(values) | {"unit": runs[0]["metrics"][name]["unit"],
                                           "values": values}
            share = rows[name]["spread"] / bound
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:16s} median {rows[name]['median']:<12.6g} spread "
                  f"{rows[name]['spread']:.4f}  bound {bound}  ({share:.2f} of bound)  "
                  + " ".join(f"{v:.4g}" for v in values))
        table[workload] = {"why": why.get(workload, ""), "metrics": rows}
    print(f"widest spread outside setup_s: {worst:.2f} of its bound")

    if args.baseline:
        args.baseline.write_text(json.dumps({
            "held_out_seed": HELD_OUT_SEED,
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "environment": environment(),
            "workloads": table,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
