"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from types import SimpleNamespace

import pytest

import run
import spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench_cli(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_names_are_valid_and_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert {w["name"]: w["why"] for w in SPEC["workloads"]}.items() <= {
        w.name: w.why for w in run.WORKLOADS.values()
    }.items()
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert layer_names == [*spans.PER_LAYER, "trace.overhead_frac", "trace.spans"]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, kind):
    code, lines = bench_cli("--workload", "paper-mc", "--seed", "3", "--seconds", "1",
                            "--trace", str(trace))
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in ("run.py", "spans.py"):
        (bench_dir / name).write_text((run.ROOT / "perfbench" / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def span(name, parent, start, end, trial=0, **attrs):
    return spans.Span(name, trial, parent, start, end, attrs)


def test_self_time_subtracts_the_union_of_children():
    trace = [
        span("a.top", None, 0.0, 10.0),
        span("a.child", 0, 1.0, 3.0),
        span("a.child", 0, 2.0, 5.0),  # overlaps its sibling
        span("a.child", 0, 8.0, 12.0),  # runs past the parent's end
        span("a.grand", 1, 1.5, 2.5),  # counts against its own parent only
    ]
    assert spans.self_times(trace) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    layers = spans.summarize(trace)
    assert layers["a.top"].self_seconds == pytest.approx(4.0)
    assert layers["a.child"].seconds == pytest.approx(9.0)
    assert layers["a.child"].self_seconds == pytest.approx(8.0)


def test_layer_metrics_are_per_trial_that_ran_the_layer():
    trace = [
        span("evaluation.outage_fraction", None, 0.0, 1.0, trial=0),
        span("coverage.network_covered", 0, 0.0, 0.5, trial=0, points=100),
        span("coverage.network_covered", None, 2.0, 3.0, trial=1, points=40),
        span("planner.segments_in_coverage", None, 3.0, 4.0, trial=1, pairs=8, accepted=2),
    ]
    metrics, missing = spans.layer_metrics(trace, absent=[])
    assert missing == []
    assert metrics["coverage.network_covered.s"]["value"] == pytest.approx(0.75)
    assert metrics["coverage.network_covered.points"]["value"] == pytest.approx(70)
    assert metrics["evaluation.outage_samples"]["value"] == pytest.approx(100)
    assert metrics["planner.refine_accept_ratio"]["value"] == pytest.approx(0.25)
    assert metrics["planner.grid_baseline_plan.s"]["value"] == 0.0


def test_missing_traced_function_is_reported_absent(monkeypatch):
    package = types.ModuleType("fakesky")
    coverage = types.ModuleType("fakesky.coverage")

    def network_covered(points):
        return [True] * len(points)

    coverage.network_covered = network_covered
    package.coverage = coverage
    monkeypatch.setitem(sys.modules, "fakesky", package)
    monkeypatch.setitem(sys.modules, "fakesky.coverage", coverage)

    tracer = spans.Tracer()
    with spans.patched(tracer, package) as absent:
        assert coverage.network_covered is not network_covered
        with tracer.open_trial(0):
            assert package.coverage.network_covered([1, 2, 3]) == [True] * 3
    assert coverage.network_covered is network_covered
    assert "coverage.network_covered" not in absent
    assert "coverage.fan_blocked" in absent

    metrics, missing = spans.layer_metrics(tracer.spans, absent)
    assert metrics["coverage.network_covered.points"]["value"] == 3
    assert "coverage.network_covered.self_s" in missing  # needs fan_blocked
    assert "coverage.build_coverage_map.s" in missing
    assert not set(metrics) & set(missing)


def report(planner, feasible=True, length=1.0, outage=0.0):
    return SimpleNamespace(planner=planner, feasible=feasible, length_m=length, outage=outage)


def test_checks_flag_outage_and_a_longer_optimized_path():
    good = run.Trial(0, 7, reports=[report("base", length=2.0), report("optimized", length=2.0)])
    assert run.check(good, "optimized") == []
    bad = run.Trial(0, 7, reports=[report("base", length=2.0),
                                   report("optimized", length=2.1, outage=0.01)])
    problems = run.check(bad, "optimized")
    assert len(problems) == 2
    assert run.check(run.Trial(0, 7, reports=[report("grid")]), "optimized")


def test_tail_percentile_leaves_ten_trials_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(5) == 50
    assert run.tail_percentile(10_000) == 99


@pytest.fixture(scope="module")
def paper_bench():
    sys.path.insert(0, str(run.SRC))
    sp, scenario, _ = run.set_up()
    return run.Bench(sp, scenario, run.WORKLOADS["paper-mc"])


def run_trials(bench, seed, n, tracer=None):
    seeds = run.trial_seeds(seed)
    return [bench.trial(i, next(seeds), tracer) for i in range(n)]


def test_digest_is_stable_and_unchanged_by_tracing(paper_bench):
    first = run.digest(run_trials(paper_bench, 5, 3))
    assert run.digest(run_trials(paper_bench, 5, 3)) == first
    assert run.digest(run_trials(paper_bench, 6, 3)) != first
    tracer = spans.Tracer()
    with spans.patched(tracer, paper_bench.sp) as absent:
        traced = run_trials(paper_bench, 5, 3, tracer)
    assert absent == []
    assert tracer.spans
    assert run.digest(traced) == first


def test_failed_trial_is_recorded_and_the_loop_goes_on(paper_bench, monkeypatch):
    def broken(*args, **kwargs):
        raise paper_bench.sp.PlacementError("no room")

    monkeypatch.setattr(paper_bench.sp.scenario, "place_base_stations", broken)
    trials, _ = run.run_for(60.0, iter([1, 2]), paper_bench.trial)
    assert [t.error for t in trials] == ["PlacementError: no room"] * 2
    assert run.digest(trials) != run.digest([run.Trial(0, 1)])
