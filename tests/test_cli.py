import csv
import json
from dataclasses import replace

import pytest

from skypath import coverage
from skypath.cli import _load_with_overrides, build_parser, main
from skypath.coverage import build_all_coverage
from skypath.scenario import build_default_scenario, db_to_linear, load_scenario, save_scenario

from conftest import open_field_scenario


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def open_field_file(tmp_path):
    scn = open_field_scenario(
        [(600.0, 1000.0), (1400.0, 1000.0)],
        start_xy=(300.0, 1000.0), goal_xy=(1700.0, 1000.0),
    )
    path = tmp_path / "field.json"
    save_scenario(scn, path)
    return path


class TestGenerate:
    def test_default_generates_paper_setup(self, tmp_path, capsys):
        out = tmp_path / "scn.json"
        assert run(["generate", "--out", out, "--seed", 3]) == 0
        scn = load_scenario(out)
        assert scn.city.width == 2000.0
        assert len(scn.base_stations) == 25
        assert scn.radio.uav_altitude == 80.0
        assert scn.radio.bs_height == 20.0
        assert "25 base stations" in capsys.readouterr().out

    def test_single_station_flag(self, tmp_path):
        out = tmp_path / "one.json"
        assert run(["generate", "--out", out, "--k", 1, "--width", 400,
                    "--depth", 400, "--start", "50,50", "--goal", "350,350"]) == 0
        assert len(load_scenario(out).base_stations) == 1

    @pytest.mark.parametrize("flag, value, setting", [
        ("--rayleigh-scale", "nan", "rayleigh scale"),
        ("--rayleigh-scale", "inf", "rayleigh scale"),
        ("--width", "inf", "width"),
        ("--depth", "nan", "depth"),
        ("--block-size", "inf", "block size"),
    ])
    def test_non_finite_city_setting_exits_1(self, tmp_path, capsys, flag, value, setting):
        out = tmp_path / "scn.json"
        assert run(["generate", "--out", out, flag, value]) == 1
        assert f"error: {setting} must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_are_the_default_scenario(self, tmp_path):
        out, ref = tmp_path / "scn.json", tmp_path / "ref.json"
        assert run(["generate", "--out", out]) == 0
        save_scenario(build_default_scenario(), ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_same_seed_identical_file(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["generate", "--out", a, "--seed", 11])
        run(["generate", "--out", b, "--seed", 11])
        assert a.read_text() == b.read_text()


class TestPlan:
    def test_writes_one_file_per_planner(self, tmp_path, open_field_file):
        out_dir = tmp_path / "out"
        code = run(["plan", "--scenario", open_field_file, "--out-dir", out_dir])
        assert code == 0
        for name in ("straight", "base", "optimized", "grid"):
            data = json.loads((out_dir / f"trajectory_{name}.json").read_text())
            assert data["kind"] == name
            assert data["total_length_m"] > 0

    def test_goal_at_the_start_writes_zero_length_paths(self, tmp_path):
        scn = open_field_scenario([(600.0, 1000.0), (1400.0, 1000.0)],
                                  start_xy=(700.0, 1000.0), goal_xy=(700.0, 1000.0))
        path = tmp_path / "loop.json"
        save_scenario(scn, path)
        out_dir = tmp_path / "out"
        assert run(["plan", "--scenario", path, "--out-dir", out_dir]) == 0
        for name in ("straight", "base", "optimized", "grid"):
            data = json.loads((out_dir / f"trajectory_{name}.json").read_text())
            if name != "base":  # base detours through a station projection
                assert data["waypoints"] == [[700.0, 1000.0, 80.0]] * 2
                assert data["total_length_m"] == 0.0

    def test_planner_subset(self, tmp_path, open_field_file):
        out_dir = tmp_path / "sub"
        code = run(["plan", "--scenario", open_field_file, "--out-dir", out_dir,
                    "--planners", "optimized"])
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("trajectory_*.json"))
        assert files == ["trajectory_optimized.json"]

    def test_infeasible_endpoint_exits_2(self, tmp_path, capsys):
        scn = open_field_scenario([(1000.0, 1000.0)],
                                  start_xy=(100.0, 100.0), goal_xy=(1000.0, 900.0))
        path = tmp_path / "inf.json"
        save_scenario(scn, path)
        code = run(["plan", "--scenario", path, "--out-dir", tmp_path / "o",
                    "--planners", "base"])
        assert code == 2
        err = capsys.readouterr().err
        assert "start" in err

    def test_coverage_dump(self, tmp_path, open_field_file):
        dump = tmp_path / "cov.json"
        run(["plan", "--scenario", open_field_file, "--out-dir", tmp_path / "o",
             "--planners", "straight", "--dump-coverage", dump])
        data = json.loads(dump.read_text())
        assert {entry["bs_id"] for entry in data} == {1, 2}
        assert all("sectors" in e and "border_points" in e for e in data)
        maps, _ = build_all_coverage(load_scenario(open_field_file))
        assert [e["bs_id"] for e in data] == sorted(maps)
        for entry in data:
            cov = maps[entry["bs_id"]]
            assert entry["center"] == list(cov.center)
            wedges = entry["sectors"]
            assert [w["theta_start"] for w in wedges] == cov.starts.tolist()
            assert [w["theta_end"] for w in wedges] == cov.ends.tolist()
            assert [w["radius"] for w in wedges] == cov.radii.tolist()
            assert entry["border_points"] == cov.border_points.tolist()

    def test_coverage_dump_builds_no_common_borders(self, tmp_path, open_field_file,
                                                    monkeypatch):
        """The dump writes maps only, so the harness's own call is the one
        that builds common borders."""
        calls = []

        def counted(maps):
            calls.append(len(maps))
            return common_borders(maps)

        common_borders = coverage._common_borders
        monkeypatch.setattr(coverage, "_common_borders", counted)
        assert run(["plan", "--scenario", open_field_file, "--out-dir", tmp_path / "o",
                    "--planners", "base", "--dump-coverage", tmp_path / "cov.json"]) == 0
        assert calls == [2]

    def test_malformed_scenario_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["plan", "--scenario", bad]) == 1

    def test_duplicate_station_ids_exit_1(self, tmp_path, open_field_file, capsys):
        data = json.loads(open_field_file.read_text())
        data["base_stations"][1]["id"] = data["base_stations"][0]["id"]
        twins = tmp_path / "twins.json"
        twins.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert run(["plan", "--scenario", twins, "--out-dir", out_dir]) == 1
        assert "error: base station id 1 is used twice" in capsys.readouterr().err
        assert not out_dir.exists()


def test_snr_threshold_override_changes_only_the_threshold(tmp_path, open_field_file):
    # 2.018 dB does not survive a linear -> dB -> linear round trip exactly.
    data = json.loads(open_field_file.read_text())
    data["radio"]["p_over_sigma2_db"] = 2.018
    open_field_file.write_text(json.dumps(data))
    loaded = load_scenario(open_field_file)
    args = build_parser().parse_args(["eval", "--scenario", str(open_field_file),
                                      "--snr-threshold-db", "25"])
    scn = _load_with_overrides(args)
    assert scn.radio == replace(loaded.radio, snr_threshold=db_to_linear(25.0))
    assert scn.base_stations == loaded.base_stations and scn.mission == loaded.mission


class TestEval:
    def test_writes_csv_and_summary(self, tmp_path, open_field_file):
        out_dir = tmp_path / "ev"
        code = run(["eval", "--scenario", open_field_file, "--out-dir", out_dir,
                    "--planners", "straight,base,optimized"])
        assert code == 0
        rows = list(csv.DictReader(open(out_dir / "eval.csv")))
        assert {r["planner"] for r in rows} == {"straight", "base", "optimized"}
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["planners"]["base"]["mean_outage"] == 0.0

    def test_bad_outage_step_rejected_without_any_trajectory(self, tmp_path, capsys):
        # the start is uncovered, so neither selected planner finds a path
        path = tmp_path / "uncovered.json"
        save_scenario(open_field_scenario([(1000.0, 1000.0)], start_xy=(100.0, 100.0),
                                          goal_xy=(1000.0, 900.0)), path)
        out_dir = tmp_path / "ev"
        assert run(["eval", "--scenario", path, "--out-dir", out_dir,
                    "--planners", "base,optimized", "--outage-step", 0]) == 1
        assert capsys.readouterr().err.startswith("error: sampling step")
        assert not out_dir.exists()


class TestMonteCarlo:
    def test_deterministic_csv_modulo_walltime(self, tmp_path, open_field_file):
        rows = []
        for name in ("m1", "m2"):
            out_dir = tmp_path / name
            code = run([
                "montecarlo", "--scenario", open_field_file, "--out-dir", out_dir,
                "--trials", 3, "--base-seed", 7,
                "--planners", "straight,base,optimized",
            ])
            assert code == 0
            with open(out_dir / "montecarlo.csv") as fh:
                parsed = list(csv.reader(fh))
            head = parsed[0]
            wall_idx = head.index("wall_ms")
            rows.append([
                [c for i, c in enumerate(row) if i != wall_idx] for row in parsed
            ])
        assert rows[0] == rows[1]

    def test_summary_records_angular_step(self, tmp_path, open_field_file):
        steps = []
        for deg in ("0.5", "0.25"):
            out_dir = tmp_path / deg
            assert run(["montecarlo", "--scenario", open_field_file, "--out-dir", out_dir,
                        "--trials", 1, "--planners", "straight,base",
                        "--angular-step-deg", deg]) == 0
            summary = json.loads((out_dir / "summary.json").read_text())
            steps.append(summary["config"]["angular_step_deg"])
        assert steps == [0.5, 0.25]

    def test_row_count(self, tmp_path, open_field_file):
        out_dir = tmp_path / "mc"
        run(["montecarlo", "--scenario", open_field_file, "--out-dir", out_dir,
             "--trials", 4, "--base-seed", 2, "--planners", "straight,base"])
        with open(out_dir / "montecarlo.csv") as fh:
            parsed = list(csv.reader(fh))
        assert len(parsed) == 1 + 4 * 2
        seeds = {row[0] for row in parsed[1:]}
        assert seeds == {"2", "3", "4", "5"}

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_fewer_than_one_job_rejected(self, tmp_path, open_field_file, capsys, jobs):
        out_dir = tmp_path / "mc"
        with pytest.raises(SystemExit) as exc:
            run(["montecarlo", "--scenario", open_field_file, "--out-dir", out_dir,
                 "--trials", 1, "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs: expected an integer >= 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_planner_rejected(self, tmp_path, open_field_file):
        code = run(["montecarlo", "--scenario", open_field_file,
                    "--out-dir", tmp_path, "--trials", 1, "--planners", "straight"])
        assert code == 0
        with pytest.raises(SystemExit):
            run(["montecarlo", "--scenario", open_field_file,
                 "--out-dir", tmp_path, "--trials", 1, "--planners", "teleport"])


# Every case has a fixed id, so a case added anywhere renames no other; the
# "<command>-extra<n>" ids are the positional names the first cases ran under.
@pytest.mark.parametrize("command, extra", [
    pytest.param("plan", ["--angular-step-deg", 7], id="plan-extra0"),
    pytest.param("plan", ["--q", 0], id="plan-extra1"),
    pytest.param("eval", ["--angular-step-deg", 7], id="eval-extra2"),
    pytest.param("eval", ["--outage-step", 0], id="eval-extra3"),
    pytest.param("montecarlo", ["--trials", 0], id="montecarlo-extra4"),
    pytest.param("montecarlo", ["--q", 0], id="montecarlo-extra5"),
    pytest.param("montecarlo", ["--grid-step", 0], id="montecarlo-extra6"),
    pytest.param("montecarlo", ["--outage-step", 0], id="montecarlo-extra7"),
] + [
    # zero and non-finite steps
    pytest.param(command, [flag, value, *(["--trials", 1] if command == "montecarlo" else [])],
                 id=f"{command}-extra{n}")
    for n, (command, flag, value) in enumerate(
        ((command, flag, value)
         for command, flag in [("plan", "--angular-step-deg"), ("plan", "--grid-step"),
                               ("eval", "--angular-step-deg"), ("eval", "--grid-step"),
                               ("eval", "--outage-step"), ("montecarlo", "--angular-step-deg"),
                               ("montecarlo", "--grid-step"), ("montecarlo", "--outage-step")]
         for value in ("0", "nan", "inf")), start=8)
] + [
    pytest.param("montecarlo", ["--base-seed", -3], id="montecarlo-extra32"),
] + [
    # settings that no chosen planner reads are checked as montecarlo checks them
    pytest.param(command, ["--planners", "straight", flag, value],
                 id=f"{command}-straight-{flag[2:]}-{value}")
    for command in ("plan", "eval")
    for flag, value in (("--q", "0"), ("--grid-step", "0"), ("--grid-step", "nan"))
])
def test_rejected_call_leaves_no_out_dir(tmp_path, open_field_file, capsys, command, extra):
    # montecarlo rejects settings every trial would fail on rather than
    # recording each trial as infeasible
    out_dir = tmp_path / "out"
    assert run([command, "--scenario", open_field_file, "--out-dir", out_dir, *extra]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()
