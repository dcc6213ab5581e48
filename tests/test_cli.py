import csv
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import cesrsim.cli
from cesrsim.cli import EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, TRACE_CHUNK_ROWS, main
from cesrsim.config import Mode, load_config
from cesrsim.output import trace_tail, write_trace_csv
from cesrsim.plans import SWEEP_COLUMNS
from cesrsim.scenario import load_scenario
from cesrsim.simcore import Simulator, run

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def scenario_file(tmp_path):
    out = tmp_path / "scen.txt"
    rc = main([
        "generate", "--area", "60", "20", "--nodes", "8", "--class-a", "2",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    return out


def _write_config(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    return p


def test_generate_writes_connected_scenario(scenario_file):
    sc = load_scenario(scenario_file)
    assert sc.n_nodes == 8
    assert sc.n_class_a == 2


def test_generate_infeasible_exits_invalid(tmp_path, capsys):
    rc = main([
        "generate", "--area", "500", "500", "--nodes", "3", "--class-a", "1",
        "--tx-range", "1", "--max-attempts", "20", "--out", str(tmp_path / "x.txt"),
    ])
    assert rc == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_run_both_modes_outputs(tmp_path, scenario_file, capsys):
    cfg = _write_config(tmp_path, "duration: 2\nruns: 2\ncbr_rate: 500\nmode: both\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
               "--out", str(out)])
    assert rc == EXIT_OK
    for mode in ("benchmark", "cooperative"):
        assert (out / mode / "nodes.csv").is_file()
        assert (out / mode / "aggregate.csv").is_file()
        assert (out / mode / "ledger_run0.csv").is_file()
        assert (out / mode / "ledger_run1.csv").is_file()
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mode"] for r in rows] == ["benchmark", "cooperative"]
    assert rows[0]["config_label"] == "cfg"
    assert rows[1]["gain_vs_benchmark"] != ""
    assert "gain over benchmark:" in capsys.readouterr().out


def test_run_repeat_is_byte_identical(tmp_path, scenario_file):
    cfg = _write_config(
        tmp_path,
        "duration: 2\nruns: 1\ncbr_rate: 500\nmode: both\n"
        "mobility:\n  alpha: 0.5\n  mean_speed: 1.0\n",
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
                   "--out", str(out), "--trace", "--mobility-trace"])
        assert rc == EXIT_OK
        outs.append(out)
    a, b = outs
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_chunked_trace_has_the_bytes_of_one_write(tmp_path, scenario_file):
    # --trace writes each run's rows while the run makes them, in chunks
    cfg_path = _write_config(tmp_path, "duration: 0.5\nruns: 1\ncbr_rate: 3000\nmode: both\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--scenario", str(scenario_file),
               "--out", str(out), "--trace"])
    assert rc == EXIT_OK
    cfg, _ = load_config(cfg_path)
    scenario = load_scenario(scenario_file)
    for mode in (Mode.BENCHMARK, Mode.COOPERATIVE):
        rows = []
        run(replace(cfg, mode=mode), scenario, 0, trace=rows)
        assert len(rows) > 2 * TRACE_CHUNK_ROWS
        want = tmp_path / f"{mode.value}.csv"
        write_trace_csv(rows, want)
        assert (out / mode.value / "trace_run0.csv").read_bytes() == want.read_bytes()


def test_traced_run_memory_does_not_grow_with_its_length(tmp_path, scenario_file):
    peaks = []
    for duration in (1, 4):
        cfg = _write_config(tmp_path, f"duration: {duration}\nruns: 1\ncbr_rate: 3000\n"
                            "mode: benchmark\n", name=f"cfg{duration}.yaml")
        tracemalloc.start()
        try:
            rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
                       "--out", str(tmp_path / f"out{duration}"), "--trace"])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
    # holding every row would add about 131 B per row: 8 MB over these 3 s
    assert abs(peaks[1] - peaks[0]) < 2e6, peaks


def test_failed_traced_run_leaves_no_trace_file(tmp_path, scenario_file, monkeypatch, capsys):
    def failing_run(cfg, scenario, run_index, trace=None, mobility_trace=None):
        for k in range(5000):  # more than one chunk, so part of the file is written
            trace.append((k * 1e-3, trace_tail(0, None, float("inf"), 1.0)))
        raise ValueError("simulated failure")

    monkeypatch.setattr(cesrsim.cli, "run", failing_run)
    cfg = _write_config(tmp_path, "duration: 1\nruns: 1\nmode: benchmark\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
               "--out", str(out), "--trace"])
    assert rc == EXIT_RUNTIME
    assert "simulated failure" in capsys.readouterr().err
    assert not (out / "benchmark" / "trace_run0.csv").exists()


def _corrupt_one_drop_count(monkeypatch):
    """Make the first arrival of node 3 count one queue drop too many."""
    original = Simulator._h_arrival

    def h_arrival(self, node, k):
        original(self, node, k)
        if node == 3 and k == 0:
            self.dropped_queue[node] += 1

    monkeypatch.setattr(Simulator, "_h_arrival", h_arrival)


def test_run_that_breaks_conservation_exits_runtime_with_one_line(
        tmp_path, scenario_file, monkeypatch, capsys):
    _corrupt_one_drop_count(monkeypatch)
    cfg = _write_config(tmp_path, "duration: 1\nruns: 1\ncbr_rate: 500\n")
    rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_RUNTIME
    assert err.count("\n") == 1, err
    assert err.startswith("error: run 0 (cooperative): node 3: generated "), err
    assert "dropped_queue" in err


def test_run_seed_override_changes_results(tmp_path, scenario_file):
    cfg = _write_config(tmp_path, "duration: 2\nruns: 1\ncbr_rate: 500\n")
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
                   "--out", str(out), "--seed", seed])
        assert rc == EXIT_OK
        outs.append((out / "cooperative" / "aggregate.csv").read_bytes())
    assert outs[0] != outs[1]


def test_run_invalid_config_exits_invalid(tmp_path, scenario_file, capsys):
    cfg = _write_config(tmp_path, "duratin: 2\n")
    rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    assert "duratin" in capsys.readouterr().err


def test_run_rejects_an_exponent_count_with_one_line(tmp_path, scenario_file, capsys):
    # 1e1 reads as the float 10.0, and runs must be an integer
    cfg = _write_config(tmp_path, "duration: 1\nruns: 1e1\n")
    rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_INVALID
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "runs" in err and "10.0" in err


def test_run_missing_scenario_exits_runtime(tmp_path):
    cfg = _write_config(tmp_path, "duration: 2\n")
    rc = main(["run", "--config", str(cfg), "--scenario", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_RUNTIME


def _write_plan(tmp_path):
    return _write_config(
        tmp_path,
        "name: tiny\naxis: cbr_rate\nvalues: [100, 1000]\n"
        "areas: [[60, 20]]\nn_total: 6\nclass_a_counts: [2]\n"
        "config:\n  duration: 2\n  runs: 1\n",
        name="plan.yaml",
    )


def test_sweep_and_report_round_trip(tmp_path, capsys):
    plan = _write_plan(tmp_path)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--plan", str(plan), "--out", str(out)])
    assert rc == EXIT_OK
    sweep_csv = out / "sweep.csv"
    assert sweep_csv.is_file()
    assert "max gain" in capsys.readouterr().out

    rep_out = tmp_path / "report"
    rc = main(["report", "--sweep", str(sweep_csv), "--out", str(rep_out)])
    assert rc == EXIT_OK
    captured = capsys.readouterr().out
    assert "overall max gain" in captured
    dat = rep_out / "plot_tiny_60x20_ca2.dat"
    assert dat.is_file()
    lines = dat.read_text().splitlines()
    assert lines[0] == "# axis_value gain"
    assert len(lines) == 3


def test_sweep_reports_a_run_that_breaks_conservation_as_a_failed_point(
        tmp_path, monkeypatch, capsys):
    _corrupt_one_drop_count(monkeypatch)
    rc = main(["sweep", "--plan", str(_write_plan(tmp_path)), "--out", str(tmp_path / "sw")])
    err = capsys.readouterr().err
    assert rc == EXIT_RUNTIME
    assert "2 of 2 point(s) failed" in err
    assert "run 0 (benchmark): node 3: generated " in err


def test_sweep_reruns_are_byte_identical(tmp_path):
    plan = _write_plan(tmp_path)
    blobs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == EXIT_OK
        blobs.append((out / "sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_report_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    rc = main(["report", "--sweep", str(bad)])
    assert rc == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_sweep_invalid_plan_exits_invalid(tmp_path):
    plan = _write_config(tmp_path, "name: x\n", name="plan.yaml")
    rc = main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INVALID


_CONFIG = {"duration": 1, "runs": 1, "cbr_rate": 100, "mode": "both"}
_PLAN = {"name": "p", "axis": "cbr_rate", "values": [100], "areas": [[60, 20]],
         "n_total": 6, "class_a_counts": [2], "config": {"duration": 1, "runs": 1}}
_SWEEP_ROW = dict(zip(SWEEP_COLUMNS, [
    "p", 60.0, 20.0, 6, 2, "cbr_rate", 100.0, 1, 0.1, 0.05, 1.0, 1.0, 0.5,
]))
_GENERATE = {"--area": ["60", "20"], "--nodes": ["1"], "--class-a": ["0"]}
_NAN = float("nan")
_INF = float("inf")


def _dump(base, overrides):
    # a str override is YAML text appended to the dumped base, so it can
    # repeat a key or break the syntax; bytes, which break the encoding, go
    # in as the second line
    if isinstance(overrides, str):
        return yaml.safe_dump(base) + overrides
    if isinstance(overrides, bytes):
        head, rest = yaml.safe_dump(base).encode().split(b"\n", 1)
        return head + b"\n" + overrides + rest
    return yaml.safe_dump({**base, **overrides})


@pytest.mark.parametrize("command, overrides", [
    ("run", {"runs": 2.5}),
    ("run", {"cbr_rate": _INF}),
    ("run", {"duration": _NAN}),
    ("run", {"master_seed": -1}),
    ("run", {"cs_range_factor": _NAN}),
    ("run", {"sr_queue_cap": "many"}),
    ("run", {"class_a_generates": 3}),
    ("run", {"mobility": {"mean_speed": _INF}}),
    ("sweep", {"values": 5}),
    ("sweep", {"values": [_NAN]}),
    ("sweep", {"values": [-5]}),
    ("sweep", {"areas": [60]}),
    ("sweep", {"areas": [[60, 0]]}),
    ("sweep", {"class_a_counts": [7]}),
    ("sweep", {"class_a_counts": [1.5]}),
    ("sweep", {"n_total": 2.5}),
    ("sweep", {"axis": "node_count", "values": [4, 2.5]}),
    ("sweep", {"axis": "node_count", "values": [4, 10], "class_a_counts": [5]}),
    ("sweep", {"config": {"runs": 2.5}}),
    ("scenario", {"node": "0 1.0 2.0"}),
    ("scenario", {"area": "60.0"}),
    ("scenario", {"node": "0 1.0 2.0 C"}),
    ("scenario", {"seed": "x"}),
    ("scenario", {"tx_range": "nan"}),
    ("scenario", {"tx_range": "0.0"}),
    ("scenario", {"node": "0 inf 2.0 A"}),
    ("generate", {"--area": ["nan", "10"]}),
    ("generate", {"--tx-range": ["nan"]}),
    ("generate", {"--seed": ["-1"]}),
    ("run", {"mode": [1]}),
    ("sweep", {"config": [1]}),
    ("scenario", {"seed": "\u00e9"}),
    ("sweep", {"name": "caf\u00e9"}),
    ("config-file", {"name": "caf\u00e9.yaml"}),
    ("parallel", {"--parallel": ["0"]}),
    ("parallel", {"--parallel": ["-2"]}),
    ("sweep", {"name": "a/b"}),
    ("sweep", {"name": "a\\b"}),
    ("sweep", {"name": "a\0b"}),
    ("report", {"plan": "a/b"}),
    ("report", {"plan": "a\0b"}),
    ("report", {"plan": "x" * 200_000}),  # over the csv module's field limit
    ("run", "duration: 2\n"),
    ("run", "mobility:\n  alpha: 0.5\n  alpha: 0.6\n"),
    ("sweep", "name: q\n"),
    ("run", "hop_budget: [1\n"),
    ("run", "hop_budget: 2\n  tx_range: 1\n"),
    ("run", "? [1]\n: 2\n"),
    ("run", "hop_budget: \x07\n"),
    ("run", b"hop_budget: \xff\n"),
    ("sweep", "values: [1\n"),
    ("sweep", b"name: \xff\n"),
    ("scenario", b"\xff\n"),
    ("report", b"\xff\n"),
    ("run", {"cbr_rate": 1.0e-320}),  # 1/cbr_rate overflows
    ("run", {"duration": 1e308, "cbr_rate": 1e308}),  # arrival count overflows
    ("sweep", {"config": {"duration": 1e308, "runs": 1, "cbr_rate": 0}, "values": [1e308]}),
])
def test_bad_input_exits_invalid_with_one_line(tmp_path, scenario_file, capsys,
                                               command, overrides):
    if command == "run":
        path = _write_config(tmp_path, _dump(_CONFIG, overrides))
        argv = ["run", "--config", str(path), "--scenario", str(scenario_file)]
    elif command == "config-file":
        path = _write_config(tmp_path, yaml.safe_dump(_CONFIG), overrides["name"])
        argv = ["run", "--config", str(path), "--scenario", str(scenario_file)]
    elif command == "scenario":
        path = tmp_path / "bad_scen.txt"
        if isinstance(overrides, bytes):
            # bytes go in as the second line
            head, rest = scenario_file.read_bytes().split(b"\n", 1)
            path.write_bytes(head + b"\n" + overrides + rest)
        else:
            # each override replaces the values of the first record with that key
            lines = scenario_file.read_text().splitlines()
            for key, values in overrides.items():
                i = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
                lines[i] = f"{key} {values}"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = _write_config(tmp_path, yaml.safe_dump(_CONFIG))
        argv = ["run", "--config", str(cfg), "--scenario", str(path)]
    elif command == "parallel":
        path = _write_config(tmp_path, yaml.safe_dump(_PLAN), "plan.yaml")
        argv = ["sweep", "--plan", str(path), "--parallel", *overrides["--parallel"]]
    elif command == "report":
        path = tmp_path / "sweep.csv"
        with open(path, "w", newline="") as fh:
            if isinstance(overrides, bytes):  # bytes go in as the second line
                csv.writer(fh).writerow(SWEEP_COLUMNS)
            else:
                csv.writer(fh).writerows([SWEEP_COLUMNS, {**_SWEEP_ROW, **overrides}.values()])
        if isinstance(overrides, bytes):
            path.write_bytes(path.read_bytes() + overrides)
        argv = ["report", "--sweep", str(path)]
    elif command == "generate":
        args = {**_GENERATE, **overrides}
        argv = ["generate", *(a for flag, values in args.items() for a in (flag, *values))]
    else:
        path = _write_config(tmp_path, _dump(_PLAN, overrides), "plan.yaml")
        argv = ["sweep", "--plan", str(path)]
    capsys.readouterr()
    rc = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_INVALID
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    if isinstance(overrides, (str, bytes)):
        assert path.name in err
    if isinstance(overrides, bytes):
        assert "line 2" in err



@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("name", ["packet_size", "beacon_size"])
def test_size_too_large_for_a_float_exits_invalid_naming_it(tmp_path, scenario_file, capsys,
                                                             command, name):
    if command == "run":
        path = _write_config(tmp_path, _dump(_CONFIG, {name: 10 ** 400}))
        argv = ["run", "--config", str(path), "--scenario", str(scenario_file)]
    else:
        plan = {**_PLAN, "config": {**_PLAN["config"], name: 10 ** 400}}
        path = _write_config(tmp_path, yaml.safe_dump(plan), "plan.yaml")
        argv = ["sweep", "--plan", str(path)]
    capsys.readouterr()
    rc = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_INVALID
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert name in err

def test_run_without_traffic_fails_before_aggregate_csv(tmp_path, scenario_file, capsys):
    cfg = _write_config(tmp_path, "duration: 1\nruns: 1\ncbr_rate: 0\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_RUNTIME
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "delivered no traffic" in err
    assert not (out / "cooperative" / "aggregate.csv").exists()


def test_seed_override_must_be_non_negative(tmp_path, scenario_file, capsys):
    cfg = _write_config(tmp_path, "duration: 1\nruns: 1\n")
    rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
               "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert rc == EXIT_INVALID
    assert "master_seed" in capsys.readouterr().err


def _fresh_python(code, *args):
    """Runs `code` in a new interpreter that imports cesrsim from this
    checkout; returns its standard output and fails on a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# numpy is a test dependency only: a fresh interpreter in which `import
# numpy` raises starts up without the process pool, then draws scenarios,
# phases, beacon offsets and mobility normals and forks sweep workers
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # `import numpy` raises ImportError from here on
from cesrsim.cli import load_config, load_plan, main
load_plan(sys.argv[1])
load_config(sys.argv[2])
assert main(["report", "--sweep", sys.argv[3]]) == 0
assert main(["run", "--config", sys.argv[4], "--scenario", "none.txt",
             "--out", sys.argv[5]]) == 2
assert "concurrent.futures" not in sys.modules
for argv in json.loads(sys.argv[6]):
    assert main(argv) == 0, argv
"""


def _drawing_commands(cfg, plan, out):
    scen = str(out / "scen.txt")
    return [
        ["generate", "--area", "60", "20", "--nodes", "8", "--class-a", "2",
         "--seed", "3", "--out", scen],
        ["run", "--config", str(cfg), "--scenario", scen, "--out", str(out / "run"), "--trace"],
        ["sweep", "--plan", str(plan), "--out", str(out / "sweep"), "--parallel", "2"],
    ]


def test_commands_write_the_same_bytes_without_numpy(tmp_path):
    cfg = _write_config(tmp_path, yaml.safe_dump(
        dict(_CONFIG, duration=0.5, mobility={"mean_speed": 3.0, "update_interval": 0.1})))
    plan = _write_config(tmp_path, yaml.safe_dump(
        dict(_PLAN, values=[100, 1000], config={"duration": 0.2, "runs": 1})), name="plan.yaml")
    bad = _write_config(tmp_path, "duratin: 2\n", name="bad.yaml")
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    _fresh_python(_WITHOUT_NUMPY, plan, cfg, ROOT / "tests" / "golden" / "traffic.csv", bad,
                  tmp_path / "bad_out", json.dumps(_drawing_commands(cfg, plan, fresh)))
    for argv in _drawing_commands(cfg, plan, here):
        assert main(argv) == EXIT_OK, argv
    files = sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
    assert len(files) > 10
    assert files == sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    for rel in files:
        assert (fresh / rel).read_bytes() == (here / rel).read_bytes(), rel


_PARALLEL_SWEEP = """
import sys
from cesrsim.cli import main
assert main(["sweep", "--plan", sys.argv[1], "--out", sys.argv[2], "--parallel", "2"]) == 0
assert "numpy" not in sys.modules
assert main(["sweep", "--plan", sys.argv[1], "--out", sys.argv[3], "--parallel", "1"]) == 0
"""


def test_parallel_sweep_from_a_process_without_numpy_matches_serial(tmp_path):
    # workers forked from a fresh interpreter, not from pytest's, which has
    # numpy and the rest of the test suite's imports loaded
    plan = _write_config(tmp_path, yaml.safe_dump(
        dict(_PLAN, values=[100, 1000], config={"duration": 0.2, "runs": 1})), name="plan.yaml")
    _fresh_python(_PARALLEL_SWEEP, plan, tmp_path / "p2", tmp_path / "p1")
    assert (tmp_path / "p2" / "sweep.csv").read_bytes() == (tmp_path / "p1" / "sweep.csv").read_bytes()
