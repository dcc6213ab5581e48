import csv

import pytest
import yaml

from cesrsim.cli import EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, main
from cesrsim.scenario import load_scenario


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
_GENERATE = {"--area": ["60", "20"], "--nodes": ["1"], "--class-a": ["0"]}
_NAN = float("nan")
_INF = float("inf")


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
])
def test_bad_input_exits_invalid_with_one_line(tmp_path, scenario_file, capsys,
                                               command, overrides):
    if command == "run":
        path = _write_config(tmp_path, yaml.safe_dump({**_CONFIG, **overrides}))
        argv = ["run", "--config", str(path), "--scenario", str(scenario_file)]
    elif command == "scenario":
        # each override replaces the values of the first record with that key
        lines = scenario_file.read_text().splitlines()
        for key, values in overrides.items():
            i = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
            lines[i] = f"{key} {values}"
        bad = tmp_path / "bad_scen.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        path = _write_config(tmp_path, yaml.safe_dump(_CONFIG))
        argv = ["run", "--config", str(path), "--scenario", str(bad)]
    elif command == "generate":
        args = {**_GENERATE, **overrides}
        argv = ["generate", *(a for flag, values in args.items() for a in (flag, *values))]
    else:
        path = _write_config(tmp_path, yaml.safe_dump({**_PLAN, **overrides}), "plan.yaml")
        argv = ["sweep", "--plan", str(path)]
    capsys.readouterr()
    rc = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_INVALID
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_seed_override_must_be_non_negative(tmp_path, scenario_file, capsys):
    cfg = _write_config(tmp_path, "duration: 1\nruns: 1\n")
    rc = main(["run", "--config", str(cfg), "--scenario", str(scenario_file),
               "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert rc == EXIT_INVALID
    assert "master_seed" in capsys.readouterr().err
