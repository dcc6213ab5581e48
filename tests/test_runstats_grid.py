"""`tools/runstats_grid.py compare`, on small synthetic grids (no simulation)."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "runstats_grid.py"


@pytest.fixture(scope="module")
def grid_tool():
    spec = importlib.util.spec_from_file_location("runstats_grid", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _record(seed, pushes=100):
    return {
        "key": json.dumps({"seed": seed, "trace": False}, sort_keys=True),
        "stats": {"generated": [10, 20], "delivered_mbits": [0.1 * seed, 0.3],
                  "iface_seconds": [{"1": [0.5, 0.25, 1.25]}]},
        "trace_rows": 0,
        "trace_sha256": "e3b0c442",
        "pushes": pushes,
    }


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_compare_identical_grids_exits_0(grid_tool, tmp_path, capsys):
    records = [_record(1), _record(2)]
    a = _write(tmp_path / "a.jsonl", records)
    # heap pushes may differ: they are printed, not compared
    b = _write(tmp_path / "b.jsonl", [_record(1, pushes=90), _record(2)])
    assert grid_tool.main(["compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "2 of 2 runs equal" in out
    assert "worst relative float difference: 0.0" in out
    assert "heap pushes: 200 and 190; per-run change from -10 to +0" in out


def test_compare_one_ulp_names_the_first_differing_field(grid_tool, tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl", [_record(1), _record(2)])
    changed = _record(2)
    secs = changed["stats"]["iface_seconds"][0]["1"]
    old = secs[2]
    secs[2] = math.nextafter(old, math.inf)
    b = _write(tmp_path / "b.jsonl", [_record(1), changed])
    assert grid_tool.main(["compare", a, b]) == 1
    out = capsys.readouterr().out
    assert "1 of 2 runs equal" in out
    assert f"worst relative float difference: {(secs[2] - old) / secs[2]!r}" in out
    assert f"first difference: {changed['key']}: run.stats.iface_seconds[0].1[2]" in out


def test_compare_a_missing_run_exits_1(grid_tool, tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl", [_record(1), _record(2)])
    b = _write(tmp_path / "b.jsonl", [_record(1)])
    assert grid_tool.main(["compare", a, b]) == 1
    assert "the two grids differ: 2 and 1 runs, 1 in both" in capsys.readouterr().out
