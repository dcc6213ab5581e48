"""Tests of the benchmark's own code.

Run from the repository root with `python3 -m pytest bench`. Each check must
pass on a real run and reject the same run with one value corrupted.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cesrsim.config import Mode, SimConfig  # noqa: E402
from cesrsim.output import write_node_csv, write_trace_csv  # noqa: E402
from cesrsim.scenario import Area, generate_scenario  # noqa: E402
from cesrsim.simcore import run  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from checks import IDLE, LR, RX, SR, TX  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cfg(mode=Mode.COOPERATIVE, **kw):
    base = dict(duration=1.0, runs=1, cbr_rate=3000, beacon_period=0.2, mode=mode)
    return SimConfig(**{**base, **kw})


@pytest.fixture(scope="module")
def dense():
    sc = generate_scenario(Area(60, 20), 6, 2, 20.0, seed=3)
    return {mode: (_cfg(mode), sc, run(_cfg(mode), sc, 0)) for mode in Mode}


def _corrupt(rs, edit):
    bad = copy.deepcopy(rs)
    edit(bad)
    return bad


def test_run_checks_pass_on_real_runs(dense):
    for cfg, _, rs in dense.values():
        assert checks.run_checks(rs, cfg) == []


@pytest.mark.parametrize("edit, check", [
    (lambda rs: rs.delivered_pkts.__setitem__(1, rs.delivered_pkts[1] + 1), checks.conservation),
    (lambda rs: rs.in_flight.__setitem__(0, rs.in_flight[0] + 1), checks.conservation),
    (lambda rs: rs.iface_seconds[2][LR].__setitem__(IDLE, rs.iface_seconds[2][LR][IDLE] + 1e-4),
     checks.time_in_state),
    (lambda rs: rs.iface_seconds[0][SR].__setitem__(RX, rs.iface_seconds[0][SR][RX] + 1e-4),
     checks.time_in_state),
])
def test_property_checks_reject_one_corrupted_value(dense, edit, check):
    _, _, rs = dense[Mode.COOPERATIVE]
    assert check(rs) == []
    assert check(_corrupt(rs, edit)) != []


def test_energy_check_rejects_a_changed_state_second(dense):
    cfg, _, rs = dense[Mode.COOPERATIVE]
    bad = _corrupt(rs, lambda r: r.iface_seconds[3][SR].__setitem__(TX, r.iface_seconds[3][SR][TX] + 1e-6))
    assert checks.energy(bad, cfg.power_profiles) != []


def test_generation_check_rejects_one_packet_more(dense):
    cfg, _, rs = dense[Mode.BENCHMARK]
    assert checks.generation(_corrupt(rs, lambda r: r.generated.__setitem__(4, r.generated[4] + 1)), cfg) != []


def test_lr_airtime_check_rejects_more_than_one_packet_off(dense):
    cfg, _, rs = dense[Mode.BENCHMARK]
    pkt = checks.packet_mb(cfg)
    bad = _corrupt(rs, lambda r: r.delivered_mbits.__setitem__(0, r.delivered_mbits[0] + 2 * pkt))
    assert checks.lr_airtime(bad, cfg) != []
    # 1 ms more uplink airtime is more than one packet at 16 Mb/s
    bad = _corrupt(rs, lambda r: r.iface_seconds[5][LR].__setitem__(TX, r.iface_seconds[5][LR][TX] + 1e-3))
    assert checks.lr_airtime(bad, cfg) != []


def test_gain_check_recomputes_the_reported_gain(dense):
    (bcfg, _, bmk), (_, _, coop) = dense[Mode.BENCHMARK], dense[Mode.COOPERATIVE]
    want = 1 - (coop.total_energy_j / coop.total_delivered_mbits) / (
        bmk.total_energy_j / bmk.total_delivered_mbits)
    assert checks.gain([bmk], [coop], bcfg.power_profiles, want) == []
    assert checks.gain([bmk], [coop], bcfg.power_profiles, want + 1e-6) != []
    bad = _corrupt(coop, lambda r: r.delivered_mbits.__setitem__(0, r.delivered_mbits[0] * 1.001))
    assert checks.gain([bmk], [bad], bcfg.power_profiles, want) != []


def test_complete_medium_check(dense):
    _, _, rs = dense[Mode.COOPERATIVE]
    assert checks.complete_medium(rs) == []
    bad = _corrupt(rs, lambda r: r.iface_seconds[1][SR].__setitem__(RX, r.iface_seconds[1][SR][RX] + 1e-4))
    assert checks.complete_medium(bad) != []


def test_spatial_reuse_check():
    sc = generate_scenario(Area(100, 50), 20, 4, 20.0, seed=2)
    cfg = _cfg(duration=1.5, cs_range_factor=1.5)
    rs = run(cfg, sc, 0)
    assert checks.spatial_reuse(rs) == []
    assert checks.complete_medium(rs) != []  # sensing is partial here
    assert checks.spatial_reuse(_corrupt(rs, lambda r: [
        ifaces[SR].__setitem__(TX, 0.0) for ifaces in r.iface_seconds])) != []


def test_no_drops_check(dense):
    _, _, rs = dense[Mode.BENCHMARK]
    assert sum(rs.dropped_queue) > 0  # saturated
    quiet = run(_cfg(Mode.BENCHMARK, cbr_rate=100), dense[Mode.BENCHMARK][1], 0)
    assert checks.no_drops(quiet) == []
    assert checks.no_drops(_corrupt(quiet, lambda r: r.dropped_hops.__setitem__(2, 1))) != []


@pytest.fixture(scope="module")
def traced(dense, tmp_path_factory):
    cfg, sc, batched = dense[Mode.COOPERATIVE]
    trace = []
    rs = run(cfg, sc, 0, trace=trace)
    path = tmp_path_factory.mktemp("trace") / "trace_run0.csv"
    write_trace_csv(trace, path)
    return path, rs, batched


def test_trace_file_check(traced, tmp_path):
    path, rs, _ = traced
    assert checks.trace_file(path, rs) == []
    lines = path.read_text().splitlines(keepends=True)
    sr = next(k for k, ln in enumerate(lines) if ",SR," in ln)
    flipped = lines[:sr] + [lines[sr].replace(",SR,", ",LR,")] + lines[sr + 1:]
    (tmp_path / "flipped.csv").write_text("".join(flipped))
    assert checks.trace_file(tmp_path / "flipped.csv", rs) != []
    (tmp_path / "short.csv").write_text("".join(lines[:-1]))
    assert checks.trace_file(tmp_path / "short.csv", rs) != []


def test_same_stats_check(traced):
    _, rs, batched = traced
    assert checks.same_stats(rs, batched) == []
    assert checks.same_stats(rs, replace(batched, relayed=[*batched.relayed[:-1], batched.relayed[-1] + 1])) != []


def test_node_csv_check(dense, tmp_path):
    cfg, _, rs = dense[Mode.COOPERATIVE]
    path = tmp_path / "nodes.csv"
    write_node_csv([rs], path)
    assert checks.node_csv(path, [rs], cfg.power_profiles) == []
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[9] = repr(float(fields[9]) + 1e-3)  # energy_total_j
    (tmp_path / "bad.csv").write_text("".join(lines[:2] + [",".join(fields) + "\n"] + lines[3:]))
    assert checks.node_csv(tmp_path / "bad.csv", [rs], cfg.power_profiles) != []


def test_tracer_counts_repeat_and_originals_come_back(dense):
    import cesrsim.cli
    import cesrsim.energy
    import cesrsim.simcore
    cfg, sc, _ = dense[Mode.COOPERATIVE]
    before = cesrsim.energy.EnergyLedger.transition_state
    counts = []
    with layers.Tracer() as tracer:
        for _ in range(2):
            tracer.reset()
            cesrsim.cli.run(cfg, sc, 0)
            m = tracer.metrics(1.0)
            counts.append({k: m[k] for k in layers.COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["simcore.events"] > 0 and counts[0]["energy.transitions"] > 0
    assert counts[0]["routing.decisions"] > 0
    assert cesrsim.energy.EnergyLedger.transition_state is before
    assert cesrsim.simcore.heappop.__module__ == "_heapq"


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "exact-trace",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    from workloads import WORKLOADS
    assert list(WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]
    assert [name for name, _ in layers.METRICS] == [m["name"] for m in BENCHMARK["per_layer"]]


def test_sweep_check_reads_each_point_and_rejects_a_changed_gain(tmp_path):
    import cesrsim.cli
    from workloads import Recorder, _positive_gain, _sweep
    plan = {"name": "tiny", "axis": "cbr_rate", "values": [1500, 3000], "areas": [[60, 20]],
            "n_total": 6, "class_a_counts": [2],
            "config": {"duration": 1.0, "runs": 2, "beacon_period": 0.2}}
    workload = _sweep(plan, lambda c: checks.complete_medium(c.stats)
                      if c.cfg.mode is Mode.COOPERATIVE else [], _positive_gain)
    _, commands = workload.prepare(tmp_path, 7)
    with Recorder() as recorder:
        assert [cesrsim.cli.main(argv) for argv in commands] == [0]
    assert workload.check(tmp_path, recorder.runs) == []
    sweep = tmp_path / "out" / "sweep.csv"
    lines = sweep.read_text().splitlines(keepends=True)
    fields = lines[2].rstrip("\n").split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-6)  # gain of the second point
    sweep.write_text("".join(lines[:2] + [",".join(fields) + "\n"] + lines[3:]))
    assert workload.check(tmp_path, recorder.runs) != []
    assert workload.check(tmp_path, recorder.runs[:-1]) != []
