"""End-to-end acceptance suite.

Each test covers one headline behavior of the simulator and prints a
single PASS/FAIL line (run pytest with -rA or -s to see them for passing
tests).  The expensive experiment sweeps are shared via module fixtures.
"""

import heapq
import math
import os
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cesrsim.cli import EXIT_OK, main
from cesrsim.config import Mode, SimConfig
from cesrsim.plans import SweepRow, load_plan, load_sweep_csv, run_sweep
from cesrsim.routing import NodeRoutingState
from cesrsim.scenario import Area, connectivity_graph, generate_scenario
from cesrsim.simcore import run

PLANS_DIR = Path(__file__).resolve().parent.parent / "plans"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _golden_sweep(name: str) -> list[SweepRow]:
    """Sweep rows of plans/<name>.yaml on every core, checked against
    tests/golden/<name>.csv: ints and strings exactly, floats within a
    relative 1e-9."""
    rows, failures = run_sweep(load_plan(PLANS_DIR / f"{name}.yaml"),
                               parallel=os.cpu_count() or 1)
    assert failures == []
    golden = load_sweep_csv(GOLDEN_DIR / f"{name}.csv")
    assert len(rows) == len(golden), f"{len(rows)} rows, golden {name}.csv has {len(golden)}"
    for i, (got, want) in enumerate(zip(rows, golden)):
        for f in fields(SweepRow):
            a, b = getattr(got, f.name), getattr(want, f.name)
            ok = math.isclose(a, b, rel_tol=1e-9) if isinstance(b, float) else a == b
            assert ok, f"golden {name}.csv row {i} {f.name}: got {a!r}, want {b!r}"
    return rows


@pytest.fixture(scope="module")
def traffic_rows():
    return _golden_sweep("traffic")


@pytest.fixture(scope="module")
def nodes_rows():
    return _golden_sweep("nodes")


@pytest.fixture(scope="module")
def mobility_rows():
    return _golden_sweep("mobility")


# --- 1: four-node chain golden values ---------------------------------------

def test_criterion_1_chain_golden():
    t0 = time.perf_counter()
    # line A(0)-B(1)-C(2)-D(3); every short-range hop costs 0.3 J/Mb, the
    # end node has a 3 J/Mb long-range link, the others an expensive one
    nodes = [NodeRoutingState(i, lr_cost=10.0 if i < 3 else 3.0, sr_cost=0.3)
             for i in range(4)]
    nbrs = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}

    def beacon_round(now):
        beacons = [n.make_beacon(now) for n in nodes]
        for i, js in nbrs.items():
            for j in js:
                nodes[i].handle_beacon(j, beacons[j], now)

    beacon_round(0.0)
    c_cost = nodes[2].best_neighbor(0.0)[1]
    d_first = nodes[3].forward_decision(0.0) is None
    beacon_round(5.0)
    b_cost = nodes[1].best_neighbor(5.0)[1]
    d_second = nodes[3].forward_decision(5.0) is None
    elapsed = time.perf_counter() - t0

    ok = (
        abs(c_cost - 3.3) <= 1e-12
        and abs(b_cost - 3.6) <= 1e-12
        and d_first and d_second
        and elapsed < 1.0
    )
    _verdict(1, ok, f"C={c_cost!r} (want 3.3), B={b_cost!r} (want 3.6), "
                    f"end node long-range={d_first and d_second}, {elapsed:.3f}s")


# --- 2: converged costs equal the shortest-path oracle ----------------------

def _oracle_costs(adj, lr_costs, sr_cost):
    # Dijkstra on the augmented graph: virtual sink reached from node i at
    # lr_costs[i]; neighbor edges cost sr_cost
    n = len(adj)
    dist = list(lr_costs)
    heap = [(c, i) for i, c in enumerate(dist)]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in adj[u]:
            nd = d + sr_cost
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(5, 16))
        sc = generate_scenario(Area(55, 35), n, 0, 20.0, seed=int(rng.integers(1 << 30)))
        adj = connectivity_graph(sc.positions(), sc.tx_range)
        lr_costs = (0.2 + 4.8 * rng.random(n)).tolist()
        sr_cost = float(0.01 + 0.29 * rng.random())
        nodes = [NodeRoutingState(i, lr_cost=lr_costs[i], sr_cost=sr_cost)
                 for i in range(n)]
        for round_idx in range(n + 1):
            now = float(round_idx)
            beacons = [node.make_beacon(now) for node in nodes]
            for i in range(n):
                for j in adj[i]:
                    nodes[i].handle_beacon(j, beacons[j], now)
        now = float(n)
        oracle = _oracle_costs(adj, lr_costs, sr_cost)
        for i in range(n):
            worst = max(worst, abs(nodes[i].make_beacon(now) - oracle[i]))
        # converged next-hop chains terminate without revisiting a node
        for i in range(n):
            seen = set()
            cur = i
            while True:
                assert cur not in seen, f"routing loop at case {case}"
                seen.add(cur)
                nh = nodes[cur].forward_decision(now)
                if nh is None:
                    break
                cur = nh
            assert len(seen) <= n
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(2, ok, f"200 scenarios, max |cost - oracle| = {worst:.3e} "
                    f"(tol 1e-9), loop-free, {elapsed:.1f}s")


# --- 3: the energy ledger books every second exactly once -------------------

def test_criterion_3_energy_conservation():
    rng = np.random.default_rng(9)
    worst_time = 0.0
    worst_energy = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        ca = int(rng.integers(0, n + 1))
        area = (60.0, 20.0) if rng.random() < 0.7 else (40.0, 40.0)
        cfg = SimConfig(
            duration=float(1.0 + 2.0 * rng.random()),
            runs=1,
            cbr_rate=float(rng.choice([0.0, 50.0, 500.0, 1500.0])),
            mode=Mode.BENCHMARK if rng.random() < 0.5 else Mode.COOPERATIVE,
            beacon_energy_counted=bool(rng.random() < 0.8),
            master_seed=int(rng.integers(1, 1 << 20)),
        )
        sc = generate_scenario(Area(*area), n, ca, cfg.tx_range,
                               seed=int(rng.integers(1 << 30)))
        rs = run(cfg, sc, 0)
        tol = 1e-9 * cfg.duration
        for i in range(n):
            for iface, secs in rs.iface_seconds[i].items():
                worst_time = max(worst_time, abs(sum(secs) - cfg.duration) / cfg.duration)
                assert abs(sum(secs) - cfg.duration) <= tol
            # recompute energy independently from the dumped state seconds
            recomputed = sum(
                profile.tx_w * secs[0] + profile.rx_w * secs[1] + profile.idle_w * secs[2]
                for iface, secs in rs.iface_seconds[i].items()
                for profile in (cfg.power_profiles[iface],)
            )
            err = abs(recomputed - rs.node_energy(i))
            worst_energy = max(worst_energy, err)
            assert err <= tol
    _verdict(3, True, f"50 random configs; worst relative time error "
                      f"{worst_time:.2e}, worst energy mismatch {worst_energy:.2e} J")


# --- 4: the direct-uplink benchmark saturates -------------------------------

def test_criterion_4_benchmark_saturation():
    t0 = time.perf_counter()

    def goodput(rate):
        cfg = SimConfig(duration=100.0, runs=10, cbr_rate=rate, mode=Mode.BENCHMARK,
                        master_seed=1)
        sc = generate_scenario(Area(60, 20), 20, 4, cfg.tx_range, seed=7)
        stats = [run(cfg, sc, i) for i in range(cfg.runs)]
        return sum(s.goodput_mbps for s in stats) / len(stats)

    g_low = goodput(50.0)
    g_2000 = goodput(2000.0)
    g_3000 = goodput(3000.0)
    elapsed = time.perf_counter() - t0

    offered_low = 20 * 50.0 * 1024 * 8 / 1e6  # fully delivered at low load
    rel = abs(g_2000 - g_3000) / g_3000
    ok = (
        rel < 0.05
        and abs(g_low - offered_low) / offered_low < 0.02  # still linear here
        and g_2000 > g_low and g_3000 > g_low              # past the knee
        and elapsed < 120.0
    )
    _verdict(4, ok, f"goodput 50/2000/3000 pkts/s = {g_low:.2f}/{g_2000:.2f}/"
                    f"{g_3000:.2f} Mb/s, plateau diff {100 * rel:.2f}% (<5%), "
                    f"{elapsed:.0f}s")


# --- 5: gain grows with offered traffic and with density --------------------

def test_criterion_5_gain_vs_traffic(traffic_rows):
    def g(area_w, rate):
        return next(r.gain for r in traffic_rows
                    if r.area_w == area_w and r.axis_value == rate)

    dense_500, dense_3000 = g(60.0, 500.0), g(60.0, 3000.0)
    low = g(60.0, 50.0)
    sparse_3000 = g(100.0, 3000.0)
    ok = dense_3000 > dense_500 and low <= 0.0 and dense_3000 >= sparse_3000
    _verdict(5, ok, f"gain(3000)={dense_3000:.3f} > gain(500)={dense_500:.3f}; "
                    f"gain(50)={low:.3f} <= 0; dense {dense_3000:.3f} >= "
                    f"sparse {sparse_3000:.3f}")


# --- 6: an interior node count maximizes the gain ---------------------------

def test_criterion_6_gain_vs_node_count(nodes_rows):
    rows = sorted(nodes_rows, key=lambda r: r.axis_value)
    first, last = rows[0].gain, rows[-1].gain
    interior = max(r.gain for r in rows[1:-1])
    best = max(rows[1:-1], key=lambda r: r.gain)
    ok = interior > first and interior > last
    _verdict(6, ok, f"interior max {interior:.3f} at n={best.axis_value:g} vs "
                    f"endpoints {first:.3f} (n={rows[0].axis_value:g}) and "
                    f"{last:.3f} (n={rows[-1].axis_value:g})")


# --- 7: gain survives mobility; sparse goodput suffers from it --------------

def test_criterion_7_mobility(mobility_rows):
    dense = sorted((r for r in mobility_rows if r.area_w == 60.0),
                   key=lambda r: r.axis_value)
    gains = [r.gain for r in dense]
    spread = max(gains) - min(gains)

    sparse = {r.axis_value: r.coop_goodput_mbps
              for r in mobility_rows if r.area_w == 100.0}
    ok = spread < 0.10 and sparse[2.0] < sparse[0.0]
    _verdict(7, ok, f"gain spread over speeds 0-3 m/s = "
                    f"{100 * spread:.1f} pp (<10); sparse goodput "
                    f"{sparse[2.0]:.2f} @2 m/s < {sparse[0.0]:.2f} @0 m/s")


# --- 8: repeated runs are byte-identical ------------------------------------

def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "duration: 3\nruns: 2\ncbr_rate: 1000\nmode: both\n"
        "mobility:\n  alpha: 0.5\n  mean_speed: 1.0\n"
    )
    scen = tmp_path / "scen.txt"
    assert main(["generate", "--area", "60", "20", "--nodes", "10",
                 "--class-a", "2", "--seed", "4", "--out", str(scen)]) == EXIT_OK
    for name in ("a", "b"):
        assert main(["run", "--config", str(cfg), "--scenario", str(scen),
                     "--out", str(tmp_path / name),
                     "--trace", "--mobility-trace"]) == EXIT_OK
    a = tmp_path / "a"
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    diffs = [str(rel) for rel in files
             if (a / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes()]
    _verdict(8, not diffs and len(files) > 5,
             f"{len(files)} output files byte-identical across reruns"
             + (f"; differing: {diffs}" if diffs else ""))


# --- 9: the headline number is plausible and reported -----------------------

def test_criterion_9_headline_gain(traffic_rows, nodes_rows, mobility_rows,
                                   tmp_path, capsys):
    from cesrsim.plans import write_sweep_csv

    all_rows = traffic_rows + nodes_rows + mobility_rows
    best = max(all_rows, key=lambda r: r.gain)
    per_plan = {}
    for name, rows in (("traffic", traffic_rows), ("nodes", nodes_rows),
                       ("mobility", mobility_rows)):
        path = tmp_path / f"{name}.csv"
        write_sweep_csv(rows, path)
        per_plan[name] = path
    assert main(["report", "--sweep", str(per_plan[best.plan])]) == EXIT_OK
    out = capsys.readouterr().out
    reported = f"overall max gain: {100 * best.gain:.1f}%"
    ok = 0.0 < best.gain < 0.6 and reported in out
    _verdict(9, ok, f"max gain {100 * best.gain:.1f}% at {best.axis}="
                    f"{best.axis_value:g} (plan {best.plan}), in (0%, 60%), "
                    f"reported by the report command")
