import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesrsim.config import Mode, SimConfig
from cesrsim.energy import InterfaceKind
from cesrsim.mobility import MobilityParams
from cesrsim.scenario import (
    Area, MtClass, Position, Scenario, ScenarioNode, generate_scenario, place_random,
)
from cesrsim.simcore import Simulator, _first_k_at_or_after, run

SR = InterfaceKind.SHORT_RANGE
LR = InterfaceKind.LONG_RANGE


def _scenario(n=8, ca=2, area=(60, 20), seed=5, tx_range=20.0):
    return generate_scenario(Area(*area), n, ca, tx_range, seed=seed)


def test_transmission_durations():
    # 1024 B = 8192 bits: 8192/54 us short-range, 8192/74 us class-A uplink,
    # 8192/16 us = 512 us class-B uplink
    cfg = SimConfig(duration=1.0, runs=1)
    sim = Simulator(cfg, _scenario(), 0)
    assert sim.dur_sr_data == pytest.approx(1.5170370370370371e-4, rel=1e-12)
    assert sim.svc_lr[0] == pytest.approx(1.1070270270270271e-4, rel=1e-12)  # class A
    assert sim.svc_lr[7] == pytest.approx(5.12e-4, rel=1e-12)               # class B
    # 64 B beacon: 512/54 us
    assert sim.dur_sr_beacon == pytest.approx(64 * 8 / 1e6 / 54.0, rel=1e-12)


def test_first_k_at_or_after():
    assert _first_k_at_or_after(0.5, 1.0, 0.0) == 0
    assert _first_k_at_or_after(0.5, 1.0, 0.5) == 0
    assert _first_k_at_or_after(0.5, 1.0, 0.6) == 1
    assert _first_k_at_or_after(0.5, 1.0, 10.5) == 10
    # robust to accumulated float noise around the grid point
    assert _first_k_at_or_after(0.1, 0.1, 0.1 * 3) in (2, 3)
    k = _first_k_at_or_after(0.0, 1.0 / 3000.0, 100.0)
    assert 0.0 + k * (1.0 / 3000.0) >= 100.0
    assert 0.0 + (k - 1) * (1.0 / 3000.0) < 100.0


def test_idle_benchmark_energy_is_idle_power_times_duration():
    # no traffic, benchmark mode: every node just idles its uplink radio
    cfg = SimConfig(duration=100.0, runs=1, cbr_rate=0.0, mode=Mode.BENCHMARK)
    rs = run(cfg, _scenario(), 0)
    for i in range(rs.n_nodes):
        assert rs.iface_energy[i] == {LR: pytest.approx(66.0, abs=1e-9)}
    assert rs.total_delivered_mbits == 0.0


def test_benchmark_has_no_short_range_interface():
    cfg = SimConfig(duration=2.0, runs=1, mode=Mode.BENCHMARK)
    rs = run(cfg, _scenario(), 0)
    for i in range(rs.n_nodes):
        assert set(rs.iface_seconds[i]) == {LR}


def test_cooperative_counts_beacon_energy_only_when_enabled():
    sc = _scenario()
    base = dict(duration=50.0, runs=1, cbr_rate=0.0, mode=Mode.COOPERATIVE)
    rs_off = run(SimConfig(beacon_energy_counted=False, **base), sc, 0)
    rs_on = run(SimConfig(beacon_energy_counted=True, **base), sc, 0)
    for i in range(rs_off.n_nodes):
        # beacons still circulate, but the ledger never leaves IDLE
        assert rs_off.iface_energy[i][SR] == pytest.approx(50.0 * 0.256, abs=1e-9)
        assert rs_on.iface_energy[i][SR] > rs_off.iface_energy[i][SR]


def test_packet_conservation_per_source():
    cfg = SimConfig(duration=5.0, runs=1, cbr_rate=800.0)
    rs = run(cfg, _scenario(n=12, ca=3), 0)
    for i in range(rs.n_nodes):
        accounted = (
            rs.delivered_pkts[i]
            + rs.dropped_queue[i]
            + rs.dropped_hops[i]
            + rs.dropped_link[i]
            + rs.in_flight[i]
        )
        assert rs.generated[i] == accounted
    assert sum(rs.generated) > 0


def test_generated_matches_cbr_schedule():
    # every arrival due in [0, duration) is accounted, delivered or dropped
    cfg = SimConfig(duration=3.0, runs=1, cbr_rate=100.0, mode=Mode.BENCHMARK)
    rs = run(cfg, _scenario(n=6, ca=6), 0)
    assert sum(rs.generated) == 6 * 300


def test_run_deterministic():
    cfg = SimConfig(duration=4.0, runs=2, cbr_rate=500.0,
                    mobility=MobilityParams(alpha=0.5, mean_speed=1.0))
    sc = _scenario(n=10, ca=2)
    assert run(cfg, sc, 0) == run(cfg, sc, 0)
    assert run(cfg, sc, 0) != run(cfg, sc, 1)


def _case(width, height, n, n_class_a, seed, mobile, **cfg):
    """A config and a scenario of n uniformly placed nodes, connected or not."""
    area = Area(width, height)
    positions = place_random(area, n, np.random.default_rng(seed))
    nodes = tuple(
        ScenarioNode(i, p, MtClass.CLASS_A if i < n_class_a else MtClass.CLASS_B)
        for i, p in enumerate(positions)
    )
    sc = Scenario(area, nodes, 20.0, Position(width / 2, height / 2), seed)
    mobility = MobilityParams(mean_speed=3.0, update_interval=0.25) if mobile else None
    return SimConfig(runs=1, mobility=mobility, **cfg), sc


@st.composite
def _cases(draw):
    n = draw(st.integers(2, 10))
    cap = st.integers(1, 50)
    return _case(
        width=draw(st.floats(5.0, 200.0)),
        height=draw(st.floats(5.0, 100.0)),
        n=n,
        n_class_a=draw(st.integers(0, n)),
        seed=draw(st.integers(0, 2**32 - 1)),
        mobile=draw(st.booleans()),
        mode=draw(st.sampled_from(Mode)),
        duration=draw(st.floats(0.5, 2.0)),
        cbr_rate=draw(st.sampled_from([200.0, 1000.0, 3000.0])),
        beacon_period=draw(st.floats(0.2, 1.0)),
        cs_range_factor=draw(st.floats(1.0, 6.0)),
        sr_queue_cap=draw(cap),
        uplink_queue_cap_per_node=draw(cap),
        class_a_generates=draw(st.booleans()),
        beacon_energy_counted=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(case=_cases())
# saturated complete sensing graph, where batched drops dominate
@example(case=_case(60.0, 20.0, 10, 2, 5, mobile=False, duration=2.0, cbr_rate=3000.0))
# sensing shorter than the area diagonal: spatial reuse, deferral outside
# coverage and beacons lost at busy views
@example(case=_case(
    200.0, 100.0, 10, 2, 11, mobile=True, mode=Mode.COOPERATIVE, duration=2.0,
    cbr_rate=3000.0, beacon_period=0.5, cs_range_factor=1.0, sr_queue_cap=5,
    uplink_queue_cap_per_node=5, class_a_generates=True, beacon_energy_counted=True,
))
def test_batched_drop_fast_path_matches_exact_per_packet_loop(case):
    cfg, sc = case
    fast = run(cfg, sc, 0)
    assert run(cfg, sc, 0, trace=[]) == fast
    for i in range(fast.n_nodes):
        assert fast.generated[i] == (
            fast.delivered_pkts[i] + fast.dropped_total(i) + fast.in_flight[i]
        )
        for secs in fast.iface_seconds[i].values():
            assert sum(secs) == pytest.approx(cfg.duration, rel=1e-12)


def test_class_a_generates_flag():
    cfg = SimConfig(duration=2.0, runs=1, cbr_rate=100.0, class_a_generates=False,
                    mode=Mode.BENCHMARK)
    rs = run(cfg, _scenario(n=8, ca=3), 0)
    assert rs.generated[:3] == [0, 0, 0]
    assert all(g > 0 for g in rs.generated[3:])


def test_cooperative_relays_through_cheap_uplinks():
    # class-B sources next to a class-A node should hand packets over the
    # short-range link; the class-A node ends up relaying
    cfg = SimConfig(duration=20.0, runs=1, cbr_rate=500.0)
    rs = run(cfg, _scenario(n=10, ca=2), 0)
    assert sum(rs.relayed) > 0
    assert max(rs.hop_hist) >= 1
    # delivered hop counts are recorded for every delivered packet
    assert sum(rs.hop_hist.values()) == sum(rs.delivered_pkts)


def test_benchmark_never_relays():
    cfg = SimConfig(duration=5.0, runs=1, cbr_rate=500.0, mode=Mode.BENCHMARK)
    rs = run(cfg, _scenario(n=10, ca=2), 0)
    assert sum(rs.relayed) == 0
    assert set(rs.hop_hist) <= {0}


def test_hop_budget_limits_chains():
    cfg = SimConfig(duration=5.0, runs=1, cbr_rate=500.0, hop_budget=1)
    rs = run(cfg, _scenario(n=12, ca=2), 0)
    assert max(rs.hop_hist) <= 1


def test_run_index_validation():
    cfg = SimConfig(duration=1.0, runs=2)
    sc = _scenario()
    with pytest.raises(ValueError):
        Simulator(cfg, sc, 2)
    with pytest.raises(ValueError):
        Simulator(cfg, sc, -1)


def test_trace_rows_cover_every_routed_packet():
    cfg = SimConfig(duration=1.0, runs=1, cbr_rate=50.0)
    trace = []
    rs = run(cfg, _scenario(n=6, ca=2), 0, trace=trace)
    # one row per routing decision: at least one per generated packet
    assert len(trace) >= sum(rs.generated)
    for row in trace:
        time, node, decision, next_hop, eq1, lr = row
        assert decision in ("SR", "LR")
        assert 0.0 <= time < 1.0
        if decision == "SR":
            assert isinstance(next_hop, int)


def test_mobility_trace_positions_stay_in_area():
    cfg = SimConfig(duration=5.0, runs=1, cbr_rate=50.0,
                    mobility=MobilityParams(alpha=0.5, mean_speed=2.0))
    mtrace = []
    run(cfg, _scenario(n=6, ca=2), 0, mobility_trace=mtrace)
    assert len(mtrace) == 6 * 5  # t=0 plus updates at 1..4
    for t, node, x, y in mtrace:
        assert 0.0 <= x <= 60.0
        assert 0.0 <= y <= 20.0


def test_goodput_caps_at_uplink_capacity():
    # aggregate goodput can never exceed the best uplink rate
    cfg = SimConfig(duration=5.0, runs=1, cbr_rate=3000.0)
    rs = run(cfg, _scenario(n=10, ca=2), 0)
    assert 0.0 < rs.goodput_mbps < 74.0
