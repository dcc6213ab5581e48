import gc
import math
import signal
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesrsim.config import Mode, SimConfig
from cesrsim.energy import InterfaceKind, RadioState
from cesrsim.mobility import MobilityParams, advance_all, init_states
from cesrsim.rng import Generator, SeedSequence
from cesrsim.scenario import (
    Area, MtClass, Position, Scenario, ScenarioNode, generate_scenario, place_random,
)
import cesrsim.simcore as simcore
from cesrsim.simcore import (
    _K_SR_TXEND, InvariantError, Simulator, _check_invariants, _first_k_at_or_after, run,
)
from reference import reference_run

SR = InterfaceKind.SHORT_RANGE
LR = InterfaceKind.LONG_RANGE
TX = RadioState.TX
RX = RadioState.RX


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
    # a floor: the first arrival not yet emitted
    assert _first_k_at_or_after(0.5, 1.0, 0.6, lo=3) == 3
    assert _first_k_at_or_after(0.5, 1.0, 10.5, lo=3) == 10
    # t below, at and just above arrival lo itself (3.5)
    assert _first_k_at_or_after(0.5, 1.0, 3.0, lo=3) == 3
    assert _first_k_at_or_after(0.5, 1.0, 3.5, lo=3) == 3
    assert _first_k_at_or_after(0.5, 1.0, math.nextafter(3.5, math.inf), lo=3) == 4
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
        # beacons still circulate, but the short-range radio never leaves IDLE
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


def test_invariants_allow_rounding_but_name_what_breaks():
    cfg = SimConfig(duration=2.0, runs=1, cbr_rate=800.0)
    rs = run(cfg, _scenario(), 0)  # execute() has checked this run already
    secs = rs.iface_seconds[2][SR]
    secs[2] += 1e-12 * cfg.duration  # within the relative 1e-9 tolerance
    _check_invariants(rs)
    secs[2] += 1e-8 * cfg.duration
    with pytest.raises(InvariantError, match=r"^run 0 \(cooperative\): node 2: short-range TX"):
        _check_invariants(rs)
    secs[2] -= 1e-8 * cfg.duration
    # a part below -1e-9 of the duration fails even when the sum holds
    secs[0], secs[1] = -2e-9 * cfg.duration, secs[0] + secs[1] + 2e-9 * cfg.duration
    with pytest.raises(InvariantError, match="node 2: short-range"):
        _check_invariants(rs)
    rs = run(cfg, _scenario(), 0)
    rs.in_flight[5] += 1
    with pytest.raises(InvariantError, match=r"^run 0 \(cooperative\): node 5: generated "):
        _check_invariants(rs)


@pytest.mark.parametrize("mode", list(Mode))
def test_invariants_require_long_range_airtime_of_the_packets_sent(mode):
    cfg = SimConfig(duration=2.0, runs=1, cbr_rate=3000.0, mode=mode)
    sim = Simulator(cfg, _scenario(), 0)
    rs = sim.execute()  # checked with its senders' counts already
    sent = sim.lr_sent
    assert sum(sent) >= sum(rs.delivered_pkts) > 0
    _check_invariants(rs)  # the counts are optional
    node = max(range(rs.n_nodes), key=sent.__getitem__)
    for wrong in (sent[node] + 1, sent[node] - 2):
        # TX seconds short of one more packet, or more than one packet over
        with pytest.raises(InvariantError, match=rf"^run 0 \({mode.value}\): node {node}: "
                                                 "long-range TX seconds"):
            _check_invariants(rs, [*sent[:node], wrong, *sent[node + 1:]], sim.svc_lr)


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


def _execute_checked(sim):
    """sim.execute(), checking after every event and once after the run the
    two facts the MAC's skipped calls rely on: a node with frames queued is
    on the air or deferred, so dispatch starts the MAC only for a node's
    first queued frame; and each deferred node's medium view is busy, so a
    frame end retries only the deferred nodes whose view it cleared.  The
    check runs as each event is popped, through the module's heappop."""
    checks = []

    def check(heap):
        on_air = {event[2] for event in heap if event[1] == _K_SR_TXEND}  # frame ends queued
        for j, q in enumerate(sim.sr_queues):
            assert not q or j in on_air or sim.waiting[j] is not None
        deferred = [(w, j) for j, w in enumerate(sim.waiting) if w is not None]
        if sim.complete_medium:
            assert sim.defer_q == sorted(deferred)
            assert not deferred or len(on_air) == 1 and on_air.isdisjoint(j for _, j in deferred)
        else:
            assert on_air == {j for j, tx in enumerate(sim.sr_tx) if tx}
            for _, j in deferred:
                assert sim.rx_count[j] or sim.uncharged_count[j]
        checks.append(None)

    def checked_heappop(heap):
        check(heap)
        return heappop(heap)

    heappop = simcore.heappop
    simcore.heappop = checked_heappop
    try:
        rs = sim.execute()
    finally:
        simcore.heappop = heappop
    check(sim.heap)
    if sim.coop:  # every pushed event is popped or left on the heap
        assert len(checks) == sim._seq - len(sim.heap) + 1
    return rs


@st.composite
def _cases(draw, beacon_max=1.0):
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
        beacon_period=draw(st.floats(0.2, beacon_max)),
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
# complete sensing graph with moving nodes and uncharged beacons
@example(case=_case(
    60.0, 20.0, 10, 2, 3, mobile=True, mode=Mode.COOPERATIVE, duration=2.0,
    cbr_rate=3000.0, beacon_period=0.5, beacon_energy_counted=False,
))
# one-slot queues and short table timeouts: sources block on a full
# short-range queue, and the wake arrival at an entry's expiry ends those
# blocks (5 such wakes fire on a still-blocked source here)
@example(case=_case(
    60.0, 20.0, 10, 2, 0, mobile=False, mode=Mode.COOPERATIVE, duration=2.0,
    cbr_rate=3000.0, beacon_period=0.2, cs_range_factor=1.0, sr_queue_cap=1,
    uplink_queue_cap_per_node=1,
))
# a sender and the relay it just fed defer at the same instant, and both
# reach the head of the complete-medium deferral queue
@example(case=_case(
    60.0, 20.0, 8, 1, 3, mobile=False, mode=Mode.COOPERATIVE, duration=1.0,
    cbr_rate=1000.0, beacon_period=0.2,
))
# one-slot uplink quotas and 0.2 s beacons: a beacon unblocks a source before
# its wake arrival fires, which then pops as a stale event
@example(case=_case(
    60.0, 20.0, 10, 2, 7, mobile=False, mode=Mode.COOPERATIVE, duration=2.0,
    cbr_rate=3000.0, beacon_period=0.2, uplink_queue_cap_per_node=1,
))
# one-slot queues under partial sensing: a source blocked on its uplink quota
# wakes as its waiting packet starts, but relayed packets of the same source
# took the freed slot, so the wake is dropped and blocks again
@example(case=(
    SimConfig(duration=2.0, runs=1, mode=Mode.COOPERATIVE, cbr_rate=3000.0,
              beacon_period=0.2, cs_range_factor=1.5, uplink_queue_cap_per_node=1,
              sr_queue_cap=1, master_seed=1),
    _scenario(n=20, ca=4, area=(100, 50), seed=1),
))
def test_batched_drop_fast_path_matches_exact_per_packet_loop(case):
    cfg, sc = case
    sim = Simulator(cfg, sc, 0)
    fast = _execute_checked(sim)
    assert run(cfg, sc, 0, trace=[]) == fast
    for i in range(fast.n_nodes):
        assert fast.generated[i] == (
            fast.delivered_pkts[i] + fast.dropped_total(i) + fast.in_flight[i]
        )
        for secs in fast.iface_seconds[i].values():
            assert sum(secs) == pytest.approx(cfg.duration, rel=1e-12)
            assert min(secs) >= 0.0
    if not sim.complete_medium:
        return
    # the complete-medium path against the per-node path on the same inputs
    sim = Simulator(cfg, sc, 0)
    sim._use_sr_path(False)
    _assert_equal_up_to_rounding(fast, _execute_checked(sim))
    if cfg.mode is Mode.COOPERATIVE:
        # one transmission on the air at a time
        total_tx = sum(secs[SR][TX] for secs in fast.iface_seconds)
        assert total_tx <= cfg.duration * (1 + 1e-9)
        for secs in fast.iface_seconds:
            assert secs[SR][TX] + secs[SR][RX] == pytest.approx(total_tx, rel=1e-9)


def _assert_matches_reference(cfg, sc):
    ends = []
    ref = reference_run(cfg, sc, ends=ends)
    for trace in (None, []):  # a traced benchmark run blocks too
        rs = run(cfg, sc, 0, trace=trace)
        assert ((rs.generated, rs.delivered_pkts, rs.dropped_queue, rs.in_flight)
                == (ref.generated, ref.delivered_pkts, ref.dropped_queue, ref.in_flight))
        for got, want in zip(rs.iface_seconds, ref.iface_seconds):
            assert got[LR] == pytest.approx(want[LR], rel=1e-12)
    return ends


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 10),
    n_class_a=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    cap=st.integers(1, 50),
    cbr_rate=st.floats(200.0, 3000.0),
    duration=st.floats(0.5, 2.0),
)
def test_benchmark_uplink_matches_plain_reference(n, n_class_a, seed, cap, cbr_rate, duration):
    cfg, sc = _case(60.0, 20.0, n, min(n_class_a, n), seed, mobile=False,
                    mode=Mode.BENCHMARK, duration=duration, cbr_rate=cbr_rate,
                    uplink_queue_cap_per_node=cap)
    ends = _assert_matches_reference(cfg, sc)
    # a run that ends as a packet does leaves that packet in flight
    if ends:
        _assert_matches_reference(replace(cfg, duration=ends[len(ends) // 2]), sc)


@settings(max_examples=100, deadline=None)
@given(case=_cases(beacon_max=5.0))
# complete sensing graph, saturated: blocks, batched drops and hand-overs
@example(case=_case(60.0, 20.0, 10, 2, 5, mobile=False, mode=Mode.COOPERATIVE,
                    duration=1.0, cbr_rate=3000.0, beacon_period=0.2,
                    uplink_queue_cap_per_node=3))
# partial sensing with moving nodes: spatial reuse, link drops, lost beacons
@example(case=_case(100.0, 50.0, 10, 3, 11, mobile=True, mode=Mode.COOPERATIVE,
                    duration=1.0, cbr_rate=1000.0, beacon_period=0.2, cs_range_factor=1.5,
                    sr_queue_cap=5, beacon_energy_counted=True))
def test_simulator_matches_plain_reference(case):
    # the reference has no blocking, batched drops or complete-medium path
    cfg, sc = case
    _assert_equal_up_to_rounding(run(cfg, sc, 0), reference_run(cfg, sc))


def test_benchmark_pushes_only_arrivals_it_accepts():
    # no beacons and no mobility: a source blocked on its full quota wakes
    # at its first arrival after a slot frees, so no pushed event is wasted
    cfg = SimConfig(duration=2.0, runs=1, cbr_rate=3000.0, mode=Mode.BENCHMARK)
    sim = Simulator(cfg, _scenario(n=20, ca=2, seed=3), 0)
    rs = sim.execute()
    assert sum(rs.dropped_queue) > 0
    assert sim._seq == sum(rs.delivered_pkts) + sum(rs.in_flight)


def test_benchmark_mode_steps_mobility_only_to_trace_it():
    # positions matter only to the short-range MAC and beacons, which
    # benchmark mode never runs
    base = dict(duration=2.0, runs=1, cbr_rate=3000.0, mode=Mode.BENCHMARK)
    sc = _scenario(n=10, ca=2, seed=4)
    static = Simulator(SimConfig(**base), sc, 0)
    moving = Simulator(SimConfig(mobility=MobilityParams(mean_speed=3.0), **base), sc, 0)
    assert moving.execute() == static.execute()
    assert moving._seq == static._seq
    # a requested mobility trace still records every step
    mtrace = []
    run(SimConfig(mobility=MobilityParams(mean_speed=3.0, update_interval=0.5), **base), sc, 0,
        mobility_trace=mtrace)
    assert sorted({t for t, *_ in mtrace}) == [0.0, 0.5, 1.0, 1.5]


def test_benchmark_mobility_trace_matches_independent_stepping():
    # rows at 0, dt, 2 dt, ... below the duration (dt exact in binary, so
    # the sums are exact too), positions from advance_all on the run's
    # mobility stream alone
    params = MobilityParams(mean_speed=3.0, update_interval=0.25)
    cfg = SimConfig(duration=2.0, runs=1, cbr_rate=3000.0, mode=Mode.BENCHMARK,
                    mobility=params, master_seed=9)
    sc = _scenario(n=10, ca=2, seed=4)
    mtrace = []
    run(cfg, sc, 0, mobility_trace=mtrace)
    rng = Generator(SeedSequence(cfg.master_seed, spawn_key=(0,)).spawn(3)[2])
    states = init_states(sc.positions(), params, rng)
    want = []
    for step in range(8):
        if step:
            states = advance_all(states, params, sc.area, rng)
        want += [(0.25 * step, i, st.position.x, st.position.y) for i, st in enumerate(states)]
    assert mtrace == want


def test_partial_sensing_short_range_seconds_per_clique():
    # two cliques of 5 nodes, 380 m apart, beyond the 120 m sensing range:
    # inside a clique one frame is on the air at a time and every node
    # senses it, so each node's short-range TX + RX is its clique's TX
    xs = [5.0 + 2.0 * k for k in range(5)] + [385.0 + 2.0 * k for k in range(5)]
    nodes = tuple(
        ScenarioNode(i, Position(x, 10.0), MtClass.CLASS_A if i % 5 == 0 else MtClass.CLASS_B)
        for i, x in enumerate(xs)
    )
    sc = Scenario(Area(400.0, 20.0), nodes, 20.0, Position(200.0, 10.0), 0)
    cfg = SimConfig(duration=2.0, runs=1, cbr_rate=3000.0, beacon_period=0.2)
    sim = Simulator(cfg, sc, 0)
    assert not sim.complete_medium
    rs = sim.execute()
    for clique in (range(5), range(5, 10)):
        total_tx = sum(rs.iface_seconds[i][SR][TX] for i in clique)
        assert total_tx > 0.0
        for i in clique:
            secs = rs.iface_seconds[i][SR]
            assert secs[TX] + secs[RX] == pytest.approx(total_tx, rel=1e-9)


def _assert_equal_up_to_rounding(got, want):
    """Integers and strings equal, floats within relative 1e-9."""
    def walk(a, b, path):
        if isinstance(b, float):
            assert a == pytest.approx(b, rel=1e-9), path
        elif isinstance(b, dict):
            assert a.keys() == b.keys(), path
            for k in b:
                walk(a[k], b[k], f"{path}[{k!r}]")
        elif isinstance(b, list):
            assert len(a) == len(b), path
            for k, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{k}]")
        else:
            assert a == b, path
    walk(asdict(got), asdict(want), "stats")


def test_complete_medium_path_needs_every_node_inside_a_sensed_area():
    cfg = SimConfig(duration=1.0, runs=1)  # sensing range 6 * 20 m
    sc = _scenario()
    assert Simulator(cfg, sc, 0).complete_medium
    assert not Simulator(cfg, replace(sc, area=Area(100.0, 80.0)), 0).complete_medium
    # a node outside a small area could be beyond sensing range of the others
    outside = replace(sc.nodes[0], position=Position(130.0, 0.0))
    assert not Simulator(cfg, replace(sc, nodes=(outside, *sc.nodes[1:])), 0).complete_medium


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
    # every short-range hop of a delivered packet ended at a relay, and some
    # relayed packets are lost or still in flight at the end
    assert 0 < sum(rs.hops_sum) <= sum(rs.relayed)


def test_benchmark_never_relays():
    cfg = SimConfig(duration=5.0, runs=1, cbr_rate=500.0, mode=Mode.BENCHMARK)
    rs = run(cfg, _scenario(n=10, ca=2), 0)
    assert sum(rs.relayed) == 0
    assert sum(rs.hops_sum) == 0
    assert sum(rs.dropped_hops) == 0


def test_hop_budget_limits_chains():
    # A packet that reaches a relay having used the whole budget is dropped
    # there, even where the relay would send it on long range, so a budget
    # of h delivers at most h - 1 short-range hops.
    cfg = SimConfig(duration=5.0, runs=1, cbr_rate=500.0, hop_budget=1)
    rs = run(cfg, _scenario(n=12, ca=2), 0)
    assert rs.relayed == [0] * 12
    assert rs.hops_sum == [0] * 12
    assert sum(rs.dropped_hops) > 0
    rs = run(replace(cfg, hop_budget=2), _scenario(n=12, ca=2), 0)
    assert sum(rs.hops_sum) > 0
    assert all(h <= d for h, d in zip(rs.hops_sum, rs.delivered_pkts))


def test_neighbour_lists_exclude_the_node_itself():
    # a node never hears its own beacon, on either MAC path and after moves
    mobility = MobilityParams(alpha=0.5, mean_speed=3.0, update_interval=0.1)
    for factor in (6.0, 1.5):
        cfg = SimConfig(duration=1.0, runs=1, cs_range_factor=factor, mobility=mobility)
        sim = Simulator(cfg, _scenario(), 0)
        for _ in range(2):
            assert all(i not in sim.nbrs[i] and i not in sim.nbrs_cs[i] for i in range(sim.n))
            sim._h_mobility()


@pytest.mark.parametrize("mode", list(Mode))
def test_finished_simulator_is_freed_without_the_cycle_collector(mode):
    # a sweep makes thousands of simulators; one caught in a reference cycle
    # lives until the cycle collector runs, which raised a sweep's peak memory
    cfg = SimConfig(duration=0.5, runs=1, cbr_rate=500.0, mode=mode)
    sim = Simulator(cfg, _scenario(), 0)
    gc.disable()
    try:
        sim.execute()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


def test_run_index_validation():
    cfg = SimConfig(duration=1.0, runs=2)
    sc = _scenario()
    with pytest.raises(ValueError):
        Simulator(cfg, sc, 2)
    with pytest.raises(ValueError):
        Simulator(cfg, sc, -1)


def test_trace_rows_cover_every_routed_packet():
    # 0.2 s beacons fill the tables early, so relays make rows of their own
    cfg = SimConfig(duration=1.0, runs=1, cbr_rate=50.0, beacon_period=0.2)
    trace = []
    rs = run(cfg, _scenario(n=6, ca=2), 0, trace=trace)
    # one row per routing decision: one per packet generated or relayed
    assert sum(rs.relayed) > 0
    assert len(trace) == sum(rs.generated) + sum(rs.relayed)
    for time, tail in trace:
        # the tail is the rest of the CSV line: ",node,decision,next_hop,eq1,lr\n"
        empty, node, decision, next_hop, eq1, lr = tail.split(",")
        assert empty == "" and lr.endswith("\n")
        assert decision in ("SR", "LR")
        assert 0.0 <= time < 1.0
        if decision == "SR":
            assert next_hop.isdigit()
        else:
            assert next_hop == ""


def _execute_within(sim, seconds):
    """sim.execute(), failing with TimeoutError if it runs longer."""
    def expire(signum, frame):
        raise TimeoutError(f"run still going after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return sim.execute()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("mode, overrides", [
    # a short-range block until an expiry at 1e308 s
    (Mode.COOPERATIVE, {"table_timeout": 1e308}),
    # a long-range block until a start far past 2**53 arrival periods
    (Mode.BENCHMARK, {"packet_size": 10**29}),
    (Mode.COOPERATIVE, {"packet_size": 10**29}),
], ids=["sr-expiry", "lr-start-benchmark", "lr-start-cooperative"])
def test_block_that_cannot_end_before_the_run_does_finishes(mode, overrides):
    cfg = SimConfig(duration=2.0, runs=1, cbr_rate=3000.0, beacon_period=0.2, mode=mode,
                    **overrides)
    rs = _execute_within(Simulator(cfg, _scenario(n=6, ca=2, seed=3), 0), 10.0)
    _check_invariants(rs)
    assert sum(rs.dropped_queue) > 0  # the sources blocked


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
