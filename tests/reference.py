"""A plain reference simulator, the oracle of `cesrsim.simcore`.

It follows the rules of the `simcore` module docstring in the plainest way,
one heap event per CBR arrival, per short-range frame end and per uplink
completion, with no blocking, no batched drops and no complete-medium path:

* Every arrival is routed on its own.  A short-range decision queues the
  packet one hop on at its node (dropped against its source when the queue
  holds `sr_queue_cap` frames); a long-range one offers it to the uplink.
* The uplink is one FIFO server, a deque of waiting (sender, source, hops).
  A packet is served at once when the server is idle; else it waits if its
  source has fewer than `uplink_queue_cap_per_node` packets waiting, and is
  dropped against its source if not.  Service takes size / the sender's
  long-range rate; a completion delivers the packet and serves the next.  A
  completion goes before any other event at its time.
* A node's medium view is busy while any frame on the air covers it (every
  node within sensing range of the sender at the frame's start).  A node
  whose queue gets its first frame, or whose frame ends with frames left,
  starts the head frame if its view is clear, else defers.  A frame end
  first tries, in (first wait time, node) order, each deferred node whose
  view is then clear, then the sender, and then hands the frame over: a
  beacon to each decode-range neighbour whose view was clear and who was
  not on the air at its start, a data frame to its next hop if still in
  decode range (a link drop otherwise), where the hop budget is checked
  and the packet routed again.  A frame lasts its size / the short-range
  rate plus one contention slot per node deferred at its start.
* Radio seconds: at each change, a node's short-range radio is TX while its
  own charged frame is on the air, else RX while a charged frame covers it,
  else IDLE; its long-range radio is TX while the uplink serves its packet.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from cesrsim import mobility as mob
from cesrsim.config import Mode
from cesrsim.energy import InterfaceKind, energy_per_bit, interface_energy
from cesrsim.rng import Generator, SeedSequence
from cesrsim.routing import NodeRoutingState
from cesrsim.scenario import MtClass, connectivity_graph
from cesrsim.simcore import RunStats

SR = InterfaceKind.SHORT_RANGE
LR = InterfaceKind.LONG_RANGE
# event kinds in tie-break order
COMPLETION, MOBILITY, FRAME_END, BEACON, ARRIVAL = range(5)
TX_, RX_, IDLE_ = range(3)  # short-range radio states, as list indices


def reference_run(cfg, sc, run_index=0, ends=None):
    """The RunStats of one run; the uplink's completion times are appended
    to `ends` when it is a list."""
    n, duration, coop = sc.n_nodes, cfg.duration, cfg.mode is Mode.COOPERATIVE
    rates, profiles = cfg.rates, cfg.power_profiles
    lr_rate = [rates.lr_rate(node.mt_class) for node in sc.nodes]
    pkt_mb, beacon_mb = cfg.packet_size * 8 / 1e6, cfg.beacon_size * 8 / 1e6
    kids = SeedSequence(cfg.master_seed, spawn_key=(run_index,)).spawn(3)
    rng_phase, rng_beacon, rng_mob = (Generator(k) for k in kids)
    heap = []

    def push(t, kind, node, data=None):
        heappush(heap, (t, kind, node, data))

    period = 1.0 / cfg.cbr_rate if cfg.cbr_rate > 0 else 0.0
    phase = [None] * n
    for i in range(n):
        u = rng_phase.random() if cfg.cbr_rate > 0 else None
        if u is not None and (cfg.class_a_generates or sc.nodes[i].mt_class is not MtClass.CLASS_A):
            phase[i] = period * u
            push(phase[i], ARRIVAL, i, 0)

    generated, delivered, dropped_queue, dropped_hops, dropped_link, relayed, hops_sum = (
        [0] * n for _ in range(7))
    delivered_mb = [0.0] * n
    lr_tx = [0.0] * n

    # --- uplink
    queue, waiting_up = deque(), [0] * n  # (sender, source, hops); per source
    serving = None  # (sender, source, hops, start)

    def serve(sender, source, hops, t):
        nonlocal serving
        serving = (sender, source, hops, t)
        push(t + pkt_mb / lr_rate[sender], COMPLETION, sender)

    def uplink(sender, source, hops, t):
        if serving is None:
            serve(sender, source, hops, t)
        elif waiting_up[source] < cfg.uplink_queue_cap_per_node:
            waiting_up[source] += 1
            queue.append((sender, source, hops))
        else:
            dropped_queue[source] += 1

    # --- short-range medium, per node
    pos = sc.positions()
    mob_states = mob.init_states(pos, cfg.mobility, rng_mob) if cfg.mobility else None
    cs_range = cfg.cs_range_factor * sc.tx_range
    nbrs, nbrs_cs = connectivity_graph(pos, sc.tx_range), connectivity_graph(pos, cs_range)
    sr_cost = energy_per_bit(profiles[SR].tx_w, rates.sr_rate)
    routing = [NodeRoutingState(i, lr_cost=energy_per_bit(profiles[LR].tx_w, lr_rate[i]),
                                sr_cost=sr_cost, timeout=cfg.table_timeout) for i in range(n)]
    hop_budget = cfg.resolved_hop_budget(n)
    sr_queues = [deque() for _ in range(n)]  # (next hop or -1 for a beacon, payload)
    on_air = {}  # sender -> (next hop, payload, covered, receivers, charged)
    waiting = {}  # deferred node -> first wait time
    state, since = [IDLE_] * n, [0.0] * n
    sr_seconds = [[0.0, 0.0, 0.0] for _ in range(n)]

    def view_busy(j):
        return any(j in frame[2] for frame in on_air.values())

    def settle(j, t):
        """Credit node j's short-range state since its last change."""
        own = j in on_air and on_air[j][4]
        new = TX_ if own else RX_ if any(
            j in f[2] and f[4] for f in on_air.values()) else IDLE_
        if new != state[j]:
            sr_seconds[j][state[j]] += t - since[j]
            state[j], since[j] = new, t

    def settle_all(t):
        for j in range(n):
            settle(j, t)

    def try_start(j, t):
        if j in on_air:
            return
        if view_busy(j):
            waiting.setdefault(j, t)
            return
        waiting.pop(j, None)
        nh, payload = sr_queues[j].popleft()
        charged = True if nh >= 0 else cfg.beacon_energy_counted
        dur = pkt_mb / rates.sr_rate if nh >= 0 else beacon_mb / rates.sr_rate
        dur += cfg.contention_slot * len(waiting)
        receivers = [] if nh >= 0 else [
            r for r in nbrs[j] if r not in on_air and not view_busy(r)]
        on_air[j] = (nh, payload, set(nbrs_cs[j]), receivers, charged)
        settle_all(t)
        push(t + dur, FRAME_END, j)

    def enqueue(j, nh, frame_payload, source, t):
        if nh >= 0 and len(sr_queues[j]) >= cfg.sr_queue_cap:
            dropped_queue[source] += 1
            return
        sr_queues[j].append((nh, frame_payload))
        if len(sr_queues[j]) == 1:
            try_start(j, t)

    def route(j, source, hops, t):
        nh = routing[j].forward_decision(t) if coop else None
        if nh is None:
            uplink(j, source, hops, t)
        else:
            enqueue(j, nh, (source, hops + 1), source, t)

    if coop:
        for i in range(n):
            push(cfg.beacon_period * rng_beacon.random(), BEACON, i)
        if mob_states is not None:
            push(cfg.mobility.update_interval, MOBILITY, 0)

    while heap and heap[0][0] < duration:
        t, kind, node, data = heappop(heap)
        if kind == ARRIVAL:
            generated[node] += 1
            push(phase[node] + (data + 1) * period, ARRIVAL, node, data + 1)
            route(node, node, 0, t)
        elif kind == COMPLETION:
            sender, source, hops, start = serving
            lr_tx[sender] += t - start
            delivered[source] += 1
            delivered_mb[source] += pkt_mb
            hops_sum[source] += hops
            if ends is not None:
                ends.append(t)
            serving = None
            if queue:
                sender, source, hops = queue.popleft()
                waiting_up[source] -= 1
                serve(sender, source, hops, t)
        elif kind == FRAME_END:
            nh, payload, _, receivers, _ = on_air.pop(node)
            settle_all(t)
            for j in sorted(waiting, key=lambda j: (waiting[j], j)):
                if not view_busy(j):
                    try_start(j, t)
            if sr_queues[node]:
                try_start(node, t)
            if nh < 0:
                for j in receivers:
                    routing[j].handle_beacon(node, payload, t)
            elif nh not in nbrs[node]:
                dropped_link[payload[0]] += 1
            elif payload[1] >= hop_budget:
                dropped_hops[payload[0]] += 1
            else:
                relayed[nh] += 1
                route(nh, *payload, t)
        elif kind == BEACON:
            enqueue(node, -1, routing[node].make_beacon(t), node, t)
            push(t + cfg.beacon_period, BEACON, node)
        else:
            mob_states = mob.advance_all(mob_states, cfg.mobility, sc.area, rng_mob)
            pos = [s.position for s in mob_states]
            nbrs, nbrs_cs = connectivity_graph(pos, sc.tx_range), connectivity_graph(pos, cs_range)
            push(t + cfg.mobility.update_interval, MOBILITY, 0)

    in_flight = waiting_up[:]
    if serving is not None:
        in_flight[serving[1]] += 1
        lr_tx[serving[0]] += duration - serving[3]
    for q in sr_queues:
        for nh, payload in q:
            if nh >= 0:
                in_flight[payload[0]] += 1
    for nh, payload, *_ in on_air.values():
        if nh >= 0:
            in_flight[payload[0]] += 1
    settle_all(duration)
    for j in range(n):
        sr_seconds[j][state[j]] += duration - since[j]
    iface_seconds = [
        ({SR: sr_seconds[i]} if coop else {}) | {LR: [lr_tx[i], 0.0, duration - lr_tx[i]]}
        for i in range(n)]
    return RunStats(
        run_index=run_index, mode=cfg.mode.value, duration=duration,
        scenario_seed=sc.seed, classes=[node.mt_class.value for node in sc.nodes],
        generated=generated, delivered_pkts=delivered, delivered_mbits=delivered_mb,
        dropped_queue=dropped_queue, dropped_hops=dropped_hops, dropped_link=dropped_link,
        relayed=relayed, hops_sum=hops_sum, in_flight=in_flight, iface_seconds=iface_seconds,
        iface_energy=[{iface: interface_energy(secs, profiles[iface])
                       for iface, secs in node.items()} for node in iface_seconds],
    )

