"""Deterministic discrete-event engine.

One run simulates CBR sources, periodic beaconing, short-range relaying and
a shared long-range uplink over [0, duration) seconds:

* Long-range MAC abstraction: a single FIFO server at the base station.
  Each packet's service time is size / lr_rate(sending node's class); the
  sending node's long-range radio is in TX for the service interval.
  Admission to the waiting queue is a per-source quota (mirroring
  per-connection uplink grants); arrivals beyond a source's quota are
  dropped and counted against that source.  The server is FIFO with fixed
  service times, so a packet is booked in full on acceptance: it starts now
  or when the last accepted packet ends, its sender's ledger books that
  future interval as TX (up to the end of the run, if the packet is still on
  the air then), and it is delivered if it ends before the run does.  No
  event marks a completion.

* Short-range MAC abstraction: protocol-model interference with a sensing
  range larger than the delivery range (cs_range_factor * tx_range, like a
  CSMA carrier-sense threshold).  A transmission occupies the medium for
  every node within sensing range of the sender; the sender is in TX and
  sensing-range nodes in RX for the occupancy interval (a busy medium view
  means the radio is capturing a signal), while decoding a beacon or a
  unicast still requires being within tx_range.
  A node with queued traffic defers while its local medium view is busy;
  a frame end retries, in (first wait time, node id) order, each deferred
  node whose view it cleared.
  Both neighbour lists are ``connectivity_graph`` over the one position
  list, rebuilt at each mobility step.  Unicast data delivery fails silently
  if the target is out of range at completion; beacons are lost at nodes
  whose medium view was busy (or that were themselves transmitting) when the
  beacon started.

* Everything queued, on the air or delivered is a plain value.  A packet is
  (source, hops); enqueueing it for a short-range hop queues a copy with
  hops + 1.  A short-range frame is (next hop, payload): a data frame carries
  a packet, and next hop -1 marks a beacon, whose payload is the cost it
  advertises.

* Short-range seconds are flat per-node sums; only the long-range radio
  keeps an ``EnergyLedger``.  Frames are charged unless they are beacons
  and beacon energy is not counted.  TX is credited when a charged frame
  ends.  A node is in RX while a charged frame covers it and its own is not
  on the air, credited on the 0 <-> 1 edges of that count.  IDLE is the
  rest of the run; frames on the air at the end are clipped there.

* Complete-medium path: when the area's diagonal is within the sensing
  range and every node starts inside the area, every node senses every
  other for the whole run, since nodes never leave the area.  At most one
  transmission is then on the air at a time (the protocol interference
  model of Gupta & Kumar, IEEE Trans. IT 2000), so the MAC keeps the frame
  on the air and one sum ``busy`` of charged airtime, and at the end sets
  each node's RX = busy - own TX and IDLE = duration - busy, with no
  per-frame work for the n - 1 receivers.  A frame end hands the medium to
  the head of the deferral queue itself: it starts the head's frame, whose
  airtime counts one contention slot per node still deferring after it, and
  queues the sender behind it if the sender has frames left.  A beacon
  reaches every node within tx_range of its sender, since no other radio is
  busy when a frame starts.
  The path is chosen once per run in ``Simulator.__init__``; every other
  input takes the per-node path.

Determinism: a single event queue ordered by (time, event kind, node id,
sequence number); all randomness comes from per-run child streams of
SeedSequence(master_seed, spawn_key=(run_index,)) in ``rng.py``.

Saturated CBR sources are handled with an exact fast path.  A source blocks
as soon as one of its own packets finds its target full, or is accepted and
leaves it full: the uplink busy with the source's whole quota waiting, or the
node's short-range queue at its cap after the MAC had its chance to start a
frame.  Every arrival would then be dropped identically until one of these:

* a beacon updates the node's table, or the node pops the head of its
  short-range queue; either unblocks the source at once;
* the block could end by itself: for a long-range block when the source's
  oldest waiting packet starts and its quota frees, for a short-range block
  at the earliest expiry in the node's table, when the decision can flip to
  long range (an expiry only removes neighbours, so it cannot turn a
  long-range decision into a short-range one).  Both times are known at the
  block, which pushes the source's first arrival from then on as its wake,
  unless an earlier block already pushed that arrival.

The unblock or the wake arrival counts the drops since the block
arithmetically and resumes per-packet arrivals.  An early or spurious
unblock or wake only resumes the per-packet loop.  Results are identical to
the per-packet loop without blocking, which is what a cooperative --trace
uses.  A source has one live arrival, its wake, which is next_k while
unblocked; an unblock can come before the wake fires, so others are stale.

Cooperative runs, like benchmark runs, run in one kernel,
``_run_cooperative``: the run's lists, clock and uplink end are locals,
arrivals and frame ends are handled inline, and the steps several events
share (a frame start per MAC path, an unblock, an uplink booking, a finished
frame's delivery) are nested functions over those locals.  An arrival counts
the batched drops, queues a short-range packet or books a long-range one
(dropped if relayed packets of the source took the slot that freed), and
blocks again with the next wake pushed.  A traced run never blocks and
writes a row per decision, at a source or a relay: (time, tail), the tail
being the rest of its CSV line (``output.trace_tail``), which each node
formats again only when its next hop or eq1 cost changed.

Benchmark mode has no short-range traffic, routing or beacons, so
``_run_benchmark`` runs it without the event loop: it merges the sources'
arrivals on a heap of (time, kind, node, k) events and books each into the
uplink by the quota, blocking and wake rules above, with no relayed packets
to take a freed slot.  Each sender's long-range seconds are plain floats,
summed in the order ``EnergyLedger`` sums them, so they keep their bits.  Every
benchmark decision is LR with eq1 = inf, so a traced benchmark run blocks
too, and its trace, one row per arrival, is written after the run from the
arrival schedule.  Positions matter to nothing there, so mobility is stepped
only for a mobility trace.

At the end of every run ``_check_invariants`` checks per source that
generated = delivered + dropped (queue, hops, link) + in flight, per
interface that TX + RX + IDLE = duration, and per sender that its long-range
TX seconds are its packets delivered on long range times its service time,
plus part of at most one packet on the air at the end; it raises
``InvariantError`` naming the run, the node and the quantity if one fails.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from . import mobility as mob
from .config import Mode, SimConfig
from .energy import EnergyLedger, InterfaceKind, energy_per_bit, interface_energy
from .routing import NodeRoutingState
from .scenario import MtClass, Scenario, connectivity_graph

# Event kinds; the kind value doubles as the tie-break priority class.
_K_MOBILITY = 0
_K_SR_TXEND = 1
_K_BEACON = 2
_K_ARRIVAL = 3

_SR = InterfaceKind.SHORT_RANGE
_LR = InterfaceKind.LONG_RANGE


class _Source:
    """State of one CBR stream: arrivals at phase + k/rate for k = 0, 1, ..."""

    __slots__ = ("node", "period", "phase", "next_k", "total_k", "blocked", "wake",
                 "pushed_wake", "pushed_t")

    def __init__(self, node: int, period: float, phase: float, total_k: int):
        self.node = node
        self.period = period
        self.phase = phase
        self.next_k = 0
        self.total_k = total_k
        self.blocked: str | None = None  # None | "LR" | "SR"
        self.wake = 0  # k of the one live arrival
        self.pushed_wake = -1  # k of the last wake a block pushed
        self.pushed_t = -1.0  # the time that wake was computed from


def _first_k_at_or_after(phase: float, period: float, t: float, lo: int = 0) -> int:
    """Smallest k >= lo with phase + k*period >= t, robust to float rounding."""
    if phase + lo * period >= t:  # phase + k*period never decreases in k
        return lo
    k = int(math.ceil((t - phase) / period))
    if k < lo:
        k = lo
    while phase + k * period < t:
        k += 1
    while k > lo and phase + (k - 1) * period >= t:
        k -= 1
    return k


class InvariantError(RuntimeError):
    """A finished run broke packet conservation or time in state."""


@dataclass
class RunStats:
    """Everything one run produced, per node and aggregate."""

    run_index: int
    mode: str
    duration: float
    scenario_seed: int
    classes: list[str]
    generated: list[int]
    delivered_pkts: list[int]
    delivered_mbits: list[float]
    dropped_queue: list[int]
    dropped_hops: list[int]
    dropped_link: list[int]
    relayed: list[int]
    hops_sum: list[int]
    in_flight: list[int]
    # per node: iface -> [tx_s, rx_s, idle_s] and iface -> joules
    iface_seconds: list[dict[InterfaceKind, list[float]]]
    iface_energy: list[dict[InterfaceKind, float]]

    @property
    def n_nodes(self) -> int:
        return len(self.classes)

    @property
    def goodput_mbps(self) -> float:
        return sum(self.delivered_mbits) / self.duration

    def node_energy(self, node: int) -> float:
        return sum(self.iface_energy[node].values())

    @property
    def total_energy_j(self) -> float:
        return sum(self.node_energy(n) for n in range(self.n_nodes))

    @property
    def total_delivered_mbits(self) -> float:
        return sum(self.delivered_mbits)

    def dropped_total(self, node: int) -> int:
        return self.dropped_queue[node] + self.dropped_hops[node] + self.dropped_link[node]

    def hops_mean(self, node: int) -> float:
        if self.delivered_pkts[node] == 0:
            return 0.0
        return self.hops_sum[node] / self.delivered_pkts[node]


class Simulator:
    def __init__(
        self,
        cfg: SimConfig,
        scenario: Scenario,
        run_index: int,
        trace: list | None = None,
        mobility_trace: list | None = None,
    ):
        if run_index < 0 or run_index >= cfg.runs:
            raise ValueError(f"run_index {run_index} out of range for runs={cfg.runs}")
        self.cfg = cfg
        self.scenario = scenario
        self.run_index = run_index
        self.coop = cfg.mode is Mode.COOPERATIVE
        # --trace needs one row per routing decision, so a traced cooperative
        # run disables the batched-drop fast path and every arrival is an event
        self.trace = trace
        self.mobility_trace = mobility_trace
        if trace is not None:
            # imported here: output imports this module
            from .output import trace_tail
            self._trace_tail = trace_tail
            # per node: (next hop, eq1, tail) of its last row; nan never
            # equals eq1, so a node's first row formats its tail
            self._trace_tails = [(None, math.nan, "")] * scenario.n_nodes

        n = scenario.n_nodes
        self.n = n
        self.duration = cfg.duration
        self.now = 0.0
        self.heap: list = []
        self._seq = 0

        self.pos = scenario.positions()  # replaced after each mobility step
        self.cs_range = cfg.cs_range_factor * scenario.tx_range

        rates = cfg.rates
        self.lr_rate = [rates.lr_rate(node.mt_class) for node in scenario.nodes]
        self.lr_cost = [energy_per_bit(cfg.power_profiles[_LR].tx_w, r) for r in self.lr_rate]
        self.pkt_mb = cfg.packet_size * 8 / 1e6
        self.beacon_mb = cfg.beacon_size * 8 / 1e6
        self.svc_lr = [self.pkt_mb / r for r in self.lr_rate]
        self.dur_sr_data = self.pkt_mb / rates.sr_rate
        self.dur_sr_beacon = self.beacon_mb / rates.sr_rate
        self.hop_budget = cfg.resolved_hop_budget(n)

        self.routing: list[NodeRoutingState] | None = None
        if self.coop:
            self.ledgers = [EnergyLedger((_LR,)) for _ in range(n)]
            sr_cost = energy_per_bit(cfg.power_profiles[_SR].tx_w, rates.sr_rate)
            self.routing = [
                NodeRoutingState(i, lr_cost=self.lr_cost[i], sr_cost=sr_cost,
                                 timeout=cfg.table_timeout)
                for i in range(n)
            ]

        # shared long-range uplink: FIFO service, per-source admission quota
        # (mirrors per-connection grants; total backlog is still cap * n)
        self.up_end = 0.0  # end of the last accepted packet's service
        self.up_starts = [deque() for _ in range(n)]  # per source: starts of waiting packets
        self.up_cap = cfg.uplink_queue_cap_per_node
        self.lr_in_flight = [0] * n
        self.lr_sent = [0] * n  # per sender: packets delivered on long range

        # short-range medium
        self.sr_queues: list[deque] = [deque() for _ in range(n)]  # (next hop, payload)
        self.sr_cap = cfg.sr_queue_cap

        # stats
        self.generated = [0] * n
        self.delivered_pkts = [0] * n
        self.delivered_mb = [0.0] * n
        self.dropped_queue = [0] * n
        self.dropped_hops = [0] * n
        self.dropped_link = [0] * n
        self.relayed = [0] * n
        self.hops_sum = [0] * n

        # imported at the first draw, so commands that draw nothing never load rng.py
        from .rng import Generator, SeedSequence

        # per-run child streams so benchmark/cooperative runs with the same
        # seed see identical phases and trajectories
        kids = SeedSequence(cfg.master_seed, spawn_key=(run_index,)).spawn(3)
        self.rng_phase = Generator(kids[0])
        self.rng_beacon = Generator(kids[1])
        self.rng_mob = Generator(kids[2])

        self.sources: list[_Source | None] = [None] * n
        if cfg.cbr_rate > 0:
            period = 1.0 / cfg.cbr_rate
            for i in range(n):
                u = self.rng_phase.random()
                if not cfg.class_a_generates and scenario.nodes[i].mt_class is MtClass.CLASS_A:
                    continue
                phase = period * u
                total_k = _first_k_at_or_after(phase, period, self.duration)
                self.sources[i] = _Source(i, period, phase, total_k)

        self.mob_states: list[mob.MobilityState] | None = None
        if cfg.mobility is not None:
            self.mob_states = mob.init_states(self.pos, cfg.mobility, self.rng_mob)

        # Two nodes inside the area are at most its diagonal apart and nodes
        # never leave it, so then every node senses every other for the whole
        # run.  A scenario file may place nodes outside its area.
        w, h = scenario.area.width, scenario.area.height
        inside = all(0.0 <= p.x <= w and 0.0 <= p.y <= h for p in self.pos)
        self._use_sr_path(inside and w * w + h * h <= self.cs_range * self.cs_range)

    def _use_sr_path(self, complete: bool) -> None:
        """Choose the short-range MAC path and set up its state."""
        n = self.n
        self.complete_medium = complete
        self.defer_q: list[tuple[float, int]] = []  # complete medium: (first wait, node)
        self.waiting: list[float | None] = [None] * n  # first wait time while deferred
        self.sr_tx_s = [0.0] * n               # charged TX seconds per node
        # per-node path
        self.sr_tx = [False] * n               # any own frame on the air
        self.tx_start: list[float | None] = [None] * n  # own charged frame's start
        # frames covering each node (coverage snapshot at their start):
        # charged and uncharged; its view is busy while either is > 0
        self.rx_count = [0] * n
        self.uncharged_count = [0] * n
        self.rx_since = [0.0] * n              # start of the current RX interval
        self.sr_rx_s = [0.0] * n
        self._rebuild_neighbors()

    def _rebuild_neighbors(self) -> None:
        self.nbrs = connectivity_graph(self.pos, self.scenario.tx_range)
        # the complete-medium path reads no sensing-range lists
        self.nbrs_cs = ([[] for _ in range(self.n)] if self.complete_medium
                        else connectivity_graph(self.pos, self.cs_range))

    def _trace_row(self, node: int, nh: int | None) -> None:
        """Append the --trace row (time, tail) of the routing decision `nh`
        at `node`.  The tail is formatted again only when the node's next
        hop or eq1 changed: lr_cost is fixed per node, and equal positive
        floats print alike."""
        now = self.now
        eq1 = self.routing[node].best_neighbor(now)[1]
        last = self._trace_tails[node]
        if last[1] != eq1 or last[0] != nh:
            last = self._trace_tails[node] = (
                nh, eq1, self._trace_tail(node, nh, eq1, self.lr_cost[node]))
        self.trace.append((now, last[2]))

    def _h_mobility(self) -> None:
        """Step every node at self.now and rebuild the neighbour lists."""
        self.mob_states = mob.advance_all(
            self.mob_states, self.cfg.mobility, self.scenario.area, self.rng_mob
        )
        self.pos = [st.position for st in self.mob_states]
        self._rebuild_neighbors()
        if self.mobility_trace is not None:
            self._trace_positions(self.now)

    # --- run ----------------------------------------------------------------

    def execute(self) -> RunStats:
        return self._run_cooperative() if self.coop else self._run_benchmark()

    def _run_cooperative(self) -> RunStats:
        """A cooperative run in one kernel (see the module docstring)."""
        cfg, n, duration = self.cfg, self.n, self.duration
        push, pop = heappush, heappop  # looked up per run: a wrapper sees every event
        heap, trace, sources, routing = self.heap, self.trace, self.sources, self.routing
        sr_queues, sr_cap, hop_budget = self.sr_queues, self.sr_cap, self.hop_budget
        nbrs, nbrs_cs, complete = self.nbrs, self.nbrs_cs, self.complete_medium
        generated, delivered_pkts, delivered_mb = self.generated, self.delivered_pkts, self.delivered_mb
        dropped_queue, dropped_hops, dropped_link = self.dropped_queue, self.dropped_hops, self.dropped_link
        relayed, hops_sum, pkt_mb = self.relayed, self.hops_sum, self.pkt_mb
        up_starts, up_cap, svc_lr = self.up_starts, self.up_cap, self.svc_lr
        ledgers, lr_sent, lr_in_flight = self.ledgers, self.lr_sent, self.lr_in_flight
        waiting, defer_q, sr_tx_s = self.waiting, self.defer_q, self.sr_tx_s
        sr_tx, tx_start, rx_since, sr_rx_s = self.sr_tx, self.tx_start, self.rx_since, self.sr_rx_s
        rx_count, uncharged_count = self.rx_count, self.uncharged_count
        slot, beacon_charged = cfg.contention_slot, cfg.beacon_energy_counted
        dur_data, dur_beacon, beacon_period = self.dur_sr_data, self.dur_sr_beacon, cfg.beacon_period
        now = up_end = sr_busy = 0.0
        seq = 0  # heap pushes
        air = None  # complete medium: (sender, start, charged) on the air
        deferred = 0  # per-node path: nodes waiting

        if self.mob_states is not None:
            if self.mobility_trace is not None:
                self._trace_positions(0.0)
            seq += 1
            push(heap, (cfg.mobility.update_interval, _K_MOBILITY, 0, seq, None))
        for i in range(n):
            seq += 1
            push(heap, (beacon_period * self.rng_beacon.random(), _K_BEACON, i, seq, None))
        for src in sources:
            if src is not None and src.total_k > 0:
                seq += 1
                push(heap, (src.phase, _K_ARRIVAL, src.node, seq, 0))

        def unblock(src, tmin):
            """End a block at the first arrival at or after tmin, which becomes
            the live one: every arrival before it was dropped."""
            nonlocal seq
            k = _first_k_at_or_after(src.phase, src.period, tmin, src.next_k)
            if k > src.total_k:
                k = src.total_k
            batched = k - src.next_k
            generated[src.node] += batched
            dropped_queue[src.node] += batched
            src.next_k = k
            src.blocked = None
            src.wake = k
            if k < src.total_k:
                seq += 1
                push(heap, (src.phase + k * src.period, _K_ARRIVAL, src.node, seq, k))

        def uplink(sender, pkt):
            """Book a relayed (source, hops) packet in full if its source's
            quota has room, else drop it, as an arrival books its own."""
            nonlocal up_end
            source, hops = pkt
            start = up_end
            if now < start:
                starts = up_starts[source]
                while starts and starts[0] <= now:
                    starts.popleft()  # started by now, so no longer waiting
                if len(starts) >= up_cap:
                    dropped_queue[source] += 1
                    return
                starts.append(start)
            else:
                start = now
            # FIFO, so the sender's ledger gets its bookings in time order
            end = up_end = start + svc_lr[sender]
            if end < duration:
                ledgers[sender].book(_LR, start, end)
                lr_sent[sender] += 1
                delivered_pkts[source] += 1
                delivered_mb[source] += pkt_mb
                hops_sum[source] += hops
            else:
                if start < duration:  # on the air at the end: TX up to it
                    ledgers[sender].book(_LR, start, duration)
                lr_in_flight[source] += 1

        def start_per_node(node):
            """Put the head of a node's queue on the air: it is not waiting, and
            its view is clear."""
            nonlocal seq
            nh, payload = sr_queues[node].popleft()
            src = sources[node]
            if src is not None and src.blocked == "SR":
                unblock(src, now)  # a queue slot just freed
            if nh < 0:
                charge, dur = beacon_charged, dur_beacon
            else:
                charge, dur = True, dur_data
            # contention overhead: one slot per node still deferring
            dur += slot * deferred
            receivable = None
            if nh < 0:  # a beacon is delivered where a decode-range view is clear
                receivable = [j for j in nbrs[node]
                              if not (sr_tx[j] or rx_count[j] or uncharged_count[j])]
            # sensing: blocking + RX energy; _rebuild_neighbors assigns new lists
            # and never mutates old ones, so this reference is a snapshot
            covered_cs = nbrs_cs[node]
            sr_tx[node] = True
            if charge:
                tx_start[node] = now
                for j in covered_cs:
                    c = rx_count[j] + 1
                    rx_count[j] = c
                    if c == 1 and tx_start[j] is None:
                        rx_since[j] = now
            else:
                for j in covered_cs:
                    uncharged_count[j] += 1
            seq += 1
            push(heap, (now + dur, _K_SR_TXEND, node, seq,
                        (nh, payload, covered_cs, receivable, charge)))

        def try_start_per_node(node):
            """Start a node's first queued frame, or defer the node while its
            view is busy; a node on the air retries at its frame end."""
            nonlocal deferred
            if sr_tx[node]:
                return
            if rx_count[node] or uncharged_count[node]:
                waiting[node] = now
                deferred += 1
                return
            start_per_node(node)

        def start_complete(node):
            """Put the head of a node's queue on the free medium, with one
            contention slot per node still deferring."""
            nonlocal seq, air
            nh, payload = sr_queues[node].popleft()
            src = sources[node]
            if src is not None and src.blocked == "SR":
                unblock(src, now)  # a queue slot just freed
            if nh < 0:
                charge, dur = beacon_charged, dur_beacon
            else:
                charge, dur = True, dur_data
            dur += slot * len(defer_q)
            air = (node, now, charge)
            # no other radio is busy, so every decode-range neighbour receives;
            # _rebuild_neighbors never mutates a list it has assigned
            seq += 1
            push(heap, (now + dur, _K_SR_TXEND, node, seq, (nh, payload, nbrs[node])))

        def try_start_complete(node):
            """Start a node's first queued frame if the medium is idle, else
            defer the node; the sender on the air retries at its frame end."""
            if air is None:
                start_complete(node)
            elif air[0] != node:  # every node but the sender senses the frame
                waiting[node] = now
                insort(defer_q, (now, node))

        try_start = try_start_complete if complete else try_start_per_node

        def trace_row(node, nh):
            self.now = now
            self._trace_row(node, nh)

        ARRIVAL, SR_TXEND, BEACON = _K_ARRIVAL, _K_SR_TXEND, _K_BEACON
        while heap and heap[0][0] < duration:
            now, kind, node, _, payload = pop(heap)
            if kind == ARRIVAL:
                # arrival k of a source's own packet: end a block it wakes,
                # route the packet, then push the next arrival or block
                src = sources[node]
                if payload != src.wake:
                    continue  # stale: an unblock superseded it
                k = payload
                if src.blocked is not None:
                    # every arrival since the block was dropped
                    batched = k - src.next_k
                    generated[node] += batched
                    dropped_queue[node] += batched
                    src.blocked = None
                src.next_k = k + 1
                generated[node] += 1
                nh = routing[node].forward_decision(now)
                if trace is not None:
                    trace_row(node, nh)
                if nh is not None:
                    # a relay's enqueue in place, reporting a full queue
                    q = sr_queues[node]
                    if len(q) < sr_cap:
                        q.append((nh, (node, 1)))
                        if len(q) == 1:  # as for a relay
                            try_start(node)
                        full = "SR" if len(q) >= sr_cap else None
                    else:
                        dropped_queue[node] += 1
                        full = "SR"
                else:
                    # uplink(node, (node, 0)) in place: on saturated runs most
                    # arrivals are a blocked source's wake, booked here and blocked again
                    start = up_end
                    full = None
                    if now < start:
                        starts = up_starts[node]
                        while starts and starts[0] <= now:
                            starts.popleft()  # started by now, so no longer waiting
                        if len(starts) < up_cap:
                            starts.append(start)
                            if len(starts) >= up_cap:
                                full = "LR"
                        else:
                            # relayed packets of this source took the slot that freed
                            dropped_queue[node] += 1
                            full = "LR"
                            start = None
                    else:
                        start = now
                    if start is not None:
                        end = up_end = start + svc_lr[node]
                        if end < duration:
                            ledgers[node].book(_LR, start, end)
                            lr_sent[node] += 1
                            delivered_pkts[node] += 1
                            delivered_mb[node] += pkt_mb  # 0 hops: hops_sum keeps
                        else:
                            if start < duration:  # as in uplink
                                ledgers[node].book(_LR, start, duration)
                            lr_in_flight[node] += 1
                k += 1
                if full is not None and trace is None:  # a traced run never blocks
                    # the next arrival would be dropped: block until the first
                    # arrival at or after the time the block could end by itself
                    src.blocked = full
                    if full == "LR":
                        t = up_starts[node][0]  # the quota frees as this packet starts
                    else:
                        # finite: a short-range decision needs a live entry
                        t = routing[node].earliest_expiry(now)
                    # a wake an earlier block pushed is still pending if it is at
                    # or after arrival k = next_k, since the arrival before k is now
                    if t == src.pushed_t and src.pushed_wake >= k:
                        # that block came at an earlier arrival, so below k, and
                        # first_k(t, lo) = max(lo, first_k(t, 0)): the wake is the same
                        src.wake = src.pushed_wake
                        continue
                    # each arrival from t >= duration on is at or after the end
                    # and never pushed, so total_k stands for the first; the
                    # search would overflow or spin on a t far past the last arrival
                    k = (src.total_k if t >= duration
                         else _first_k_at_or_after(src.phase, src.period, t, k))
                    if k == src.pushed_wake:
                        src.wake = k
                        continue
                    src.pushed_wake = k
                    src.pushed_t = t
                src.wake = k
                if k < src.total_k:
                    seq += 1
                    push(heap, (src.phase + k * src.period, ARRIVAL, node, seq, k))
            elif kind == SR_TXEND:
                if complete:
                    nh, frame, receivable = payload
                    _, start, charged = air
                    if charged:
                        dt = now - start
                        sr_busy += dt
                        sr_tx_s[node] += dt
                    # the medium is free: the node that has waited longest starts,
                    # and the sender, if it has frames left, waits behind every other
                    if defer_q:
                        head = defer_q.pop(0)[1]
                        waiting[head] = None
                        start_complete(head)
                        if sr_queues[node]:  # on the air until now, so not waiting
                            waiting[node] = now
                            insort(defer_q, (now, node))
                    elif sr_queues[node]:
                        start_complete(node)
                    else:
                        air = None
                else:
                    nh, frame, covered_cs, receivable, charge = payload
                    sr_tx[node] = False
                    cleared = []  # (first wait time, node) of deferred nodes this end clears
                    if charge:
                        for j in covered_cs:
                            c = rx_count[j] - 1
                            rx_count[j] = c
                            if c == 0:
                                if tx_start[j] is None:
                                    sr_rx_s[j] += now - rx_since[j]
                                if waiting[j] is not None and not uncharged_count[j]:
                                    cleared.append((waiting[j], j))
                        sr_tx_s[node] += now - tx_start[node]
                        tx_start[node] = None
                        if rx_count[node] > 0:
                            rx_since[node] = now
                    else:
                        for j in covered_cs:
                            c = uncharged_count[j] - 1
                            uncharged_count[j] = c
                            if c == 0 and waiting[j] is not None and not rx_count[j]:
                                cleared.append((waiting[j], j))
                    # medium freed inside the sensing set: deferred nodes whose
                    # view it cleared start in queue order, then the sender tries.
                    # No other deferred node can start: between events every
                    # deferred node senses a frame, since each frame end that
                    # clears its view retries it.
                    cleared.sort()
                    for _, j in cleared:
                        if rx_count[j] or uncharged_count[j]:
                            continue  # an earlier start here covers it: it keeps waiting
                        waiting[j] = None
                        deferred -= 1
                        start_per_node(j)
                    if sr_queues[node]:  # the sender is neither on the air nor waiting
                        if rx_count[node] or uncharged_count[node]:
                            waiting[node] = now
                            deferred += 1
                        else:
                            start_per_node(node)
                # hand the finished frame to its receivers; a relay routes a packet on
                if nh < 0:
                    for j in receivable:
                        routing[j].handle_beacon(node, frame, now)
                        src = sources[j]
                        if src is not None and src.blocked is not None:
                            # the table changed; the batched-drop window ends here
                            unblock(src, now)
                elif nh in nbrs[node]:
                    source, hops = frame
                    if hops >= hop_budget:
                        dropped_hops[source] += 1
                        continue
                    relayed[nh] += 1
                    nxt = routing[nh].forward_decision(now)
                    if trace is not None:
                        trace_row(nh, nxt)
                    if nxt is None:
                        uplink(nh, frame)
                        continue
                    q = sr_queues[nh]
                    if len(q) >= sr_cap:  # a full queue drops it against its source
                        dropped_queue[source] += 1
                        continue
                    q.append((nxt, (source, hops + 1)))
                    if len(q) == 1:  # a node with frames queued is on the air or deferred
                        try_start(nh)
                else:
                    dropped_link[frame[0]] += 1
            elif kind == BEACON:
                q = sr_queues[node]
                q.append((-1, routing[node].make_beacon(now)))
                if len(q) == 1:  # as for a relay
                    try_start(node)
                seq += 1
                push(heap, (now + beacon_period, _K_BEACON, node, seq, None))
            else:
                self.now = now
                self._h_mobility()
                nbrs, nbrs_cs = self.nbrs, self.nbrs_cs
                seq += 1
                push(heap, (now + cfg.mobility.update_interval, _K_MOBILITY, 0, seq, None))

        self._seq = seq
        for ledger in ledgers:
            ledger.close(duration)
        # clip the frames still on the air at the end of the run
        if complete:
            if air is not None and air[2]:
                sender, start, _ = air
                sr_busy += duration - start
                sr_tx_s[sender] += duration - start
            sr_seconds = [[tx, sr_busy - tx, duration - sr_busy] for tx in sr_tx_s]
        else:
            for j, start in enumerate(tx_start):
                if start is not None:
                    sr_tx_s[j] += duration - start
                elif rx_count[j] > 0:
                    sr_rx_s[j] += duration - rx_since[j]
            sr_seconds = [[tx, rx, duration - tx - rx] for tx, rx in zip(sr_tx_s, sr_rx_s)]
        # arrivals due before the end that a blocked source never emitted;
        # an unblocked source emitted all of them
        for src in sources:
            if src is not None and src.blocked is not None:
                unblock(src, duration)
        for q in sr_queues:
            for nh, payload in q:
                if nh >= 0:
                    lr_in_flight[payload[0]] += 1
        # data packets on the air at the end: every end-of-transmission event
        # still queued belongs to a transmission that started and never ended
        for _, kind, _, _, frame in heap:
            if kind == _K_SR_TXEND and frame[0] >= 0:
                lr_in_flight[frame[1][0]] += 1
        return self._collect([{_SR: sr, _LR: ledger.seconds[_LR]}
                              for sr, ledger in zip(sr_seconds, ledgers)])

    def _run_benchmark(self) -> RunStats:
        """A benchmark run, without the event loop (see the module docstring)."""
        duration, n = self.duration, self.n
        srcs = [src for src in self.sources if src is not None]
        heap: list = []
        for src in srcs:
            if src.total_k > 0:
                heappush(heap, (src.phase, _K_ARRIVAL, src.node, 0))
        pushes = len(heap)
        sources, svc_lr, cap, up_starts = self.sources, self.svc_lr, self.up_cap, self.up_starts
        generated, dropped, delivered = self.generated, self.dropped_queue, self.delivered_pkts
        delivered_mb, in_flight, pkt_mb = self.delivered_mb, self.lr_in_flight, self.pkt_mb
        tx, idle, last = [0.0] * n, [0.0] * n, [0.0] * n
        up_end = 0.0
        while heap and heap[0][0] < duration:
            now, _, node, k = heappop(heap)
            src = sources[node]
            # the arrivals since the last one the source emitted were dropped
            batched = k - src.next_k
            generated[node] += batched + 1
            dropped[node] += batched
            k += 1
            src.next_k = k
            start = up_end
            full = False
            if now < start:
                starts = up_starts[node]
                while starts and starts[0] <= now:
                    starts.popleft()  # started by now, so no longer waiting
                # a blocked source wakes at or after its oldest waiting start,
                # so a slot is free: only relayed packets could take it
                starts.append(start)
                full = len(starts) >= cap
            else:
                start = now
            end = up_end = start + svc_lr[node]
            if end < duration:
                delivered[node] += 1
                delivered_mb[node] += pkt_mb
            else:
                in_flight[node] += 1
                end = duration  # on the air at the end: TX up to it
            if start < duration:  # book [start, end) as TX, IDLE since the last
                idle[node] += start - last[node]
                tx[node] += end - start
                last[node] = end
            if full:
                # the next arrival would be dropped: block until the first
                # arrival at or after the oldest waiting start, as a cooperative arrival
                t = starts[0]
                k = (src.total_k if t >= duration
                     else _first_k_at_or_after(src.phase, src.period, t, k))
            if k < src.total_k:
                pushes += 1
                heappush(heap, (src.phase + k * src.period, _K_ARRIVAL, node, k))
        self._seq = pushes
        for src in srcs:
            # arrivals due before the end that a blocked source never emitted
            batched = src.total_k - src.next_k
            generated[src.node] += batched
            dropped[src.node] += batched
        if self.trace is not None:
            self._trace_benchmark(srcs)
        if self.mob_states is not None and self.mobility_trace is not None:
            # at the times the cooperative event loop steps them
            params = self.cfg.mobility
            self._trace_positions(0.0)
            t = params.update_interval
            while t < duration:
                self.mob_states = mob.advance_all(
                    self.mob_states, params, self.scenario.area, self.rng_mob)
                self.pos = [st.position for st in self.mob_states]
                self._trace_positions(t)
                t = t + params.update_interval
        self.lr_sent = delivered  # each node sends only its own packets
        return self._collect([{_LR: [tx[i], 0.0, idle[i] + (duration - last[i])]}
                              for i in range(n)])

    def _trace_benchmark(self, srcs: list[_Source]) -> None:
        """Hand a benchmark run's rows, its arrivals in the event loop's
        (time, node) order, to the trace in windows of time, each sorted on
        its own; a window's keys and rows stay within TRACE_CHUNK_ROWS."""
        from .output import TRACE_CHUNK_ROWS
        srcs = [src for src in srcs if src.total_k > 0]
        if not srcs:
            return
        duration = self.duration
        tails = {src.node: self._trace_tail(src.node, None, math.inf, self.lr_cost[src.node])
                 for src in srcs}
        # every source has the same period, and a window of w periods holds
        # at most w + 1 arrivals of each
        span = max(1, TRACE_CHUNK_ROWS // 2 // len(srcs) - 1) * srcs[0].period
        lo = [0] * len(srcs)
        edge, w = 0.0, 0
        while edge < duration:
            w += 1
            edge = w * span
            keys = []
            for i, src in enumerate(srcs):
                phase, period, node = src.phase, src.period, src.node
                hi = (src.total_k if edge >= duration
                      else _first_k_at_or_after(phase, period, edge, lo[i]))
                keys += [(phase + k * period, node) for k in range(lo[i], hi)]
                lo[i] = hi
            keys.sort()
            self.trace.extend([(t, tails[node]) for t, node in keys])

    def _trace_positions(self, t: float) -> None:
        self.mobility_trace.extend((t, i, p.x, p.y) for i, p in enumerate(self.pos))

    def _collect(self, iface_seconds: list[dict[InterfaceKind, list[float]]]) -> RunStats:
        """The run's checked RunStats, given each node's seconds per interface."""
        profiles = self.cfg.power_profiles
        iface_energy = [
            {iface: interface_energy(secs, profiles[iface]) for iface, secs in node.items()}
            for node in iface_seconds
        ]
        stats = RunStats(
            run_index=self.run_index,
            mode=self.cfg.mode.value,
            duration=self.duration,
            scenario_seed=self.scenario.seed,
            classes=[node.mt_class.value for node in self.scenario.nodes],
            generated=self.generated,
            delivered_pkts=self.delivered_pkts,
            delivered_mbits=self.delivered_mb,
            dropped_queue=self.dropped_queue,
            dropped_hops=self.dropped_hops,
            dropped_link=self.dropped_link,
            relayed=self.relayed,
            hops_sum=self.hops_sum,
            in_flight=self.lr_in_flight,
            iface_seconds=iface_seconds,
            iface_energy=iface_energy,
        )
        _check_invariants(stats, self.lr_sent, self.svc_lr)
        return stats


def _check_invariants(rs: RunStats, lr_sent: list[int] | None = None,
                      svc_lr: list[float] | None = None) -> None:
    """Raise InvariantError unless every source's packets are accounted for
    and every interface's TX + RX + IDLE seconds sum to the duration (within
    relative 1e-9, each part at least -1e-9 of it, for float rounding).
    Given each sender's packets delivered on long range and service time,
    its long-range TX must be that many services plus at most one more,
    within the same tolerance plus one ulp of the duration per packet, which
    bounds the rounding of each booked interval."""
    duration = rs.duration
    tol = 1e-9 * duration
    for i in range(rs.n_nodes):
        parts = (rs.delivered_pkts[i], rs.dropped_queue[i], rs.dropped_hops[i],
                 rs.dropped_link[i], rs.in_flight[i])
        if rs.generated[i] != sum(parts):
            raise InvariantError(
                f"run {rs.run_index} ({rs.mode}): node {i}: generated {rs.generated[i]} != "
                "delivered + dropped_queue + dropped_hops + dropped_link + in_flight "
                f"= {' + '.join(map(str, parts))}")
        for iface, secs in rs.iface_seconds[i].items():
            if abs(sum(secs) - duration) > tol or min(secs) < -tol:
                name = iface.name.lower().replace("_", "-")
                raise InvariantError(
                    f"run {rs.run_index} ({rs.mode}): node {i}: {name} TX + RX + IDLE seconds "
                    f"{secs[0]!r} + {secs[1]!r} + {secs[2]!r} != duration {duration!r}")
        if lr_sent is not None:
            tx, svc = rs.iface_seconds[i][_LR][0], svc_lr[i]
            slack = tol + lr_sent[i] * math.ulp(duration)
            if not -slack <= tx - lr_sent[i] * svc <= svc + slack:
                raise InvariantError(
                    f"run {rs.run_index} ({rs.mode}): node {i}: long-range TX seconds {tx!r} "
                    f"!= {lr_sent[i]} packets x {svc!r} s, plus at most one on the air at the end")


def run(
    cfg: SimConfig,
    scenario: Scenario,
    run_index: int,
    trace: list | None = None,
    mobility_trace: list | None = None,
) -> RunStats:
    """Execute one deterministic run and return its statistics."""
    return Simulator(cfg, scenario, run_index, trace=trace, mobility_trace=mobility_trace).execute()
