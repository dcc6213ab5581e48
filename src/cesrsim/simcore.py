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
  A node with queued traffic defers while its local medium view is busy.
  Deferred nodes wait in one queue ordered by (first wait time, node id);
  a frame end retries, in that order, each one whose view is now clear.
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
the per-packet loop without blocking, which is what --trace uses.  A source
has one live arrival, its wake, which is next_k while unblocked; an unblock
can come before the wake fires, so others are stale.

On a saturated long-range source most events are a wake that is accepted
and blocks again at once, so ``_h_arrival`` handles a source's own packet in
one call: it counts the batched drops, queues a short-range packet or books
a long-range one on the uplink itself (dropping it if relayed packets of the
source took the slot that freed), and blocks again with the next wake
pushed.  A traced run takes the same path: it writes the decision's row
first and never blocks.  A relay writes the same row, then queues the packet
with ``_enqueue_sr`` or books it with ``_uplink``.  A row is (time, tail),
the tail being the rest of its CSV line (``output.trace_tail``), which each
node formats again only when its next hop or eq1 cost changed.

At the end of every run ``_check_invariants`` checks per source that
generated = delivered + dropped (queue, hops, link) + in flight, and per
interface that TX + RX + IDLE = duration, and raises ``InvariantError``
naming the run, the node and the quantity if either fails.
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
        # --trace needs one row per packet handled, so while it is on the
        # batched-drop fast path is disabled and every arrival is an event.
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

        self.ledgers = [EnergyLedger((_LR,)) for _ in range(n)]

        self.routing: list[NodeRoutingState] | None = None
        if self.coop:
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
        """Bind the short-range MAC handlers of one path and set up its state."""
        n = self.n
        self.complete_medium = complete
        self.defer_q: list[tuple[float, int]] = []  # (first wait time, node), in order
        self.waiting: list[float | None] = [None] * n  # first wait time while in defer_q
        self.sr_tx_s = [0.0] * n               # charged TX seconds per node
        if complete:
            self.air: tuple[int, float, bool] | None = None  # (sender, start, charged)
            self.sr_busy = 0.0                 # charged airtime so far
            self._try_start_sr = self._try_start_sr_complete
            self._h_sr_txend = self._h_sr_txend_complete
        else:
            self.sr_tx = [False] * n           # any own frame on the air
            self.tx_start: list[float | None] = [None] * n  # own charged frame's start
            # frames covering each node, from the coverage snapshot taken at
            # the frame's start, counted apart: charged ones (rx_count) and
            # uncharged ones; a node's medium view is busy while either is > 0
            self.rx_count = [0] * n
            self.uncharged_count = [0] * n
            self.rx_since = [0.0] * n          # start of the current RX interval
            self.sr_rx_s = [0.0] * n
            self._try_start_sr = self._try_start_sr_per_node
            self._h_sr_txend = self._h_sr_txend_per_node
        self._rebuild_neighbors()

    # --- plumbing -----------------------------------------------------------

    def _push(self, time: float, kind: int, node: int, payload) -> None:
        self._seq += 1
        heappush(self.heap, (time, kind, node, self._seq, payload))

    def _rebuild_neighbors(self) -> None:
        self.nbrs = connectivity_graph(self.pos, self.scenario.tx_range)
        # the complete-medium path reads no sensing-range lists
        self.nbrs_cs = ([[] for _ in range(self.n)] if self.complete_medium
                        else connectivity_graph(self.pos, self.cs_range))

    # --- CBR sources --------------------------------------------------------

    def _unblock(self, src: _Source, tmin: float) -> None:
        """End a block at the first arrival at or after tmin, which becomes
        the live one: every arrival before it was dropped.

        Valid because between blocking and tmin neither the target queue
        gained space nor the node's routing decision changed.
        """
        k = _first_k_at_or_after(src.phase, src.period, tmin, src.next_k)
        if k > src.total_k:
            k = src.total_k
        batched = k - src.next_k
        self.generated[src.node] += batched
        self.dropped_queue[src.node] += batched
        src.next_k = k
        src.blocked = None
        src.wake = k
        if k < src.total_k:
            self._seq += 1
            heappush(self.heap, (src.phase + k * src.period, _K_ARRIVAL, src.node, self._seq, k))

    def _h_arrival(self, node: int, k: int) -> None:
        """Arrival k of a source's own packet: end a block it wakes, route
        the packet, then push the next arrival or block the source."""
        src = self.sources[node]
        if k != src.wake:
            return  # stale: an unblock superseded it
        if src.blocked is not None:
            # every arrival since the block was dropped
            batched = k - src.next_k
            self.generated[node] += batched
            self.dropped_queue[node] += batched
            src.blocked = None
        src.next_k = k + 1
        self.generated[node] += 1
        now = self.now
        nh = self.routing[node].forward_decision(now) if self.coop else None
        if self.trace is not None:
            self._trace_row(node, nh)
        if nh is not None:
            # _enqueue_sr(node, nh, (node, 0)) in place, reporting a full queue
            q = self.sr_queues[node]
            if len(q) < self.sr_cap:
                q.append((nh, (node, 1)))
                if len(q) == 1:  # a node with frames queued is on the air or deferred
                    self._try_start_sr(node)
                full = "SR" if len(q) >= self.sr_cap else None
            else:
                self.dropped_queue[node] += 1
                full = "SR"
        else:
            # _uplink(node, (node, 0)) in place: on saturated runs most
            # arrivals are a blocked source's wake, booked here and blocked again
            start = self.up_end
            full = None
            if now < start:
                starts = self.up_starts[node]
                while starts and starts[0] <= now:
                    starts.popleft()  # started by now, so no longer waiting
                if len(starts) < self.up_cap:
                    starts.append(start)
                    if len(starts) >= self.up_cap:
                        full = "LR"
                else:
                    # relayed packets of this source took the slot that freed
                    self.dropped_queue[node] += 1
                    full = "LR"
                    start = None
            else:
                start = now
            if start is not None:
                end = self.up_end = start + self.svc_lr[node]
                if end < self.duration:
                    self.ledgers[node].book(_LR, start, end)
                    self.delivered_pkts[node] += 1
                    self.delivered_mb[node] += self.pkt_mb  # 0 hops: hops_sum keeps
                else:
                    if start < self.duration:  # on the air at the end: TX up to it
                        self.ledgers[node].book(_LR, start, self.duration)
                    self.lr_in_flight[node] += 1
        k += 1
        if full is not None and self.trace is None:  # a traced run never blocks
            # the next arrival would be dropped: block until the first arrival
            # at or after the time the block could end by itself
            src.blocked = full
            if full == "LR":
                t = self.up_starts[node][0]  # the quota frees as this packet starts
            else:
                # finite: a short-range decision needs a live entry
                t = self.routing[node].earliest_expiry(now)
            # a wake an earlier block pushed is still pending if it is at or
            # after arrival k = next_k, since the arrival before k is now
            if t == src.pushed_t and src.pushed_wake >= k:
                # that block came at an earlier arrival, so below k, and
                # first_k(t, lo) = max(lo, first_k(t, 0)): the wake is the same
                src.wake = src.pushed_wake
                return
            # each arrival from t >= duration on is at or after the end and
            # never pushed, so total_k stands for the first; the search would
            # overflow or spin on a t far past the last arrival
            k = (src.total_k if t >= self.duration
                 else _first_k_at_or_after(src.phase, src.period, t, k))
            if k == src.pushed_wake:
                src.wake = k
                return
            src.pushed_wake = k
            src.pushed_t = t
        src.wake = k
        if k < src.total_k:
            self._seq += 1
            heappush(self.heap, (src.phase + k * src.period, _K_ARRIVAL, node, self._seq, k))

    # --- forwarding ---------------------------------------------------------

    def _trace_row(self, node: int, nh: int | None) -> None:
        """Append the --trace row (time, tail) of the routing decision `nh`
        at `node`.  The tail is formatted again only when the node's next
        hop or eq1 changed: lr_cost is fixed per node, and equal positive
        floats print alike."""
        now = self.now
        eq1 = self.routing[node].best_neighbor(now)[1] if self.coop else math.inf
        last = self._trace_tails[node]
        if last[1] != eq1 or last[0] != nh:
            last = self._trace_tails[node] = (
                nh, eq1, self._trace_tail(node, nh, eq1, self.lr_cost[node]))
        self.trace.append((now, last[2]))

    def _enqueue_sr(self, node: int, nh: int, pkt: tuple[int, int]) -> None:
        """Queue a (source, hops) packet at `node` for next hop `nh`, one hop
        on; a full queue drops it and counts the drop against its source."""
        q = self.sr_queues[node]
        if len(q) >= self.sr_cap:
            self.dropped_queue[pkt[0]] += 1
            return
        q.append((nh, (pkt[0], pkt[1] + 1)))
        if len(q) == 1:  # as in _h_arrival
            self._try_start_sr(node)

    # --- long-range uplink ----------------------------------------------------

    def _uplink(self, sender: int, pkt: tuple[int, int]) -> None:
        """Offer a relayed (source, hops) packet to the uplink and book it in
        full if its source's quota has room, else drop it.  _h_arrival books
        a source's own packet by the same steps in place."""
        source, hops = pkt
        start = self.up_end
        if self.now < start:
            starts = self.up_starts[source]
            while starts and starts[0] <= self.now:
                starts.popleft()  # started by now, so no longer waiting
            if len(starts) >= self.up_cap:
                self.dropped_queue[source] += 1
                return
            starts.append(start)
        else:
            start = self.now
        # FIFO, so the sender's ledger gets its bookings in time order
        end = self.up_end = start + self.svc_lr[sender]
        if end < self.duration:
            self.ledgers[sender].book(_LR, start, end)
            self.delivered_pkts[source] += 1
            self.delivered_mb[source] += self.pkt_mb
            self.hops_sum[source] += hops
        else:
            if start < self.duration:  # as in _h_arrival
                self.ledgers[sender].book(_LR, start, self.duration)
            self.lr_in_flight[source] += 1

    # --- short-range medium: both paths ---------------------------------------

    def _sr_received(self, sender: int, nh: int, payload, receivable) -> None:
        """Hand a finished frame to its receivers."""
        if nh < 0:
            now = self.now
            for j in receivable:
                self.routing[j].handle_beacon(sender, payload, now)
                src = self.sources[j]
                if src is not None and src.blocked is not None:
                    # the table changed; the batched-drop window ends here
                    self._unblock(src, now)
        elif nh in self.nbrs[sender]:
            # relay the packet at nh
            source, hops = payload
            if hops >= self.hop_budget:
                self.dropped_hops[source] += 1
                return
            self.relayed[nh] += 1
            nxt = self.routing[nh].forward_decision(self.now)
            if self.trace is not None:
                self._trace_row(nh, nxt)
            if nxt is None:
                self._uplink(nh, payload)
            else:
                self._enqueue_sr(nh, nxt, payload)
        else:
            self.dropped_link[payload[0]] += 1

    def _close_sr(self) -> list[list[float]]:
        """Clip the frames still on the air at the end of the run and return
        each node's short-range [TX, RX, IDLE] seconds."""
        duration = self.duration
        tx_s = self.sr_tx_s
        if self.complete_medium:
            if self.air is not None and self.air[2]:
                sender, start, _ = self.air
                self.sr_busy += duration - start
                tx_s[sender] += duration - start
            busy = self.sr_busy
            return [[tx, busy - tx, duration - busy] for tx in tx_s]
        rx_s = self.sr_rx_s
        for j, start in enumerate(self.tx_start):
            if start is not None:
                tx_s[j] += duration - start
            elif self.rx_count[j] > 0:
                rx_s[j] += duration - self.rx_since[j]
        return [[tx, rx, duration - tx - rx] for tx, rx in zip(tx_s, rx_s)]

    # --- short-range medium: per-node path ------------------------------------

    def _try_start_sr_per_node(self, node: int) -> None:
        """Put the head of a node's queue, which is not empty, on the air, or
        defer the node while its view is busy; a node on the air retries at
        its frame end."""
        if self.sr_tx[node]:
            return
        rx_count, uncharged_count = self.rx_count, self.uncharged_count
        now = self.now
        waiting = self.waiting
        if rx_count[node] or uncharged_count[node]:
            # a node already waiting keeps its first wait time
            if waiting[node] is None:
                waiting[node] = now
                insort(self.defer_q, (now, node))
            return
        waited = waiting[node]
        if waited is not None:
            waiting[node] = None
            self.defer_q.remove((waited, node))
        nh, payload = self.sr_queues[node].popleft()
        src = self.sources[node]
        if src is not None and src.blocked == "SR":
            self._unblock(src, now)  # a queue slot just freed
        if nh < 0:
            charge, dur = self.cfg.beacon_energy_counted, self.dur_sr_beacon
        else:
            charge, dur = True, self.dur_sr_data
        # contention overhead: one slot per node still deferring
        dur += self.cfg.contention_slot * len(self.defer_q)
        sr_tx = self.sr_tx
        receivable = None
        if nh < 0:  # a beacon is delivered where a decode-range view is clear
            receivable = [j for j in self.nbrs[node]
                          if not (sr_tx[j] or rx_count[j] or uncharged_count[j])]
        # sensing: blocking + RX energy; _rebuild_neighbors assigns new lists
        # and never mutates old ones, so this reference is a snapshot
        covered_cs = self.nbrs_cs[node]
        sr_tx[node] = True
        if charge:
            tx_start = self.tx_start
            tx_start[node] = now
            rx_since = self.rx_since
            for j in covered_cs:
                c = rx_count[j] + 1
                rx_count[j] = c
                if c == 1 and tx_start[j] is None:
                    rx_since[j] = now
        else:
            for j in covered_cs:
                uncharged_count[j] += 1
        self._push(now + dur, _K_SR_TXEND, node, (nh, payload, covered_cs, receivable, charge))

    def _h_sr_txend_per_node(self, sender: int, frame) -> None:
        nh, payload, covered_cs, receivable, charge = frame
        self.sr_tx[sender] = False
        now = self.now
        rx_count, uncharged_count = self.rx_count, self.uncharged_count
        waiting = self.waiting
        cleared = []  # (first wait time, node) of deferred nodes this end clears
        if charge:
            tx_start = self.tx_start
            rx_since = self.rx_since
            sr_rx_s = self.sr_rx_s
            for j in covered_cs:
                c = rx_count[j] - 1
                rx_count[j] = c
                if c == 0:
                    if tx_start[j] is None:
                        sr_rx_s[j] += now - rx_since[j]
                    if waiting[j] is not None and not uncharged_count[j]:
                        cleared.append((waiting[j], j))
            self.sr_tx_s[sender] += now - tx_start[sender]
            tx_start[sender] = None
            if rx_count[sender] > 0:
                rx_since[sender] = now
        else:
            for j in covered_cs:
                c = uncharged_count[j] - 1
                uncharged_count[j] = c
                if c == 0 and waiting[j] is not None and not rx_count[j]:
                    cleared.append((waiting[j], j))
        # medium freed inside the sensing set: deferred nodes whose view it
        # cleared retry in queue order, then the sender itself.  No other
        # deferred node can start: between events every deferred node senses
        # a frame, since each frame end that clears its view retries it; one
        # that an earlier start here made busy again stays deferred.
        cleared.sort()
        for _, j in cleared:
            self._try_start_sr_per_node(j)
        if self.sr_queues[sender]:
            self._try_start_sr_per_node(sender)
        self._sr_received(sender, nh, payload, receivable)

    # --- short-range medium: complete-medium path -------------------------------

    def _try_start_sr_complete(self, node: int) -> None:
        """Start a node's first queued frame if the medium is idle, else defer
        the node; the sender of the frame on the air retries at its end.
        Only a node whose queue was empty calls this, so it is not waiting."""
        air = self.air
        if air is None:
            self._start_sr_complete(node)
        elif air[0] != node:  # every node but the sender senses the frame
            self.waiting[node] = self.now
            insort(self.defer_q, (self.now, node))

    def _start_sr_complete(self, node: int) -> None:
        """Put the head of a node's queue on the free medium, with one
        contention slot per node still deferring."""
        nh, payload = self.sr_queues[node].popleft()
        now = self.now
        src = self.sources[node]
        if src is not None and src.blocked == "SR":
            self._unblock(src, now)  # a queue slot just freed
        if nh < 0:
            charge, dur = self.cfg.beacon_energy_counted, self.dur_sr_beacon
        else:
            charge, dur = True, self.dur_sr_data
        dur += self.cfg.contention_slot * len(self.defer_q)
        self.air = (node, now, charge)
        # no other radio is busy, so every decode-range neighbour receives;
        # _rebuild_neighbors never mutates a list it has assigned
        self._seq += 1
        heappush(self.heap,
                 (now + dur, _K_SR_TXEND, node, self._seq, (nh, payload, self.nbrs[node])))

    def _h_sr_txend_complete(self, sender: int, frame) -> None:
        nh, payload, receivable = frame
        _, start, charged = self.air
        now = self.now
        if charged:
            dt = now - start
            self.sr_busy += dt
            self.sr_tx_s[sender] += dt
        # the medium is free: the node that has waited longest starts, and
        # the sender, if it has frames left, waits behind every other node
        defer_q = self.defer_q
        if defer_q:
            head = defer_q.pop(0)[1]
            self.waiting[head] = None
            self._start_sr_complete(head)
            if self.sr_queues[sender]:  # on the air until now, so not waiting
                self.waiting[sender] = now
                insort(defer_q, (now, sender))
        elif self.sr_queues[sender]:
            self._start_sr_complete(sender)
        else:
            self.air = None
        self._sr_received(sender, nh, payload, receivable)

    # --- periodic events --------------------------------------------------------

    def _h_beacon_due(self, node: int) -> None:
        q = self.sr_queues[node]
        q.append((-1, self.routing[node].make_beacon(self.now)))
        if len(q) == 1:  # as in _h_arrival
            self._try_start_sr(node)
        self._push(self.now + self.cfg.beacon_period, _K_BEACON, node, None)

    def _h_mobility(self) -> None:
        params = self.cfg.mobility
        self.mob_states = mob.advance_all(
            self.mob_states, params, self.scenario.area, self.rng_mob
        )
        self.pos = [st.position for st in self.mob_states]
        self._rebuild_neighbors()
        if self.mobility_trace is not None:
            for i, p in enumerate(self.pos):
                self.mobility_trace.append((self.now, i, p.x, p.y))
        self._push(self.now + params.update_interval, _K_MOBILITY, 0, None)

    # --- run ----------------------------------------------------------------

    def execute(self) -> RunStats:
        cfg = self.cfg
        # positions matter only to the short-range MAC and beacons, which
        # benchmark mode never runs, so it steps only to trace them
        if self.mob_states is not None and (self.coop or self.mobility_trace is not None):
            if self.mobility_trace is not None:
                for i, p in enumerate(self.pos):
                    self.mobility_trace.append((0.0, i, p.x, p.y))
            self._push(cfg.mobility.update_interval, _K_MOBILITY, 0, None)
        if self.coop:
            for i in range(self.n):
                offset = cfg.beacon_period * self.rng_beacon.random()
                self._push(offset, _K_BEACON, i, None)
        for src in self.sources:
            if src is not None and src.total_k > 0:
                self._push(src.phase, _K_ARRIVAL, src.node, 0)

        heap = self.heap
        duration = self.duration
        h_arrival, h_sr_txend = self._h_arrival, self._h_sr_txend
        h_beacon_due, h_mobility = self._h_beacon_due, self._h_mobility
        while heap and heap[0][0] < duration:
            time, kind, node, _, payload = heappop(heap)
            self.now = time
            if kind == _K_ARRIVAL:
                h_arrival(node, payload)
            elif kind == _K_SR_TXEND:
                h_sr_txend(node, payload)
            elif kind == _K_BEACON:
                h_beacon_due(node)
            else:
                h_mobility()

        self.now = duration
        for ledger in self.ledgers:
            ledger.close(duration)
        sr_seconds = self._close_sr()
        # the bound MAC handlers refer back to this simulator; dropping them
        # lets reference counting free it once the caller lets go
        del self._try_start_sr, self._h_sr_txend
        # arrivals due before the end that a blocked source never emitted;
        # an unblocked source emitted all of them
        for src in self.sources:
            if src is not None and src.blocked is not None:
                self._unblock(src, duration)
        stats = self._collect(sr_seconds)
        _check_invariants(stats)
        return stats

    def _collect(self, sr_seconds: list[list[float]]) -> RunStats:
        in_flight = self.lr_in_flight
        for q in self.sr_queues:
            for nh, payload in q:
                if nh >= 0:
                    in_flight[payload[0]] += 1
        # data packets on the air at the end: every end-of-transmission event
        # still queued belongs to a transmission that started and never ended
        for _, kind, _, _, frame in self.heap:
            if kind == _K_SR_TXEND and frame[0] >= 0:
                in_flight[frame[1][0]] += 1
        profiles = self.cfg.power_profiles
        iface_seconds = [
            {_SR: sr, _LR: ledger.seconds[_LR]} if self.coop else {_LR: ledger.seconds[_LR]}
            for sr, ledger in zip(sr_seconds, self.ledgers)
        ]
        iface_energy = [
            {iface: interface_energy(secs, profiles[iface]) for iface, secs in node.items()}
            for node in iface_seconds
        ]
        return RunStats(
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
            in_flight=in_flight,
            iface_seconds=iface_seconds,
            iface_energy=iface_energy,
        )


def _check_invariants(rs: RunStats) -> None:
    """Raise InvariantError unless every source's packets are accounted for
    and every interface's TX + RX + IDLE seconds sum to the duration (within
    relative 1e-9, each part at least -1e-9 of it, for float rounding)."""
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


def run(
    cfg: SimConfig,
    scenario: Scenario,
    run_index: int,
    trace: list | None = None,
    mobility_trace: list | None = None,
) -> RunStats:
    """Execute one deterministic run and return its statistics."""
    return Simulator(cfg, scenario, run_index, trace=trace, mobility_trace=mobility_trace).execute()
