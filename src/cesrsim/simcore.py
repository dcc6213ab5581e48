"""Deterministic discrete-event engine.

One run simulates CBR sources, periodic beaconing, short-range relaying and
a shared long-range uplink over [0, duration) seconds:

* Long-range MAC abstraction: a single FIFO server at the base station.
  Each packet's service time is size / lr_rate(sending node's class); the
  sending node's long-range radio is in TX for the service interval.
  Admission to the waiting queue is a per-source quota (mirroring
  per-connection uplink grants); arrivals beyond a source's quota are
  dropped and counted against that source.

* Short-range MAC abstraction: protocol-model interference with a sensing
  range larger than the delivery range (cs_range_factor * tx_range, like a
  CSMA carrier-sense threshold).  A transmission occupies the medium for
  every node within sensing range of the sender; the sender is in TX and
  sensing-range nodes in RX for the occupancy interval (a busy medium view
  means the radio is capturing a signal), while decoding a beacon or a
  unicast still requires being within tx_range.
  A node with queued traffic defers while its local medium view is busy;
  deferred nodes acquire the medium in (first-wait-time, node id) order.
  Unicast data delivery fails silently if the target is out of range at
  completion; beacons are lost at nodes whose medium view was busy (or that
  were themselves transmitting) when the beacon started.

Determinism: a single event queue ordered by (time, event kind, node id,
sequence number); all randomness comes from per-run child streams of
SeedSequence([master_seed, run_index]).

Saturated CBR sources are handled with an exact fast path: when a locally
generated packet is dropped because its target queue is full, the source
stops scheduling per-packet events.  Until the next event that could change
the outcome (a queue slot freeing, a beacon updating the node's table, or
the earliest neighbor-entry expiry), every arrival from that source would
be dropped identically, so those drops are counted arithmetically when the
source is woken.  Semantics are identical to the per-packet loop (which is
what --trace uses).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from . import mobility as mob
from .config import Mode, SimConfig
from .energy import EnergyLedger, InterfaceKind, RadioState, energy_per_bit
from .routing import NodeRoutingState
from .scenario import MtClass, Scenario

# Event kinds; the kind value doubles as the tie-break priority class.
_K_MOBILITY = 0
_K_LR_TXEND = 1
_K_SR_TXEND = 2
_K_BEACON = 3
_K_RECHECK = 4
_K_ARRIVAL = 5

_SR = InterfaceKind.SHORT_RANGE
_LR = InterfaceKind.LONG_RANGE
_TX = RadioState.TX
_RX = RadioState.RX
_IDLE = RadioState.IDLE


class Packet:
    __slots__ = ("source", "hops")

    def __init__(self, source: int):
        self.source = source
        self.hops = 0


class _Source:
    """State of one CBR stream: arrivals at phase + k/rate for k = 0, 1, ..."""

    __slots__ = ("node", "period", "phase", "next_k", "total_k", "blocked", "episode")

    def __init__(self, node: int, period: float, phase: float, total_k: int):
        self.node = node
        self.period = period
        self.phase = phase
        self.next_k = 0
        self.total_k = total_k
        self.blocked: str | None = None  # None | "LR" | "SR"
        self.episode = 0


def _first_k_at_or_after(phase: float, period: float, t: float) -> int:
    """Smallest k >= 0 with phase + k*period >= t, robust to float rounding."""
    k = int(math.ceil((t - phase) / period))
    if k < 0:
        k = 0
    while phase + k * period < t:
        k += 1
    while k > 0 and phase + (k - 1) * period >= t:
        k -= 1
    return k


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
    hop_hist: dict[int, int]
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

        n = scenario.n_nodes
        self.n = n
        self.duration = cfg.duration
        self.now = 0.0
        self.heap: list = []
        self._seq = 0

        self.px = [node.position.x for node in scenario.nodes]
        self.py = [node.position.y for node in scenario.nodes]
        self.range2 = scenario.tx_range * scenario.tx_range
        cs_range = cfg.cs_range_factor * scenario.tx_range
        self.cs_range2 = cs_range * cs_range

        rates = cfg.rates
        sr_power = cfg.power_profiles[_SR]
        lr_power = cfg.power_profiles[_LR]
        self.lr_rate = [rates.lr_rate(node.mt_class) for node in scenario.nodes]
        self.pkt_mb = cfg.packet_size * 8 / 1e6
        self.beacon_mb = cfg.beacon_size * 8 / 1e6
        self.svc_lr = [self.pkt_mb / r for r in self.lr_rate]
        self.dur_sr_data = self.pkt_mb / rates.sr_rate
        self.dur_sr_beacon = self.beacon_mb / rates.sr_rate
        self.hop_budget = cfg.resolved_hop_budget(n)

        ifaces = (_SR, _LR) if self.coop else (_LR,)
        self.ledgers = [EnergyLedger(ifaces) for _ in range(n)]

        self.routing: list[NodeRoutingState] | None = None
        if self.coop:
            sr_cost = energy_per_bit(sr_power.tx_w, rates.sr_rate)
            self.routing = [
                NodeRoutingState(
                    i,
                    lr_cost=energy_per_bit(lr_power.tx_w, self.lr_rate[i]),
                    sr_cost=sr_cost,
                    timeout=cfg.table_timeout,
                )
                for i in range(n)
            ]

        # shared long-range uplink: FIFO service, per-source admission quota
        # (mirrors per-connection grants; total backlog is still cap * n)
        self.uplink_wait: deque = deque()
        self.uplink_busy: tuple[int, Packet] | None = None
        self.up_cap = cfg.uplink_queue_cap_per_node
        self.up_queued = [0] * n

        # short-range medium
        self.sr_queues: list[deque] = [deque() for _ in range(n)]
        self.sr_cap = cfg.sr_queue_cap
        self.sr_tx = [False] * n
        self.rx_count = [0] * n
        # transmissions covering each node, from the coverage snapshot taken
        # at transmission start; a node's medium view is busy while > 0
        self.busy_count = [0] * n
        self.deferred: dict[int, float] = {}  # node -> first wait time
        self.nbrs: list[list[int]] = [[] for _ in range(n)]        # decode range
        self.nbrs_cs: list[list[int]] = [[] for _ in range(n)]     # sensing range

        # stats
        self.generated = [0] * n
        self.delivered_pkts = [0] * n
        self.delivered_mb = [0.0] * n
        self.dropped_queue = [0] * n
        self.dropped_hops = [0] * n
        self.dropped_link = [0] * n
        self.relayed = [0] * n
        self.hops_sum = [0] * n
        self.hop_hist: dict[int, int] = {}

        # per-run child streams so benchmark/cooperative runs with the same
        # seed see identical phases and trajectories
        ss = np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(run_index,))
        kids = ss.spawn(3)
        self.rng_phase = np.random.Generator(np.random.PCG64(kids[0]))
        self.rng_beacon = np.random.Generator(np.random.PCG64(kids[1]))
        self.rng_mob = np.random.Generator(np.random.PCG64(kids[2]))

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
            self.mob_states = mob.init_states(
                scenario.positions(), cfg.mobility, self.rng_mob
            )

        self._rebuild_neighbors()

    # --- plumbing -----------------------------------------------------------

    def _push(self, time: float, kind: int, node: int, payload) -> None:
        self._seq += 1
        heappush(self.heap, (time, kind, node, self._seq, payload))

    def _rebuild_neighbors(self) -> None:
        px, py, r2, cs2, n = self.px, self.py, self.range2, self.cs_range2, self.n
        nbrs: list[list[int]] = [[] for _ in range(n)]
        nbrs_cs: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            xi, yi = px[i], py[i]
            for j in range(i + 1, n):
                dx = px[j] - xi
                dy = py[j] - yi
                d2 = dx * dx + dy * dy
                if d2 <= cs2:
                    nbrs_cs[i].append(j)
                    nbrs_cs[j].append(i)
                    if d2 <= r2:
                        nbrs[i].append(j)
                        nbrs[j].append(i)
        self.nbrs = nbrs
        self.nbrs_cs = nbrs_cs

    def _in_range(self, i: int, j: int) -> bool:
        dx = self.px[i] - self.px[j]
        dy = self.py[i] - self.py[j]
        return dx * dx + dy * dy <= self.range2

    # --- CBR sources --------------------------------------------------------

    def _schedule_arrival(self, src: _Source) -> None:
        k = src.next_k
        if k >= src.total_k:
            return
        self._push(src.phase + k * src.period, _K_ARRIVAL, src.node, k)

    def _block(self, src: _Source, target: str) -> None:
        src.blocked = target
        src.episode += 1
        if target == "SR" and self.coop:
            # the decision could flip to long-range when the best entry
            # expires; recheck then
            te = self.routing[src.node].earliest_expiry(self.now)
            if te < self.duration:
                self._push(te, _K_RECHECK, src.node, src.episode)

    def _unblock(self, src: _Source, tmin: float) -> None:
        """Account all batched drops strictly before tmin, then resume.

        Valid because between blocking and tmin neither the target queue
        gained space nor the node's routing decision changed.
        """
        ks = _first_k_at_or_after(src.phase, src.period, tmin)
        if ks < src.next_k:
            ks = src.next_k
        if ks > src.total_k:
            ks = src.total_k
        batched = ks - src.next_k
        if batched:
            self.generated[src.node] += batched
            self.dropped_queue[src.node] += batched
        src.next_k = ks
        src.blocked = None
        src.episode += 1
        self._schedule_arrival(src)

    def _h_arrival(self, node: int, k: int) -> None:
        src = self.sources[node]
        if src is None or src.blocked is not None or k != src.next_k:
            return  # stale wake
        src.next_k = k + 1
        self.generated[node] += 1
        res = self._dispatch(node, Packet(node))
        if res == 0:
            self._schedule_arrival(src)
        else:
            self.dropped_queue[node] += 1
            if self.trace is not None:
                self._schedule_arrival(src)
            else:
                self._block(src, "LR" if res == 1 else "SR")

    # --- forwarding ---------------------------------------------------------

    def _dispatch(self, node: int, pkt: Packet) -> int:
        """Route one packet at `node`; 0 = consumed, 1 = LR queue full,
        2 = SR queue full."""
        nh = None
        if self.coop:
            nh = self.routing[node].forward_decision(self.now)
        if self.trace is not None:
            rs = self.routing[node] if self.coop else None
            eq1 = rs.best_neighbor(self.now)[1] if rs else math.inf
            lr = rs.lr_cost if rs else energy_per_bit(
                self.cfg.power_profiles[_LR].tx_w, self.lr_rate[node]
            )
            self.trace.append(
                (self.now, node, "SR" if nh is not None else "LR",
                 nh if nh is not None else "", eq1, lr)
            )
        if nh is None:
            if self.uplink_busy is None:
                self._start_uplink(node, pkt)
                return 0
            if self.up_queued[pkt.source] >= self.up_cap:
                return 1
            self.up_queued[pkt.source] += 1
            self.uplink_wait.append((node, pkt))
            return 0
        q = self.sr_queues[node]
        if len(q) >= self.sr_cap:
            return 2
        pkt.hops += 1
        q.append(("D", pkt, nh))
        self._try_start_sr(node)
        return 0

    def _on_sr_delivery(self, node: int, pkt: Packet) -> None:
        if pkt.hops >= self.hop_budget:
            self.dropped_hops[pkt.source] += 1
            return
        self.relayed[node] += 1
        if self._dispatch(node, pkt) != 0:
            self.dropped_queue[pkt.source] += 1

    # --- long-range uplink ----------------------------------------------------

    def _start_uplink(self, sender: int, pkt: Packet) -> None:
        self.uplink_busy = (sender, pkt)
        self.ledgers[sender].transition_state(_LR, _TX, self.now)
        self._push(self.now + self.svc_lr[sender], _K_LR_TXEND, sender, pkt)

    def _h_lr_txend(self, sender: int, pkt: Packet) -> None:
        self.ledgers[sender].transition_state(_LR, _IDLE, self.now)
        self.delivered_pkts[pkt.source] += 1
        self.delivered_mb[pkt.source] += self.pkt_mb
        self.hops_sum[pkt.source] += pkt.hops
        self.hop_hist[pkt.hops] = self.hop_hist.get(pkt.hops, 0) + 1
        if self.uplink_wait:
            nxt_sender, nxt_pkt = self.uplink_wait.popleft()
            self.up_queued[nxt_pkt.source] -= 1
            # only the dequeued packet's source regained quota
            src = self.sources[nxt_pkt.source]
            if src is not None and src.blocked == "LR":
                self._unblock(src, self.now)
            self._start_uplink(nxt_sender, nxt_pkt)
        else:
            self.uplink_busy = None

    # --- short-range medium ---------------------------------------------------

    def _try_start_sr(self, node: int) -> None:
        if self.sr_tx[node]:
            return
        q = self.sr_queues[node]
        if not q:
            self.deferred.pop(node, None)
            return
        if self.busy_count[node] > 0:
            if node not in self.deferred:
                self.deferred[node] = self.now
            return
        self.deferred.pop(node, None)
        kind, payload, nh = q.popleft()
        src = self.sources[node]
        if src is not None and src.blocked == "SR":
            # a queue slot just freed
            self._unblock(src, self.now)
        now = self.now
        covered = self.nbrs[node]                # can decode: beacon delivery
        covered_cs = list(self.nbrs_cs[node])    # sensing: blocking + RX energy
        receivable: list[int] | None = None
        charge = True
        if kind == "B":
            receivable = [
                j for j in covered if not self.sr_tx[j] and self.busy_count[j] == 0
            ]
            charge = self.cfg.beacon_energy_counted
            dur = self.dur_sr_beacon
        else:
            dur = self.dur_sr_data
        # contention overhead: one slot per node still deferring
        dur += self.cfg.contention_slot * len(self.deferred)
        self.sr_tx[node] = True
        busy_count = self.busy_count
        for j in covered_cs:
            busy_count[j] += 1
        if charge:
            ledgers = self.ledgers
            ledgers[node].transition_state(_SR, _TX, now)
            rx_count = self.rx_count
            sr_tx = self.sr_tx
            for j in covered_cs:
                c = rx_count[j] + 1
                rx_count[j] = c
                if c == 1 and not sr_tx[j]:
                    ledgers[j].transition_state(_SR, _RX, now)
        self._push(
            now + dur, _K_SR_TXEND, node,
            (kind, payload, nh, covered_cs, receivable, charge),
        )

    def _h_sr_txend(self, sender: int, payload) -> None:
        kind, item, nh, covered_cs, receivable, charge = payload
        self.sr_tx[sender] = False
        now = self.now
        busy_count = self.busy_count
        for j in covered_cs:
            busy_count[j] -= 1
        if charge:
            ledgers = self.ledgers
            rx_count = self.rx_count
            sr_tx = self.sr_tx
            for j in covered_cs:
                c = rx_count[j] - 1
                rx_count[j] = c
                if c == 0 and not sr_tx[j]:
                    ledgers[j].transition_state(_SR, _IDLE, now)
            ledgers[sender].transition_state(
                _SR, _RX if rx_count[sender] > 0 else _IDLE, now
            )
        # medium freed inside the sensing set: deferred nodes there retry
        # in (first-wait-time, node id) order, then the sender itself
        if self.deferred:
            in_cov = set(covered_cs)
            cands = sorted(
                (ws, n2) for n2, ws in self.deferred.items() if n2 in in_cov
            )
            for _, n2 in cands:
                # still-covered candidates stay deferred with their original
                # wait time; only a clear view is worth the call
                if busy_count[n2] == 0:
                    self._try_start_sr(n2)
        self._try_start_sr(sender)
        if kind == "B":
            for j in receivable:
                self.routing[j].handle_beacon(item, now)
                src = self.sources[j]
                if src is not None and src.blocked is not None:
                    # the table changed; the batched-drop window ends here
                    self._unblock(src, now)
        else:
            if self._in_range(sender, nh):
                self._on_sr_delivery(nh, item)
            else:
                self.dropped_link[item.source] += 1

    # --- periodic events --------------------------------------------------------

    def _h_beacon_due(self, node: int) -> None:
        beacon = self.routing[node].make_beacon(self.now)
        self.sr_queues[node].append(("B", beacon, -1))
        self._try_start_sr(node)
        self._push(self.now + self.cfg.beacon_period, _K_BEACON, node, None)

    def _h_recheck(self, node: int, episode: int) -> None:
        src = self.sources[node]
        if src is None or src.blocked != "SR" or src.episode != episode:
            return
        self._unblock(src, self.now)

    def _h_mobility(self) -> None:
        params = self.cfg.mobility
        self.mob_states = mob.advance_all(
            self.mob_states, params, self.scenario.area, self.rng_mob
        )
        for i, st in enumerate(self.mob_states):
            self.px[i] = st.position.x
            self.py[i] = st.position.y
        self._rebuild_neighbors()
        if self.mobility_trace is not None:
            for i in range(self.n):
                self.mobility_trace.append((self.now, i, self.px[i], self.py[i]))
        self._push(self.now + params.update_interval, _K_MOBILITY, 0, None)

    # --- run ----------------------------------------------------------------

    def execute(self) -> RunStats:
        cfg = self.cfg
        if self.mob_states is not None:
            if self.mobility_trace is not None:
                for i in range(self.n):
                    self.mobility_trace.append((0.0, i, self.px[i], self.py[i]))
            self._push(cfg.mobility.update_interval, _K_MOBILITY, 0, None)
        if self.coop:
            for i in range(self.n):
                offset = cfg.beacon_period * self.rng_beacon.random()
                self._push(offset, _K_BEACON, i, None)
        for src in self.sources:
            if src is not None:
                self._schedule_arrival(src)

        heap = self.heap
        duration = self.duration
        while heap and heap[0][0] < duration:
            time, kind, node, _, payload = heappop(heap)
            self.now = time
            if kind == _K_ARRIVAL:
                self._h_arrival(node, payload)
            elif kind == _K_SR_TXEND:
                self._h_sr_txend(node, payload)
            elif kind == _K_LR_TXEND:
                self._h_lr_txend(node, payload)
            elif kind == _K_BEACON:
                self._h_beacon_due(node)
            elif kind == _K_RECHECK:
                self._h_recheck(node, payload)
            else:
                self._h_mobility()

        self.now = duration
        for ledger in self.ledgers:
            ledger.close(duration)
        # arrivals due before the end that a blocked source never emitted
        for src in self.sources:
            if src is None:
                continue
            pending = src.total_k - src.next_k
            if pending > 0:
                self.generated[src.node] += pending
                self.dropped_queue[src.node] += pending
                src.next_k = src.total_k
        return self._collect()

    def _collect(self) -> RunStats:
        in_flight = [0] * self.n
        if self.uplink_busy is not None:
            in_flight[self.uplink_busy[1].source] += 1
        for _, pkt in self.uplink_wait:
            in_flight[pkt.source] += 1
        for q in self.sr_queues:
            for kind, item, _ in q:
                if kind == "D":
                    in_flight[item.source] += 1
        # data packets on the air at the end: every end-of-transmission event
        # still queued belongs to a transmission that started and never ended
        for _, kind, _, _, payload in self.heap:
            if kind == _K_SR_TXEND and payload[0] == "D":
                in_flight[payload[1].source] += 1
        profiles = self.cfg.power_profiles
        iface_seconds = []
        iface_energy = []
        for ledger in self.ledgers:
            iface_seconds.append(
                {iface: list(ledger.seconds[iface]) for iface in ledger.interfaces}
            )
            iface_energy.append(
                {
                    iface: ledger.interface_energy(iface, profiles[iface])
                    for iface in ledger.interfaces
                }
            )
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
            hop_hist=self.hop_hist,
            iface_seconds=iface_seconds,
            iface_energy=iface_energy,
        )


def run(
    cfg: SimConfig,
    scenario: Scenario,
    run_index: int,
    trace: list | None = None,
    mobility_trace: list | None = None,
) -> RunStats:
    """Execute one deterministic run and return its statistics."""
    return Simulator(cfg, scenario, run_index, trace=trace, mobility_trace=mobility_trace).execute()
