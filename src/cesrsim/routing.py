"""Cooperative energy-saving routing: neighbor tables and per-packet decisions.

A distance-vector variant for infrastructure networks.  Every cooperating
node periodically broadcasts a beacon carrying the lowest energy-per-bit
cost at which it can currently reach the base station (directly over its
long-range link or through a neighbor chain).  A beacon is just that cost:
its sender is the sender of the frame that carries it.  On every data
packet a node compares its best via-neighbor cost against its own
long-range cost and forwards accordingly.  Costs strictly increase along
a relay chain (every short-range hop adds a positive cost), so steady-state
routes are loop-free without sequence numbers or split horizon.

Tie-breaking: equal via-neighbor and long-range cost resolves to the
long-range link (no extra hop at equal cost); equal-cost neighbors resolve
to the lowest node id.
"""

from __future__ import annotations

import math


class NodeRoutingState:
    """Routing state of one node: its own link costs plus the neighbor table.

    The table maps neighbor id -> (advertised cost, last heard).  An entry
    is stale after its expiry, last heard + timeout: every lookup skips it,
    and a fresh beacon from that neighbor overwrites it.  Advertised costs
    are positive, since both link costs are, and a node's neighbours never
    include itself, so the table holds no entry for the node's own id.

    best_neighbor/make_beacon/forward_decision/earliest_expiry share one
    memo: the best entry and the earliest live expiry at one time.  The live
    set holds from then to that expiry, which keeps per-packet decisions
    O(1) in steady state.  A beacon invalidates the memo.  forward_decision
    and earliest_expiry, called once per routed packet and per short-range
    block, read the memo in place while it is valid and call best_neighbor
    only to rebuild it.
    """

    __slots__ = (
        "node_id", "lr_cost", "sr_cost", "entries", "timeout",
        "_cache_time", "_cache_expiry", "_cache_best",
    )

    def __init__(self, node_id: int, lr_cost: float, sr_cost: float, timeout: float = 15.0):
        if lr_cost <= 0 or not math.isfinite(lr_cost):
            raise ValueError("lr_cost must be positive and finite")
        if sr_cost <= 0 or not math.isfinite(sr_cost):
            raise ValueError("sr_cost must be positive and finite")
        self.node_id = node_id
        self.lr_cost = lr_cost
        self.sr_cost = sr_cost
        self.entries: dict[int, tuple[float, float]] = {}
        self.timeout = timeout
        self._cache_time = -math.inf
        self._cache_expiry = -math.inf
        self._cache_best: tuple[int | None, float] = (None, math.inf)

    def handle_beacon(self, sender: int, cost: float, now: float) -> None:
        """Upsert the sender's entry with its advertised cost and timestamp."""
        self.entries[sender] = (cost, now)
        self._cache_expiry = -math.inf

    def earliest_expiry(self, now: float) -> float:
        """Time at which the oldest live entry would expire; +inf if empty."""
        if not self._cache_time <= now <= self._cache_expiry:
            self.best_neighbor(now)
        return self._cache_expiry

    def best_neighbor(self, now: float) -> tuple[int | None, float]:
        """Minimum of sr_cost + advertised cost over live entries.

        Returns (None, +inf) when no live neighbor exists.  Equal costs go
        to the lowest neighbor id.
        """
        if self._cache_time <= now <= self._cache_expiry:
            return self._cache_best
        timeout = self.timeout
        best_id: int | None = None
        best_cost = math.inf
        expiry = math.inf
        for nid, (adv, heard) in self.entries.items():
            exp = heard + timeout
            if exp < now:
                continue
            if exp < expiry:
                expiry = exp
            cost = self.sr_cost + adv
            if cost < best_cost or (cost == best_cost and (best_id is None or nid < best_id)):
                best_cost = cost
                best_id = nid
        self._cache_time = now
        self._cache_expiry = expiry
        self._cache_best = (best_id, best_cost)
        return self._cache_best

    def forward_decision(self, now: float) -> int | None:
        """Next hop for a short-range relay, or None for the long-range link.

        Short range is chosen only when strictly cheaper.
        """
        if self._cache_time <= now <= self._cache_expiry:
            best_id, via = self._cache_best
        else:
            best_id, via = self.best_neighbor(now)
        return best_id if via < self.lr_cost else None

    def make_beacon(self, now: float) -> float:
        """Cost carried in this node's beacons: min(best via-neighbor, own LR)."""
        _, via = self.best_neighbor(now)
        return via if via < self.lr_cost else self.lr_cost
