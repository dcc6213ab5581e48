"""Cooperative energy-saving routing: neighbor tables and per-packet decisions.

A distance-vector variant for infrastructure networks.  Every cooperating
node periodically broadcasts a beacon carrying the lowest energy-per-bit
cost at which it can currently reach the base station (directly over its
long-range link or through a neighbor chain).  On every data packet a node
compares its best via-neighbor cost against its own long-range cost and
forwards accordingly.  Costs strictly increase along a relay chain (every
short-range hop adds a positive cost), so steady-state routes are loop-free
without sequence numbers or split horizon.

Tie-breaking: equal via-neighbor and long-range cost resolves to the
long-range link (no extra hop at equal cost); equal-cost neighbors resolve
to the lowest node id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class SelfBeaconError(ValueError):
    """A node attempted to insert itself into its own neighbor table."""


@dataclass(frozen=True)
class Beacon:
    sender_id: int
    advertised_cost: float  # J/Mb

    def __post_init__(self):
        if self.advertised_cost <= 0:
            raise ValueError("advertised_cost must be positive")


class NodeRoutingState:
    """Routing state of one node: its own link costs plus the neighbor table.

    The table maps neighbor id -> (advertised cost, last heard).  An entry
    older than the timeout is stale: every lookup skips it, and a fresh
    beacon from that neighbor overwrites it.

    best_neighbor/advertised_cost/forward_decision are memoized between
    table changes; the cache stays valid while time advances without any
    entry expiring, which keeps per-packet decisions O(1) in steady state.
    """

    __slots__ = (
        "node_id", "lr_cost", "sr_cost", "entries", "timeout",
        "_cache_time", "_cache_expiry", "_cache_best", "_epoch", "_cache_epoch",
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
        self._epoch = 0
        self._cache_epoch = -1
        self._cache_time = -math.inf
        self._cache_expiry = -math.inf
        self._cache_best: tuple[int | None, float] = (None, math.inf)

    def handle_beacon(self, beacon: Beacon, now: float) -> None:
        """Upsert the sender's entry with its advertised cost and timestamp."""
        if beacon.sender_id == self.node_id:
            raise SelfBeaconError(f"node {self.node_id} received its own beacon")
        self.entries[beacon.sender_id] = (beacon.advertised_cost, now)
        self._epoch += 1

    def earliest_expiry(self, now: float) -> float:
        """Time at which the oldest live entry would expire; +inf if empty."""
        timeout = self.timeout
        times = [heard + timeout for _, heard in self.entries.values()
                 if now - heard <= timeout]
        return min(times) if times else math.inf

    def best_neighbor(self, now: float) -> tuple[int | None, float]:
        """Minimum of sr_cost + advertised cost over live entries.

        Returns (None, +inf) when no live neighbor exists.  Equal costs go
        to the lowest neighbor id.
        """
        if (
            self._cache_epoch == self._epoch
            and self._cache_time <= now <= self._cache_expiry
        ):
            return self._cache_best
        timeout = self.timeout
        best_id: int | None = None
        best_cost = math.inf
        expiry = math.inf
        for nid, (adv, heard) in self.entries.items():
            if now - heard > timeout:
                continue
            exp = heard + timeout
            if exp < expiry:
                expiry = exp
            cost = self.sr_cost + adv
            if cost < best_cost or (cost == best_cost and (best_id is None or nid < best_id)):
                best_cost = cost
                best_id = nid
        self._cache_epoch = self._epoch
        self._cache_time = now
        self._cache_expiry = expiry
        self._cache_best = (best_id, best_cost)
        return self._cache_best

    def advertised_cost(self, now: float) -> float:
        """Cost carried in this node's beacons: min(best via-neighbor, own LR)."""
        _, via = self.best_neighbor(now)
        return via if via < self.lr_cost else self.lr_cost

    def forward_decision(self, now: float) -> int | None:
        """Next hop for a short-range relay, or None for the long-range link.

        Short range is chosen only when strictly cheaper.
        """
        best_id, via = self.best_neighbor(now)
        return best_id if via < self.lr_cost else None

    def make_beacon(self, now: float) -> Beacon:
        return Beacon(sender_id=self.node_id, advertised_cost=self.advertised_cost(now))
