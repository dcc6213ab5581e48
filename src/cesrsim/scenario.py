"""Random connected topologies for infrastructure wireless simulations.

Scenarios are generated by rejection sampling: node positions are drawn
uniformly over a rectangular area and the candidate set is admitted only if
the short-range connectivity graph (edges between nodes at most ``tx_range``
apart) is fully connected.  The base station logically covers the whole area
and is not part of the short-range graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


def is_finite_number(value) -> bool:
    """True for a finite int or float; bools and strings are not numbers."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


class ScenarioError(Exception):
    """Invalid scenario parameters or malformed scenario file."""


class ExhaustedAttemptsError(ScenarioError):
    """Rejection sampling failed to produce a connected topology.

    Signals an infeasible density (area too large for the node count and
    transmission range).
    """


@dataclass(frozen=True)
class Area:
    width: float
    height: float

    def __post_init__(self):
        if not all(is_finite_number(d) and d > 0 for d in (self.width, self.height)):
            raise ScenarioError(f"area dimensions must be positive finite numbers, got {self.width}x{self.height}")


@dataclass(frozen=True)
class Position:
    x: float
    y: float


class MtClass(Enum):
    """Device class: A has a fast long-range link, B a slow one."""

    CLASS_A = "A"
    CLASS_B = "B"


@dataclass(frozen=True)
class RateProfile:
    """Link data rates in Mb/s for each interface and device class."""

    sr_rate: float = 54.0
    lr_rate_class_a: float = 74.0
    lr_rate_class_b: float = 16.0

    def __post_init__(self):
        if min(self.sr_rate, self.lr_rate_class_a, self.lr_rate_class_b) <= 0:
            raise ScenarioError("all rates must be positive")

    def lr_rate(self, mt_class: MtClass) -> float:
        if mt_class is MtClass.CLASS_A:
            return self.lr_rate_class_a
        return self.lr_rate_class_b


@dataclass(frozen=True)
class ScenarioNode:
    node_id: int
    position: Position
    mt_class: MtClass


@dataclass(frozen=True)
class Scenario:
    area: Area
    nodes: tuple[ScenarioNode, ...]
    tx_range: float
    bs_position: Position
    seed: int
    attempts: int = 1

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_class_a(self) -> int:
        return sum(1 for n in self.nodes if n.mt_class is MtClass.CLASS_A)

    def positions(self) -> list[Position]:
        return [n.position for n in self.nodes]


def place_random(area: Area, n: int, rng: np.random.Generator) -> list[Position]:
    """Draw n positions uniformly over the area.

    Consumes exactly 2n uniform draws from ``rng`` (x then y per node), which
    callers may rely on for reproducibility.
    """
    if n < 1:
        raise ScenarioError(f"need at least one node, got n={n}")
    out = []
    for _ in range(n):
        x = rng.random() * area.width
        y = rng.random() * area.height
        out.append(Position(x, y))
    return out


def connectivity_graph(positions: Sequence[Position], max_range: float) -> list[list[int]]:
    """Undirected adjacency lists: edge (i, j) iff distance <= max_range, i != j.

    The boundary is inclusive so nodes exactly at max_range still cooperate.
    """
    if not positions:
        raise ScenarioError("positions must be non-empty")
    if max_range <= 0:
        raise ScenarioError("max_range must be positive")
    n = len(positions)
    adj: list[list[int]] = [[] for _ in range(n)]
    r2 = max_range * max_range
    for i in range(n):
        pi = positions[i]
        for j in range(i + 1, n):
            pj = positions[j]
            dx = pi.x - pj.x
            dy = pi.y - pj.y
            if dx * dx + dy * dy <= r2:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def is_fully_connected(adj: Sequence[Sequence[int]]) -> bool:
    """True iff every node is reachable from node 0.

    For an undirected graph reachability from node 0 is equivalent to
    any-to-any reachability.
    """
    n = len(adj)
    if n == 0:
        raise ScenarioError("graph must have at least one node")
    seen = [False] * n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for v in adj[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                reached += 1
                stack.append(v)
    return reached == n


def _check_tx_range(tx_range) -> None:
    if not (is_finite_number(tx_range) and tx_range > 0):
        raise ScenarioError(f"tx_range must be a positive finite number, got {tx_range!r}")


def generate_scenario(
    area: Area,
    n_total: int,
    n_class_a: int,
    tx_range: float,
    seed: int,
    max_attempts: int = 10_000,
) -> Scenario:
    """Rejection-sample a connected scenario.

    Class A is assigned to the first ``n_class_a`` node ids; the remaining
    nodes are Class B.  Raises ExhaustedAttemptsError after ``max_attempts``
    rejected position sets.
    """
    if not 0 <= n_class_a <= n_total:
        raise ScenarioError(f"n_class_a={n_class_a} out of range for n_total={n_total}")
    if max_attempts < 1:
        raise ScenarioError("max_attempts must be >= 1")
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")
    _check_tx_range(tx_range)
    rng = np.random.default_rng(seed)
    for attempt in range(1, max_attempts + 1):
        positions = place_random(area, n_total, rng)
        adj = connectivity_graph(positions, tx_range)
        if is_fully_connected(adj):
            nodes = tuple(
                ScenarioNode(
                    node_id=i,
                    position=p,
                    mt_class=MtClass.CLASS_A if i < n_class_a else MtClass.CLASS_B,
                )
                for i, p in enumerate(positions)
            )
            return Scenario(
                area=area,
                nodes=nodes,
                tx_range=tx_range,
                bs_position=Position(area.width / 2.0, area.height / 2.0),
                seed=seed,
                attempts=attempt,
            )
    raise ExhaustedAttemptsError(
        f"no connected topology after {max_attempts} attempts "
        f"(n={n_total}, range={tx_range}, area={area.width}x{area.height})"
    )


# --- serialization -----------------------------------------------------------
#
# One record per node, fixed field order, repr-formatted floats so that files
# are byte-stable across runs and platforms.

_HEADER = "cesr-scenario v1"
# values after each record key
_ARITY = {"area": 2, "tx_range": 1, "bs": 2, "seed": 1, "node": 4}


def scenario_to_text(scenario: Scenario) -> str:
    lines = [
        _HEADER,
        f"area {scenario.area.width!r} {scenario.area.height!r}",
        f"tx_range {scenario.tx_range!r}",
        f"bs {scenario.bs_position.x!r} {scenario.bs_position.y!r}",
        f"seed {scenario.seed}",
    ]
    for node in scenario.nodes:
        lines.append(
            f"node {node.node_id} {node.position.x!r} {node.position.y!r} {node.mt_class.value}"
        )
    return "\n".join(lines) + "\n"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def scenario_from_text(text: str) -> Scenario:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _HEADER:
        raise ScenarioError("not a scenario file (missing header)")
    fields: dict[str, list] = {}
    nodes: list[ScenarioNode] = []
    for ln in lines[1:]:
        key, *args = ln.split()
        try:
            if key not in _ARITY:
                raise ValueError("unknown record")
            if len(args) != _ARITY[key]:
                raise ValueError(f"expected {_ARITY[key]} value(s) after {key!r}")
            if key == "node":
                nid = int(args[0])
                if nid != len(nodes):
                    raise ScenarioError(f"node ids must be contiguous from 0, got {nid}")
                nodes.append(ScenarioNode(
                    nid, Position(_finite(args[1]), _finite(args[2])), MtClass(args[3])
                ))
            elif key == "seed":
                fields[key] = [int(args[0])]
            else:
                fields[key] = [_finite(a) for a in args]
        except ValueError as exc:
            raise ScenarioError(f"bad scenario line {ln!r}: {exc}") from None
    try:
        area = Area(*fields["area"])
        tx_range = fields["tx_range"][0]
        bs = Position(*fields["bs"])
        seed = fields["seed"][0]
    except KeyError as exc:
        raise ScenarioError(f"scenario file missing field: {exc}") from exc
    _check_tx_range(tx_range)
    if not nodes:
        raise ScenarioError("scenario file has no nodes")
    return Scenario(area=area, nodes=tuple(nodes), tx_range=tx_range, bs_position=bs, seed=seed)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(scenario_to_text(scenario))


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="ascii") as fh:
        return scenario_from_text(fh.read())
