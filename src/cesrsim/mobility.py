"""Gauss-Markov node mobility with boundary reflection.

The speed and direction follow the standard AR(1) recursion

    v' = a*v + (1-a)*v_mean + sqrt(1-a^2) * sigma_v * g1
    d' = a*d + (1-a)*d_mean + sqrt(1-a^2) * sigma_d * g2

with per-node mean direction fixed at initialization.  Nodes bounce off the
area edges: the position is mirrored across the violated edge and the
direction component normal to that edge is negated.  The per-node mean
direction is mirrored as well so the bounce persists instead of fighting
the mean-reversion pull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .scenario import Area, Position, is_finite_number


@dataclass(frozen=True)
class MobilityParams:
    alpha: float = 0.5
    mean_speed: float = 1.0
    speed_stddev: float | None = None   # default 0.5 * mean_speed
    direction_stddev: float = 0.5       # radians
    update_interval: float = 1.0        # seconds

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value is None and f.name == "speed_stddev") and not is_finite_number(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mean_speed < 0:
            raise ValueError("mean_speed must be >= 0")
        if self.update_interval <= 0:
            raise ValueError("update_interval must be > 0")
        if self.speed_stddev is None:
            object.__setattr__(self, "speed_stddev", 0.5 * self.mean_speed)


@dataclass
class MobilityState:
    position: Position
    speed: float
    direction: float
    mean_direction: float


def init_states(
    positions: list[Position], params: MobilityParams, rng: np.random.Generator
) -> list[MobilityState]:
    """One state per node; initial direction drawn uniformly, speed at the mean.

    Consumes one uniform draw per node, in node-id order.
    """
    states = []
    for pos in positions:
        d = rng.random() * 2.0 * math.pi
        states.append(MobilityState(position=pos, speed=params.mean_speed, direction=d, mean_direction=d))
    return states


def gm_step(state: MobilityState, params: MobilityParams, rng: np.random.Generator) -> MobilityState:
    """One raw Gauss-Markov update; the result may lie outside the area.

    Consumes exactly two gaussian draws.  Negative speeds are clamped to 0.
    """
    a = params.alpha
    noise = math.sqrt(max(0.0, 1.0 - a * a))
    g1 = rng.standard_normal()
    g2 = rng.standard_normal()
    speed = a * state.speed + (1.0 - a) * params.mean_speed + noise * params.speed_stddev * g1
    if speed < 0.0:
        speed = 0.0
    direction = a * state.direction + (1.0 - a) * state.mean_direction + noise * params.direction_stddev * g2
    dt = params.update_interval
    x = state.position.x + speed * dt * math.cos(direction)
    y = state.position.y + speed * dt * math.sin(direction)
    return MobilityState(Position(x, y), speed, direction, state.mean_direction)


def _fold(coord: float, limit: float) -> tuple[float, bool]:
    """Mirror coord into [0, limit]; returns (folded, flipped_odd_times)."""
    flipped = False
    guard = 0
    while coord < 0.0 or coord > limit:
        coord = -coord if coord < 0.0 else 2.0 * limit - coord
        flipped = not flipped
        guard += 1
        if guard > 1000:
            raise ValueError("reflection did not converge (position too far outside area)")
    return coord, flipped


def _mirror_direction(direction: float, flip_x: bool, flip_y: bool) -> float:
    if not flip_x and not flip_y:
        return direction
    cx = math.cos(direction)
    cy = math.sin(direction)
    if flip_x:
        cx = -cx
    if flip_y:
        cy = -cy
    return math.atan2(cy, cx)


def reflect(state: MobilityState, area: Area) -> MobilityState:
    """Mirror an out-of-bounds state back into the area.

    Each violated edge mirrors the coordinate and negates the matching
    component of both the direction and the mean direction, so the bounce
    persists; large overshoots fold repeatedly.  Speed is unaffected.
    """
    x, flip_x = _fold(state.position.x, area.width)
    y, flip_y = _fold(state.position.y, area.height)
    return MobilityState(
        Position(x, y),
        state.speed,
        _mirror_direction(state.direction, flip_x, flip_y),
        _mirror_direction(state.mean_direction, flip_x, flip_y),
    )


def advance_all(
    states: list[MobilityState], params: MobilityParams, area: Area, rng: np.random.Generator
) -> list[MobilityState]:
    """Step every node in node-id order (fixed rng consumption order):
    gm_step, then reflect."""
    return [reflect(gm_step(st, params, rng), area) for st in states]
