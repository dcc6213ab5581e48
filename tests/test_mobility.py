import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesrsim.mobility import (
    MobilityParams,
    MobilityState,
    advance_all,
    gm_step,
    init_states,
    reflect,
)
from cesrsim.scenario import Area, Position


def test_params_validation():
    with pytest.raises(ValueError):
        MobilityParams(alpha=1.5)
    with pytest.raises(ValueError):
        MobilityParams(mean_speed=-1.0)
    with pytest.raises(ValueError):
        MobilityParams(update_interval=0.0)


def test_default_speed_stddev_is_half_mean():
    p = MobilityParams(mean_speed=2.0)
    assert p.speed_stddev == 1.0
    q = MobilityParams(mean_speed=2.0, speed_stddev=0.3)
    assert q.speed_stddev == 0.3


def test_init_states_start_at_mean_speed():
    rng = np.random.default_rng(1)
    pts = [Position(1, 1), Position(2, 2)]
    states = init_states(pts, MobilityParams(mean_speed=1.5), rng)
    assert [s.position for s in states] == pts
    assert all(s.speed == 1.5 for s in states)
    assert all(s.direction == s.mean_direction for s in states)


def test_gm_step_stationary_at_zero_mean_speed():
    # mean 0 with default stddev (0.5 * mean = 0): the node never moves
    p = MobilityParams(alpha=0.5, mean_speed=0.0)
    rng = np.random.default_rng(7)
    st_ = MobilityState(Position(3, 4), 0.0, 1.0, 1.0)
    for _ in range(20):
        st_ = gm_step(st_, p, rng)
    assert (st_.position.x, st_.position.y) == (3.0, 4.0)
    assert st_.speed == 0.0


def test_gm_step_alpha_one_is_constant_velocity():
    # full memory: speed and direction never change regardless of noise
    p = MobilityParams(alpha=1.0, mean_speed=5.0, speed_stddev=3.0, update_interval=1.0)
    rng = np.random.default_rng(2)
    st_ = MobilityState(Position(0, 0), 2.0, 0.0, 0.0)
    nxt = gm_step(st_, p, rng)
    assert nxt.speed == 2.0
    assert nxt.direction == 0.0
    assert nxt.position.x == pytest.approx(2.0)
    assert nxt.position.y == pytest.approx(0.0)


def test_gm_step_long_run_mean_speed():
    # ergodic average of the AR(1) speed process converges to the mean speed
    p = MobilityParams(alpha=0.5, mean_speed=2.0, speed_stddev=0.2)
    rng = np.random.default_rng(11)
    st_ = MobilityState(Position(0, 0), 2.0, 0.0, 0.0)
    acc = 0.0
    n = 20000
    for _ in range(n):
        st_ = gm_step(st_, p, rng)
        acc += st_.speed
    assert acc / n == pytest.approx(2.0, abs=0.02)


def test_reflect_identity_inside():
    area = Area(10, 10)
    out = reflect(MobilityState(Position(5, 5), 1.0, 1.23, 0.5), area)
    assert out == MobilityState(Position(5.0, 5.0), 1.0, 1.23, 0.5)


def test_reflect_mirrors_left_edge():
    area = Area(10, 10)
    out = reflect(MobilityState(Position(-2, 5), 1.0, math.pi, math.pi), area)
    assert out.position.x == pytest.approx(2.0)
    assert out.position.y == pytest.approx(5.0)
    assert out.speed == 1.0
    # x component negated: heading pi flips to 0, and so does the mean
    assert math.cos(out.direction) == pytest.approx(1.0)
    assert math.cos(out.mean_direction) == pytest.approx(1.0)


def test_reflect_corner_flips_both_components():
    area = Area(10, 10)
    d_in = math.atan2(-1.0, -1.0)
    out = reflect(MobilityState(Position(-1, -1), 1.0, d_in, d_in), area)
    assert (out.position.x, out.position.y) == (1.0, 1.0)
    assert math.cos(out.direction) == pytest.approx(math.sqrt(0.5))
    assert math.sin(out.direction) == pytest.approx(math.sqrt(0.5))


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(min_value=-95.0, max_value=195.0),
    y=st.floats(min_value=-45.0, max_value=95.0),
    d=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_reflect_always_lands_inside(x, y, d):
    area = Area(100, 50)
    out = reflect(MobilityState(Position(x, y), 1.0, d, d), area)
    assert 0.0 <= out.position.x <= area.width
    assert 0.0 <= out.position.y <= area.height
    assert -math.pi <= out.direction <= math.pi


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=9999), steps=st.integers(min_value=1, max_value=30))
def test_advance_all_keeps_nodes_in_area(seed, steps):
    area = Area(60, 20)
    rng = np.random.default_rng(seed)
    p = MobilityParams(alpha=0.3, mean_speed=3.0, update_interval=1.0)
    pts = [Position(rng.random() * 60, rng.random() * 20) for _ in range(6)]
    states = init_states(pts, p, rng)
    for _ in range(steps):
        states = advance_all(states, p, area, rng)
        for s in states:
            assert 0.0 <= s.position.x <= area.width
            assert 0.0 <= s.position.y <= area.height
            assert s.speed >= 0.0


def test_advance_all_deterministic():
    area = Area(60, 20)
    p = MobilityParams(alpha=0.5, mean_speed=1.0)
    pts = [Position(10, 10), Position(20, 5), Position(30, 15)]

    def trajectory(seed):
        rng = np.random.default_rng(seed)
        states = init_states(pts, p, rng)
        out = []
        for _ in range(10):
            states = advance_all(states, p, area, rng)
            out.append([(s.position.x, s.position.y) for s in states])
        return out

    assert trajectory(42) == trajectory(42)
    assert trajectory(42) != trajectory(43)
