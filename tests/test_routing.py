import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesrsim.routing import Beacon, NodeRoutingState, SelfBeaconError


def _chain(sr=0.3, lr_end=3.0, lr_rest=10.0, n=4):
    # line topology node 0 - 1 - ... - (n-1); the last node has the cheap
    # long-range link, everyone else a costly one
    costs = [lr_rest] * (n - 1) + [lr_end]
    return [NodeRoutingState(i, lr_cost=costs[i], sr_cost=sr) for i in range(n)]


def _beacon_round(nodes, neighbors, now):
    # synchronous lossless round: everyone snapshots its beacon, then all
    # beacons are delivered
    beacons = [node.make_beacon(now) for node in nodes]
    for i, js in neighbors.items():
        for j in js:
            nodes[i].handle_beacon(beacons[j], now)


def test_chain_costs_propagate_one_hop_per_round():
    nodes = _chain()
    nbrs = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}

    _beacon_round(nodes, nbrs, now=0.0)
    # node 2 heard node 3's cheap link: 0.3 + 3
    assert nodes[2].best_neighbor(0.0)[1] == pytest.approx(3.3, abs=1e-12)
    assert nodes[2].best_neighbor(0.0)[0] == 3
    # node 1 only heard the expensive initial advertisements
    assert nodes[1].best_neighbor(0.0)[1] == pytest.approx(10.3, abs=1e-12)

    _beacon_round(nodes, nbrs, now=1.0)
    # node 1 now sees node 2's relayed cost: 0.3 + 0.3 + 3
    assert nodes[1].best_neighbor(1.0)[1] == pytest.approx(3.6, abs=1e-12)
    assert nodes[1].forward_decision(1.0) == 2

    # the cheap-link node itself never relays: via-neighbor costs all exceed
    # its own long-range cost
    for t in (0.0, 1.0):
        assert nodes[3].forward_decision(t) is None


def test_advertised_cost_is_min_of_via_and_own():
    node = NodeRoutingState(0, lr_cost=2.0, sr_cost=0.5)
    assert node.advertised_cost(0.0) == 2.0  # empty table
    node.handle_beacon(Beacon(1, 1.0), 0.0)
    assert node.advertised_cost(0.0) == 1.5
    node.handle_beacon(Beacon(1, 5.0), 0.1)
    assert node.advertised_cost(0.1) == 2.0  # via cost 5.5 > own 2.0


def test_equal_cost_goes_long_range():
    node = NodeRoutingState(0, lr_cost=1.5, sr_cost=0.5)
    node.handle_beacon(Beacon(1, 1.0), 0.0)
    # via = 0.5 + 1.0 == own 1.5: no extra hop at equal cost
    assert node.forward_decision(0.0) is None
    assert node.advertised_cost(0.0) == 1.5


def test_equal_cost_neighbors_resolve_to_lowest_id():
    node = NodeRoutingState(0, lr_cost=9.0, sr_cost=0.5)
    node.handle_beacon(Beacon(7, 1.0), 0.0)
    node.handle_beacon(Beacon(3, 1.0), 0.0)
    node.handle_beacon(Beacon(5, 2.0), 0.0)
    assert node.best_neighbor(0.0) == (3, 1.5)


def test_upsert_overwrites_cost_and_timestamp():
    node = NodeRoutingState(0, lr_cost=9.0, sr_cost=0.5)
    node.handle_beacon(Beacon(1, 4.0), 0.0)
    node.handle_beacon(Beacon(1, 2.0), 6.0)
    assert node.entries == {1: (2.0, 6.0)}
    assert node.best_neighbor(6.0) == (1, 2.5)


def test_entries_expire_after_timeout():
    node = NodeRoutingState(0, lr_cost=9.0, sr_cost=0.5, timeout=15.0)
    node.handle_beacon(Beacon(1, 1.0), 0.0)
    # boundary is inclusive: exactly 15 s old is still live
    assert node.best_neighbor(15.0)[0] == 1
    assert node.best_neighbor(15.1)[0] is None
    assert node.best_neighbor(15.1)[1] == math.inf
    assert node.forward_decision(15.1) is None


def test_earliest_expiry():
    node = NodeRoutingState(0, lr_cost=9.0, sr_cost=0.5, timeout=15.0)
    assert node.earliest_expiry(0.0) == math.inf
    node.handle_beacon(Beacon(1, 1.0), 2.0)
    node.handle_beacon(Beacon(2, 1.0), 5.0)
    assert node.earliest_expiry(6.0) == pytest.approx(17.0)


def test_memoized_decision_tracks_updates_and_expiry():
    node = NodeRoutingState(0, lr_cost=9.0, sr_cost=0.5, timeout=15.0)
    node.handle_beacon(Beacon(1, 1.0), 0.0)
    assert node.best_neighbor(1.0) == (1, 1.5)
    # repeated queries at later times hit the cache but stay correct
    assert node.best_neighbor(10.0) == (1, 1.5)
    node.handle_beacon(Beacon(2, 0.2), 10.0)
    assert node.best_neighbor(10.0) == (2, 0.7)
    # node 1 (heard at 0) expired after 15; node 2 stays live through 25.0
    assert node.best_neighbor(25.0) == (2, 0.7)
    assert node.best_neighbor(25.1)[0] is None


def test_self_beacon_rejected():
    node = NodeRoutingState(4, lr_cost=1.0, sr_cost=0.1)
    with pytest.raises(SelfBeaconError):
        node.handle_beacon(Beacon(4, 1.0), 0.0)


def test_invalid_costs_rejected():
    with pytest.raises(ValueError):
        NodeRoutingState(0, lr_cost=0.0, sr_cost=0.1)
    with pytest.raises(ValueError):
        NodeRoutingState(0, lr_cost=1.0, sr_cost=-0.1)
    with pytest.raises(ValueError):
        Beacon(1, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    lr=st.floats(min_value=0.01, max_value=10.0),
    sr=st.floats(min_value=0.001, max_value=1.0),
    adv=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=0, max_size=8),
    scale=st.sampled_from([0.25, 0.5, 2.0, 8.0, 64.0]),
)
def test_decision_invariant_under_cost_scaling(lr, sr, adv, scale):
    # the routing decision depends only on cost ratios: scaling every cost
    # by the same factor must not change the chosen next hop (powers of two
    # keep the comparison exact in floating point)
    a = NodeRoutingState(0, lr_cost=lr, sr_cost=sr)
    b = NodeRoutingState(0, lr_cost=lr * scale, sr_cost=sr * scale)
    for i, c in enumerate(adv):
        a.handle_beacon(Beacon(i + 1, c), 0.0)
        b.handle_beacon(Beacon(i + 1, c * scale), 0.0)
    assert a.forward_decision(0.0) == b.forward_decision(0.0)


@settings(max_examples=60, deadline=None)
@given(
    lr=st.floats(min_value=0.01, max_value=10.0),
    sr=st.floats(min_value=0.001, max_value=1.0),
    adv=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
)
def test_advertised_never_exceeds_own_lr_cost(lr, sr, adv):
    node = NodeRoutingState(0, lr_cost=lr, sr_cost=sr)
    for i, c in enumerate(adv):
        node.handle_beacon(Beacon(i + 1, c), 0.0)
    assert node.advertised_cost(0.0) <= lr
