import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesrsim.scenario import (
    Area,
    ExhaustedAttemptsError,
    MtClass,
    Position,
    ScenarioError,
    connectivity_graph,
    generate_scenario,
    is_fully_connected,
    place_random,
    scenario_from_text,
    scenario_to_text,
)


def test_area_rejects_nonpositive_dimensions():
    with pytest.raises(ScenarioError):
        Area(0.0, 10.0)
    with pytest.raises(ScenarioError):
        Area(10.0, -1.0)


def test_place_random_uniform_mean():
    # Monte-Carlo check of the uniform placement: the empirical mean of
    # 20000 draws over a 60x20 area must be close to the center (30, 10).
    # Std of the mean is (W/sqrt(12))/sqrt(N) ~ 0.12 in x, so 5 sigma ~ 0.6.
    rng = np.random.default_rng(123)
    pts = place_random(Area(60.0, 20.0), 20000, rng)
    mx = sum(p.x for p in pts) / len(pts)
    my = sum(p.y for p in pts) / len(pts)
    assert abs(mx - 30.0) < 0.6
    assert abs(my - 10.0) < 0.25
    assert all(0.0 <= p.x <= 60.0 and 0.0 <= p.y <= 20.0 for p in pts)


def test_place_random_consumes_two_draws_per_node():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    place_random(Area(10, 10), 7, rng1)
    for _ in range(14):
        rng2.random()
    assert rng1.random() == rng2.random()


def test_connectivity_graph_inclusive_boundary():
    pts = [Position(0, 0), Position(3, 0), Position(7, 0)]
    adj = connectivity_graph(pts, 3.0)
    assert adj[0] == [1]
    assert adj[1] == [0]  # node 2 is at distance 4 from node 1
    adj = connectivity_graph(pts, 4.0)
    assert adj[1] == [0, 2]


def _warshall_connected(adj):
    # independent reachability oracle: boolean Floyd-Warshall closure
    n = len(adj)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, row in enumerate(adj):
        for j in row:
            reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return all(all(row) for row in reach)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    rng=st.floats(min_value=2.0, max_value=30.0),
)
def test_is_fully_connected_matches_closure_oracle(n, seed, rng):
    pts = place_random(Area(40, 40), n, np.random.default_rng(seed))
    adj = connectivity_graph(pts, rng)
    assert is_fully_connected(adj) == _warshall_connected(adj)


def test_generate_scenario_connected_and_classed():
    sc = generate_scenario(Area(60, 20), 15, 4, 20.0, seed=3)
    assert sc.n_nodes == 15
    assert sc.n_class_a == 4
    assert [n.mt_class for n in sc.nodes[:4]] == [MtClass.CLASS_A] * 4
    assert all(n.mt_class is MtClass.CLASS_B for n in sc.nodes[4:])
    adj = connectivity_graph(sc.positions(), sc.tx_range)
    assert is_fully_connected(adj)
    assert sc.bs_position == Position(30.0, 10.0)


def test_generate_scenario_deterministic():
    a = generate_scenario(Area(100, 50), 12, 3, 20.0, seed=99)
    b = generate_scenario(Area(100, 50), 12, 3, 20.0, seed=99)
    assert a == b
    c = generate_scenario(Area(100, 50), 12, 3, 20.0, seed=100)
    assert c.positions() != a.positions()


def test_generate_scenario_exhausts_attempts_when_too_sparse():
    # 3 nodes with a 1 m range in a 500x500 m area: essentially never connected
    with pytest.raises(ExhaustedAttemptsError):
        generate_scenario(Area(500, 500), 3, 1, 1.0, seed=1, max_attempts=50)


def test_generate_scenario_rejects_bad_class_count():
    with pytest.raises(ScenarioError):
        generate_scenario(Area(60, 20), 5, 6, 20.0, seed=1)


def test_scenario_text_round_trip():
    sc = generate_scenario(Area(60.0, 20.0), 8, 2, 20.0, seed=17)
    text = scenario_to_text(sc)
    back = scenario_from_text(text)
    assert back.positions() == sc.positions()
    assert [n.mt_class for n in back.nodes] == [n.mt_class for n in sc.nodes]
    assert back.area == sc.area
    assert back.tx_range == sc.tx_range
    assert back.bs_position == sc.bs_position
    # repr floats round-trip exactly, so re-serializing is byte-stable
    assert scenario_to_text(back) == text


def test_scenario_from_text_rejects_garbage():
    with pytest.raises(ScenarioError):
        scenario_from_text("not a scenario\n")
    with pytest.raises(ScenarioError):
        scenario_from_text("cesr-scenario v1\narea 10.0 10.0\ntx_range 5.0\nbs 5.0 5.0\nseed 1\n")

