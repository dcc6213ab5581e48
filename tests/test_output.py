import csv
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesrsim.config import Mode, SimConfig
from cesrsim.output import TRACE_COLUMNS, trace_tail, write_trace_csv
from cesrsim.scenario import Area, generate_scenario
from cesrsim.simcore import Simulator, run


def _reference_trace_csv(rows, path):
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)


def _assert_same_bytes(rows, directory):
    """write_trace_csv of (time, trace_tail(...)) rows writes the bytes
    csv.writer writes for the same rows as (time, node, decision, next_hop,
    eq1, lr_cost) tuples."""
    fast, ref = directory / "fast.csv", directory / "ref.csv"
    write_trace_csv([(t, trace_tail(node, nh if decision == "SR" else None, eq1, lr))
                     for t, node, decision, nh, eq1, lr in rows], fast)
    _reference_trace_csv(rows, ref)
    assert fast.read_bytes() == ref.read_bytes()


# a trace row's fields as the simulator decides them: costs are positive,
# eq1 is +inf when no neighbour is live, next_hop is "" on a long-range decision
_tails = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000) | st.none(),
    st.floats(min_value=0.0, allow_nan=False) | st.just(math.inf),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
).map(lambda f: (f[0], "LR", "", *f[2:]) if f[1] is None else (f[0], "SR", *f[1:]))
# rows draw from a few tails, so most repeat a tail seen before
_rows = st.lists(_tails, min_size=1, max_size=4).flatmap(lambda pool: st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1e6), st.sampled_from(pool)).map(
        lambda pair: (pair[0], *pair[1])),
    max_size=40,
))


@settings(max_examples=200, deadline=None)
@given(rows=_rows)
@example(rows=[])
@example(rows=[(7.337907188032511e-06, 3, "SR", 5, 1.5e-08, 2.0e-07),
               (1e16, 3, "SR", 5, 1.5e-08, 2.0e-07),
               (0.0, 4, "LR", "", math.inf, 1e-7)])
def test_trace_csv_writes_the_bytes_of_csv_writer(tmp_path_factory, rows):
    directory = tmp_path_factory.mktemp("trace")
    _assert_same_bytes(rows, directory)
    if not rows:
        assert (directory / "fast.csv").read_text() == ",".join(TRACE_COLUMNS) + "\n"


def _reference_trace_row(self, node, nh):
    """The trace row of a routing decision as a plain 6-tuple, from the
    routing state alone: no cache."""
    eq1 = self.routing[node].best_neighbor(self.now)[1] if self.coop else math.inf
    self.trace.append((self.now, node, "SR" if nh is not None else "LR",
                       nh if nh is not None else "", eq1, self.lr_cost[node]))


def test_trace_csv_writes_the_bytes_of_csv_writer_on_simulated_rows(tmp_path, monkeypatch):
    # 0.1 s beacons in a 0.5 s run: tables fill, so both decisions occur, and
    # a node's eq1 changes while its next hop stays the same, and the other
    # way round (a neighbour with the same cost and a lower id is heard)
    sc = generate_scenario(Area(60, 20), 20, 4, 20.0, seed=3)
    for mode in (Mode.BENCHMARK, Mode.COOPERATIVE):
        cfg = SimConfig(duration=0.5, runs=1, cbr_rate=3000.0, mode=mode, beacon_period=0.1)
        trace = []
        run(cfg, sc, 0, trace=trace)
        with monkeypatch.context() as m:
            m.setattr(Simulator, "_trace_row", _reference_trace_row)
            ref = []
            run(cfg, sc, 0, trace=ref)
        assert {row[2] for row in ref} == ({"LR"} if mode is Mode.BENCHMARK else {"SR", "LR"})
        if mode is Mode.COOPERATIVE:
            # rows whose eq1 changed from the node's last row and next hop
            # did not, and the other way round
            last = {}  # node -> (next hop, eq1) of its last row
            eq1_changes = hop_changes = 0
            for _, node, _, nh, eq1, _ in ref:
                if node in last:
                    last_nh, last_eq1 = last[node]
                    eq1_changes += last_nh == nh and last_eq1 != eq1
                    hop_changes += last_nh != nh and last_eq1 == eq1
                last[node] = (nh, eq1)
            assert eq1_changes and hop_changes, (eq1_changes, hop_changes)
        write_trace_csv(trace, tmp_path / "fast.csv")
        _reference_trace_csv(ref, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
