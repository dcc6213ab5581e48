import csv
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesrsim.config import Mode, SimConfig
from cesrsim.output import TRACE_COLUMNS, write_trace_csv
from cesrsim.scenario import Area, generate_scenario
from cesrsim.simcore import run


def _reference_trace_csv(rows, path):
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)


def _assert_same_bytes(rows, directory):
    fast, ref = directory / "fast.csv", directory / "ref.csv"
    write_trace_csv(rows, fast)
    _reference_trace_csv(rows, ref)
    assert fast.read_bytes() == ref.read_bytes()


# a trace tail as the simulator writes it: costs are positive, eq1 is +inf
# when no neighbour is live, next_hop is "" on a long-range decision
_tails = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["SR", "LR"]),
    st.integers(min_value=0, max_value=10_000) | st.just(""),
    st.floats(min_value=0.0, allow_nan=False) | st.just(math.inf),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
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


def test_trace_csv_writes_the_bytes_of_csv_writer_on_simulated_rows(tmp_path):
    # 0.1 s beacons in a 0.5 s run: tables fill, so both decisions occur
    sc = generate_scenario(Area(60, 20), 20, 4, 20.0, seed=3)
    for mode in (Mode.BENCHMARK, Mode.COOPERATIVE):
        cfg = SimConfig(duration=0.5, runs=1, cbr_rate=3000.0, mode=mode, beacon_period=0.1)
        trace = []
        run(cfg, sc, 0, trace=trace)
        assert {row[2] for row in trace} == ({"LR"} if mode is Mode.BENCHMARK else {"SR", "LR"})
        _assert_same_bytes(trace, tmp_path)
