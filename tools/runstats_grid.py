"""Dump and compare the RunStats of a fixed grid of runs, to show that a
change to the simulator keeps its results.

    python3 tools/runstats_grid.py dump OUT.jsonl
    python3 tools/runstats_grid.py compare A.jsonl B.jsonl

`dump` runs the checkout this file sits in (its `src/`) over 768 runs:
3 scenarios x cs_range_factor 6 and 1.5 x 50 and 3000 pkt/s x mobility off
and at 3 m/s x both modes x queue caps 50 and 1 x seeds 1-2 x beacon periods
1 and 0.2 s x trace off and on, 2 s each.  It writes one JSON line per run:
its grid key, `dataclasses.asdict(RunStats)`, the row count of its trace,
the sha256 of the trace CSV and of the mobility trace CSV that the
checkout's own `write_trace_csv` and `write_mobility_trace_csv` write for the
run (of no bytes for an untraced run; a traced run records both), and its
heap-push count (`Simulator._seq`).  Hashing the written files, not the row
objects, lets two versions whose rows differ in shape but write the same
files compare equal.  To compare two versions, copy this file into both
checkouts, dump in each, then `compare` the two files.  `compare` prints
how many runs are equal, the worst relative float difference and the first
differing field, and exits 1 unless every run is equal.  It also prints
both heap-push totals and the range of the per-run change, which is not
part of the verdict: a change may push fewer events for the same results.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cesrsim.config import Mode, SimConfig  # noqa: E402
from cesrsim.mobility import MobilityParams  # noqa: E402
from cesrsim.output import write_mobility_trace_csv, write_trace_csv  # noqa: E402
from cesrsim.scenario import Area, generate_scenario  # noqa: E402
from cesrsim.simcore import Simulator  # noqa: E402

DURATION = 2.0
# name -> (area, nodes, class-A nodes)
SCENARIOS = {
    "dense": (Area(60.0, 20.0), 20, 4),
    "wide": (Area(100.0, 50.0), 20, 4),
    "small": (Area(60.0, 20.0), 10, 2),
}
AXES = dict(
    scenario=list(SCENARIOS),
    cs_range_factor=[6.0, 1.5],
    cbr_rate=[50.0, 3000.0],
    mean_speed=[None, 3.0],
    mode=[m.value for m in Mode],
    cap=[50, 1],
    seed=[1, 2],
    beacon_period=[1.0, 0.2],
    trace=[False, True],
)


def grid():
    """Every point of the grid, as a dict of axis values."""
    for values in itertools.product(*AXES.values()):
        yield dict(zip(AXES, values))


def _sha256(write, rows: list | None) -> str:
    """sha256 of the CSV file `write(rows, path)` writes; of no bytes for None."""
    if rows is None:
        return hashlib.sha256(b"").hexdigest()
    with tempfile.TemporaryDirectory(prefix="runstats-grid-") as tmp:
        path = Path(tmp) / "trace.csv"
        write(rows, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def run_point(p: dict) -> dict:
    area, n, n_a = SCENARIOS[p["scenario"]]
    sc = generate_scenario(area, n, n_a, 20.0, seed=p["seed"])
    mobility = (None if p["mean_speed"] is None
                else MobilityParams(mean_speed=p["mean_speed"], update_interval=0.1))
    cfg = SimConfig(
        duration=DURATION, runs=1, mode=Mode(p["mode"]), cbr_rate=p["cbr_rate"],
        beacon_period=p["beacon_period"], cs_range_factor=p["cs_range_factor"],
        uplink_queue_cap_per_node=p["cap"], sr_queue_cap=p["cap"],
        mobility=mobility, master_seed=p["seed"],
    )
    trace = [] if p["trace"] else None
    mobility_trace = [] if p["trace"] else None
    sim = Simulator(cfg, sc, 0, trace=trace, mobility_trace=mobility_trace)
    rs = sim.execute()
    return {
        "key": json.dumps(p, sort_keys=True),
        "stats": asdict(rs),
        "trace_rows": len(trace or []),
        "trace_sha256": _sha256(write_trace_csv, trace),
        "mobility_sha256": _sha256(write_mobility_trace_csv, mobility_trace),
        "pushes": sim._seq,
    }


def dump(out: str) -> None:
    points = list(grid())
    with open(out, "w") as fh:
        for i, p in enumerate(points, 1):
            fh.write(json.dumps(run_point(p)) + "\n")
            if i % 64 == 0 or i == len(points):
                print(f"{i}/{len(points)} runs", file=sys.stderr)


def _load(path: str) -> dict[str, dict]:
    with open(path) as fh:
        return {rec["key"]: rec for rec in map(json.loads, fh)}


def _diffs(a, b, path: str):
    """Yield (path, relative difference) for each leaf where a and b differ;
    the difference is None unless both are floats."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            yield from _diffs(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from _diffs(x, y, f"{path}[{k}]")
    elif a != b:
        floats = isinstance(a, float) and isinstance(b, float)
        yield path, abs(a - b) / max(abs(a), abs(b)) if floats else None


def compare(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    if a.keys() != b.keys():
        print(f"the two grids differ: {len(a)} and {len(b)} runs, "
              f"{len(a.keys() & b.keys())} in both")
        return 1
    equal, worst, first = 0, 0.0, None
    pushes = [(a[key].pop("pushes"), b[key].pop("pushes")) for key in a]
    for key in a:
        diffs = list(_diffs(a[key], b[key], "run"))
        if not diffs:
            equal += 1
            continue
        worst = max([worst, *(d for _, d in diffs if d is not None)])
        if first is None:
            first = f"{key}: {diffs[0][0]}"
    print(f"{equal} of {len(a)} runs equal (RunStats and trace files)")
    print(f"worst relative float difference: {worst!r}")
    if first is not None:
        print(f"first difference: {first}")
    changes = [pb - pa for pa, pb in pushes]
    print(f"heap pushes: {sum(pa for pa, _ in pushes)} and {sum(pb for _, pb in pushes)}; "
          f"per-run change from {min(changes):+d} to {max(changes):+d} (not compared)")
    return 0 if equal == len(a) else 1


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print("usage: runstats_grid.py dump OUT | compare A B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
