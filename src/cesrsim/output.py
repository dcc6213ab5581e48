"""CSV emission for runs, ledgers, traces and sweeps.

Floats are written with repr (shortest round-trip form) so identical inputs
produce byte-identical files.  Every file goes through csv.writer except the
per-packet trace, the one large file, whose lines are formatted directly.
Those are the lines csv would write: no trace field (an int, "SR"/"LR", ""
or a float) holds a comma, quote or line break, so csv quotes none, and csv
writes a float as str(x), which equals repr(x).  A trace row is (time,
tail): ``trace_tail`` formats the text after the time, which the simulator
keeps per node and formats again only when the node's next hop or eq1 cost
changed, so each distinct tail is formatted once per change.  The trace can
also be written in chunks while a run makes it: the first call writes the
header, each later one appends its rows, and the file has the same bytes.
"""

from __future__ import annotations

import csv
import os

from .energy import InterfaceKind, RadioState
from .metrics import EfficiencyReport
from .simcore import RunStats

NODE_COLUMNS = [
    "run_index", "node_id", "class", "generated_pkts", "delivered_mbits",
    "dropped_pkts", "hops_mean", "energy_lr_j", "energy_sr_j", "energy_total_j",
]
AGGREGATE_COLUMNS = ["run_index", "goodput_mbps", "system_energy_j", "eb_per_mb"]
LEDGER_COLUMNS = ["node_id", "iface", "state", "seconds", "joules"]
TRACE_COLUMNS = ["time", "node_id", "decision", "next_hop", "eq1_cost", "lr_cost"]
MOBILITY_TRACE_COLUMNS = ["time", "node_id", "x", "y"]
REPORT_COLUMNS = ["config_label", "mode", "runs", "eb_per_mb", "goodput_mbps", "gain_vs_benchmark"]

_IFACE_NAMES = {InterfaceKind.SHORT_RANGE: "SR", InterfaceKind.LONG_RANGE: "LR"}
_STATE_NAMES = {RadioState.TX: "TX", RadioState.RX: "RX", RadioState.IDLE: "IDLE"}


def write_rows(path, columns, rows) -> None:
    """Header plus rows; csv writes floats with repr."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_node_csv(stats_list: list[RunStats], path) -> None:
    rows = []
    for rs in stats_list:
        for i in range(rs.n_nodes):
            sr = rs.iface_energy[i].get(InterfaceKind.SHORT_RANGE, 0.0)
            lr = rs.iface_energy[i].get(InterfaceKind.LONG_RANGE, 0.0)
            rows.append([
                rs.run_index, i, rs.classes[i], rs.generated[i], rs.delivered_mbits[i],
                rs.dropped_total(i), rs.hops_mean(i), lr, sr, lr + sr,
            ])
    write_rows(path, NODE_COLUMNS, rows)


def write_aggregate_csv(report: EfficiencyReport, path) -> None:
    rows = [[d.run_index, d.goodput_mbps, d.energy_j, d.eb_per_mb] for d in report.per_run]
    write_rows(path, AGGREGATE_COLUMNS, rows)


def write_ledger_csv(rs: RunStats, profiles, path) -> None:
    rows = []
    for i in range(rs.n_nodes):
        for iface, secs in rs.iface_seconds[i].items():
            profile = profiles[iface]
            for state in (RadioState.TX, RadioState.RX, RadioState.IDLE):
                rows.append([
                    i, _IFACE_NAMES[iface], _STATE_NAMES[state],
                    secs[state], profile.power(state) * secs[state],
                ])
    write_rows(path, LEDGER_COLUMNS, rows)


def trace_tail(node: int, next_hop: int | None, eq1: float, lr_cost: float) -> str:
    """The trace line of a routing decision after its time: node, SR with
    the next hop or LR with an empty one, eq1 and lr_cost, and the newline."""
    if next_hop is None:
        return f",{node},LR,,{eq1!r},{lr_cost!r}\n"
    return f",{node},SR,{next_hop},{eq1!r},{lr_cost!r}\n"


def write_trace_csv(rows, path, header: bool = True) -> None:
    """Header plus one line per (time, tail) row, tail from trace_tail; with
    header=False, append the rows to the file and write no header.

    Writes the bytes write_rows would write for the rows' fields (see the
    module docstring), streamed a line at a time so no copy of the file is
    held in memory.
    """
    with open(path, "w" if header else "a", encoding="ascii", newline="") as fh:
        write = fh.write
        if header:
            write(",".join(TRACE_COLUMNS) + "\n")
        for time, tail in rows:
            write(repr(time) + tail)


def write_mobility_trace_csv(rows, path) -> None:
    write_rows(path, MOBILITY_TRACE_COLUMNS, rows)


def write_report_csv(path, label: str, reports: list[EfficiencyReport],
                     gain: float | None) -> None:
    rows = []
    for rep in reports:
        g = gain if gain is not None and rep.mode == "cooperative" else ""
        rows.append([label, rep.mode, rep.runs, rep.eb_per_mb, rep.goodput_mbps, g])
    write_rows(path, REPORT_COLUMNS, rows)


def ensure_dir(path) -> None:
    os.makedirs(path, exist_ok=True)
