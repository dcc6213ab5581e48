"""CSV emission for runs, ledgers, traces and sweeps.

Floats are written with repr (shortest round-trip form) so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import os

from .energy import InterfaceKind, RadioState
from .metrics import EfficiencyReport, GainReport
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


def write_aggregate_csv(stats_list: list[RunStats], path) -> None:
    rows = []
    for rs in stats_list:
        delivered = rs.total_delivered_mbits
        energy = rs.total_energy_j
        eb = energy / delivered if delivered > 0 else float("inf")
        rows.append([rs.run_index, rs.goodput_mbps, energy, eb])
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


def write_trace_csv(rows, path) -> None:
    write_rows(path, TRACE_COLUMNS, rows)


def write_mobility_trace_csv(rows, path) -> None:
    write_rows(path, MOBILITY_TRACE_COLUMNS, rows)


def write_report_csv(path, label: str, reports: list[EfficiencyReport],
                     gain_report: GainReport | None) -> None:
    rows = []
    for rep in reports:
        g = ""
        if gain_report is not None and rep.mode == "cooperative":
            g = gain_report.gain
        rows.append([label, rep.mode, rep.runs, rep.eb_per_mb, rep.goodput_mbps, g])
    write_rows(path, REPORT_COLUMNS, rows)


def ensure_dir(path) -> None:
    os.makedirs(path, exist_ok=True)
