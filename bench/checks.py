"""Correctness checks on what one benchmark round produced.

Every check returns a list of messages that is empty when the check passes.
A check either recomputes what it compares from the run's inputs (duration,
rates, power profiles) and the raw state seconds, or tests a property the
simulation method must have. None compares against a stored copy of earlier
output.

The checks read `RunStats` objects and the CSV files the CLI wrote. They use
cesrsim only for the names of interfaces and radio states.
"""

from __future__ import annotations

import csv
import math
from dataclasses import fields

from cesrsim.energy import InterfaceKind, RadioState

SR = InterfaceKind.SHORT_RANGE
LR = InterfaceKind.LONG_RANGE
TX, RX, IDLE = RadioState.TX, RadioState.RX, RadioState.IDLE

# Seconds of slack for sums of float state seconds; a corrupted state second
# is off by far more.
TIME_TOL = 1e-6
REL_TOL = 1e-9


def _label(rs) -> str:
    return f"{rs.mode} run {rs.run_index}"


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def conservation(rs) -> list[str]:
    """Per node: generated = delivered + dropped (queue, hops, link) + in flight."""
    errs = []
    for i, gen in enumerate(rs.generated):
        accounted = (rs.delivered_pkts[i] + rs.dropped_queue[i] + rs.dropped_hops[i]
                     + rs.dropped_link[i] + rs.in_flight[i])
        if gen != accounted:
            errs.append(f"{_label(rs)} node {i}: generated {gen} != "
                        f"delivered + dropped + in flight {accounted}")
    return errs


def time_in_state(rs) -> list[str]:
    """Per interface: TX + RX + IDLE seconds = the run's duration."""
    errs = []
    for i, ifaces in enumerate(rs.iface_seconds):
        for iface, secs in ifaces.items():
            total = secs[TX] + secs[RX] + secs[IDLE]
            if abs(total - rs.duration) > TIME_TOL:
                errs.append(f"{_label(rs)} node {i} {iface.name}: state seconds "
                            f"sum to {total!r}, duration {rs.duration!r}")
    return errs


def node_energy(secs_by_iface, profiles) -> float:
    """Joules from state seconds and the power profile of each interface."""
    total = 0.0
    for iface, secs in secs_by_iface.items():
        p = profiles[iface]
        total += p.tx_w * secs[TX] + p.rx_w * secs[RX] + p.idle_w * secs[IDLE]
    return total


def energy(rs, profiles) -> list[str]:
    """Energy recomputed from state seconds matches the reported energy."""
    errs = []
    for i, ifaces in enumerate(rs.iface_seconds):
        for iface, secs in ifaces.items():
            want = node_energy({iface: secs}, profiles)
            got = rs.iface_energy[i][iface]
            if not _close(got, want):
                errs.append(f"{_label(rs)} node {i} {iface.name}: reported "
                            f"{got!r} J, state seconds give {want!r} J")
    return errs


def has_source(cfg, cls: str) -> bool:
    return cfg.cbr_rate > 0 and (cfg.class_a_generates or cls != "A")


def generation(rs, cfg) -> list[str]:
    """Each source generates duration x rate packets; other nodes none."""
    per_source = round(cfg.duration * cfg.cbr_rate)
    errs = []
    for i, cls in enumerate(rs.classes):
        want = per_source if has_source(cfg, cls) else 0
        if rs.generated[i] != want:
            errs.append(f"{_label(rs)} node {i}: generated {rs.generated[i]}, "
                        f"duration x rate gives {want}")
    return errs


def lr_rate(cfg, cls: str) -> float:
    return cfg.rates.lr_rate_class_a if cls == "A" else cfg.rates.lr_rate_class_b


def packet_mb(cfg) -> float:
    return cfg.packet_size * 8 / 1e6


def lr_airtime(rs, cfg) -> list[str]:
    """Uplink airtime x rate covers the delivered Mb to within one packet.

    Every delivered packet held the uplink for size / rate seconds; only the
    packet in service when the run ends adds airtime without delivery.
    """
    sent = sum(rs.iface_seconds[i][LR][TX] * lr_rate(cfg, cls)
               for i, cls in enumerate(rs.classes))
    delivered = sum(rs.delivered_mbits)
    slack = packet_mb(cfg) * (1 + REL_TOL) + TIME_TOL
    if not -TIME_TOL <= sent - delivered <= slack:
        return [f"{_label(rs)}: uplink airtime carries {sent!r} Mb, "
                f"delivered {delivered!r} Mb"]
    return []


def run_checks(rs, cfg) -> list[str]:
    """The checks every run of every workload passes."""
    return (conservation(rs) + time_in_state(rs) + energy(rs, cfg.power_profiles)
            + generation(rs, cfg) + lr_airtime(rs, cfg))


def efficiency(stats, profiles) -> float:
    """Mean over runs of recomputed energy / delivered Mb, in J/Mb."""
    per_run = [sum(node_energy(secs, profiles) for secs in rs.iface_seconds)
               / sum(rs.delivered_mbits) for rs in stats]
    return sum(per_run) / len(per_run)


def gain(bmk, coop, profiles, reported: float) -> list[str]:
    """The gain recomputed from each run's energy and Mb matches the report."""
    want = 1.0 - efficiency(coop, profiles) / efficiency(bmk, profiles)
    if not _close(reported, want, abs_tol=1e-9):
        return [f"reported gain {reported!r}, runs give {want!r}"]
    return []


def complete_medium(rs) -> list[str]:
    """With every node sensing every other, one transmission is on the air at
    a time: each node's short-range TX + RX equals the sum of short-range TX
    over all nodes, and that sum fits in the duration."""
    total_tx = sum(ifaces[SR][TX] for ifaces in rs.iface_seconds)
    errs = []
    if total_tx > rs.duration + TIME_TOL:
        errs.append(f"{_label(rs)}: short-range TX sums to {total_tx!r} s, "
                    f"more than the duration {rs.duration!r}")
    for i, ifaces in enumerate(rs.iface_seconds):
        busy = ifaces[SR][TX] + ifaces[SR][RX]
        if abs(busy - total_tx) > TIME_TOL:
            errs.append(f"{_label(rs)} node {i}: short-range TX + RX {busy!r} s, "
                        f"all nodes' TX {total_tx!r} s")
    return errs


def spatial_reuse(rs) -> list[str]:
    """Short-range TX summed over nodes exceeds the duration, so transmissions
    out of each other's sensing range overlapped."""
    total_tx = sum(ifaces[SR][TX] for ifaces in rs.iface_seconds)
    if total_tx <= rs.duration:
        return [f"{_label(rs)}: short-range TX sums to {total_tx!r} s, "
                f"no more than the duration {rs.duration!r}"]
    return []


def no_drops(rs) -> list[str]:
    """No packet dropped at a queue or for its hop count."""
    q, h = sum(rs.dropped_queue), sum(rs.dropped_hops)
    if q or h:
        return [f"{_label(rs)}: {q} queue drop(s), {h} hop-budget drop(s)"]
    return []


def trace_file(path, rs) -> list[str]:
    """One trace row per packet generated or relayed, and each row's decision
    is SR exactly when the best via-neighbour cost (eq1) is below the node's
    long-range cost."""
    errs = []
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return [f"{path}: empty trace"]
        col = {name: k for k, name in enumerate(header)}
        d, eq1, lr = col["decision"], col["eq1_cost"], col["lr_cost"]
        for rec in reader:
            rows += 1
            want = "SR" if float(rec[eq1]) < float(rec[lr]) else "LR"
            if rec[d] != want and len(errs) < 5:
                errs.append(f"{path} row {rows}: decision {rec[d]}, "
                            f"eq1 {rec[eq1]} vs lr {rec[lr]} gives {want}")
    want_rows = sum(rs.generated) + sum(rs.relayed)
    if rows != want_rows:
        errs.append(f"{path}: {rows} rows, generated + relayed = {want_rows}")
    return errs


def same_stats(exact, batched) -> list[str]:
    """The per-packet path and the batched-drop path agree field by field."""
    return [f"{_label(exact)}: {f.name} differs between the per-packet and "
            f"batched-drop paths"
            for f in fields(exact) if getattr(exact, f.name) != getattr(batched, f.name)]


def node_csv(path, stats, profiles) -> list[str]:
    """nodes.csv agrees with the runs: generated packets, delivered Mb and
    energy recomputed from state seconds."""
    errs = []
    by_run = {rs.run_index: rs for rs in stats}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rs = by_run[int(rec["run_index"])]
            i = int(rec["node_id"])
            if int(rec["generated_pkts"]) != rs.generated[i]:
                errs.append(f"{path} run {rs.run_index} node {i}: generated_pkts "
                            f"{rec['generated_pkts']}, run has {rs.generated[i]}")
            if not _close(float(rec["delivered_mbits"]), rs.delivered_mbits[i]):
                errs.append(f"{path} run {rs.run_index} node {i}: delivered_mbits "
                            f"{rec['delivered_mbits']}, run has {rs.delivered_mbits[i]!r}")
            want = node_energy(rs.iface_seconds[i], profiles)
            if not _close(float(rec["energy_total_j"]), want):
                errs.append(f"{path} run {rs.run_index} node {i}: energy_total_j "
                            f"{rec['energy_total_j']}, state seconds give {want!r}")
    return errs
