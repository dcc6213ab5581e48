"""Run aggregation: system energy efficiency and benchmark-relative gain.

The efficiency of a set of runs is the mean over runs of
(total consumed energy) / (total Mbits delivered at the base station),
in J/Mb.  The gain of a cooperative run set over a matched benchmark set is
1 - coop/benchmark: positive means cooperation delivers a Mbit for less
energy, and it can be negative when the dual-interface overhead dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simcore import RunStats


class ZeroDeliveryError(ValueError):
    """A run delivered no traffic; the efficiency ratio is undefined.

    Raised instead of skipping the run, which would silently bias the mean.
    """


class MismatchedRunSetError(ValueError):
    """Gain was requested between run sets with different scenarios/seeds."""


@dataclass(frozen=True)
class RunDetail:
    run_index: int
    scenario_seed: int
    energy_j: float
    eb_per_mb: float
    goodput_mbps: float


@dataclass(frozen=True)
class EfficiencyReport:
    mode: str
    runs: int
    eb_per_mb: float      # mean over runs of per-run energy/delivered
    goodput_mbps: float   # mean over runs of aggregate goodput
    per_run: tuple[RunDetail, ...]


def energy_efficiency(run_stats: list[RunStats]) -> EfficiencyReport:
    if not run_stats:
        raise ValueError("need at least one run")
    details = []
    for rs in run_stats:
        delivered = rs.total_delivered_mbits
        if delivered <= 0:
            raise ZeroDeliveryError(
                f"run {rs.run_index} delivered no traffic; efficiency undefined"
            )
        energy = rs.total_energy_j
        details.append(
            RunDetail(
                run_index=rs.run_index,
                scenario_seed=rs.scenario_seed,
                energy_j=energy,
                eb_per_mb=energy / delivered,
                goodput_mbps=rs.goodput_mbps,
            )
        )
    r = len(details)
    return EfficiencyReport(
        mode=run_stats[0].mode,
        runs=r,
        eb_per_mb=sum(d.eb_per_mb for d in details) / r,
        goodput_mbps=sum(d.goodput_mbps for d in details) / r,
        per_run=tuple(details),
    )


def gain(benchmark: EfficiencyReport, cooperative: EfficiencyReport) -> float:
    """1 - coop/benchmark over two reports of the same runs."""
    bmk_keys = [(d.run_index, d.scenario_seed) for d in benchmark.per_run]
    coop_keys = [(d.run_index, d.scenario_seed) for d in cooperative.per_run]
    if bmk_keys != coop_keys:
        raise MismatchedRunSetError(
            "benchmark and cooperative reports cover different runs/scenarios"
        )
    return 1.0 - cooperative.eb_per_mb / benchmark.eb_per_mb
