"""The benchmark's workloads: their inputs, one round of work, and checks.

A round runs the workload's CLI commands once, in this process, through
`cesrsim.cli.main`, the entry point of `cesrsim sweep` and `cesrsim run`.
Every round of a run repeats the same commands on the same inputs, which
depend only on the master seed.

All workloads use a 1 s beacon period, so that routing tables fill within
the first second and a short run spends most of its time in the steady
state instead of waiting for the first beacons (default period 5 s).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

import cesrsim.cli
import cesrsim.plans
from cesrsim.config import Mode
from cesrsim.simcore import run as simulate

import checks

SEED_MODULUS = 2**32  # cesrsim seeds must be non-negative


@dataclass
class Captured:
    """One simulation run as the CLI made it: its inputs and its RunStats."""

    cfg: object
    scenario: object
    run_index: int
    stats: object


class Recorder:
    """Keeps the RunStats of every simulation run the CLI makes, so that the
    checks can read them after the round. Wraps `run` where `cesrsim sweep`
    and `cesrsim run` look it up."""

    OWNERS = (cesrsim.plans, cesrsim.cli)

    def __init__(self):
        self.runs: list[Captured] = []

    def __enter__(self) -> "Recorder":
        self._orig = [owner.run for owner in self.OWNERS]
        for owner, fn in zip(self.OWNERS, self._orig):
            owner.run = self._wrap(fn)
        return self

    def __exit__(self, *exc) -> None:
        for owner, fn in zip(self.OWNERS, self._orig):
            owner.run = fn

    def _wrap(self, fn):
        def run(cfg, scenario, run_index, *args, **kwargs):
            rs = fn(cfg, scenario, run_index, *args, **kwargs)
            self.runs.append(Captured(cfg, scenario, run_index, rs))
            return rs
        return run


@dataclass(frozen=True)
class Workload:
    name: str
    # writes the input files for a master seed into a directory and returns
    # (setup target, CLI commands of one round); the target is ("plan"|"config", path)
    prepare: Callable[[Path, int], tuple[tuple[str, Path], list[list[str]]]]
    # checks one round: (run directory, captured runs) -> messages
    check: Callable[[Path, list[Captured]], list[str]]


def _write_yaml(path: Path, data: dict) -> Path:
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    return path


# --- sweep workloads ----------------------------------------------------------

def _sweep(plan: dict, run_check, row_check=None) -> Workload:
    """A workload that runs `cesrsim sweep` on one plan. `run_check` gets
    each captured run and `row_check` each sweep.csv row with its gain."""
    n_points = len(plan["values"]) * len(plan["areas"]) * len(plan["class_a_counts"])
    runs = plan["config"]["runs"]

    def prepare(workdir: Path, seed: int):
        data = dict(plan, config=dict(plan["config"], master_seed=seed % SEED_MODULUS))
        path = _write_yaml(workdir / "plan.yaml", data)
        return ("plan", path), [["sweep", "--plan", str(path), "--out", str(workdir / "out")]]

    def check(workdir: Path, captured: list[Captured]) -> list[str]:
        errs = []
        for c in captured:
            errs += checks.run_checks(c.stats, c.cfg) + run_check(c)
        with open(workdir / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n_points or len(captured) != 2 * runs * n_points:
            return errs + [f"{len(rows)} sweep rows from {len(captured)} runs, "
                           f"expected {n_points} rows from {2 * runs * n_points}"]
        # the sweep runs its points in row order; each point pairs a benchmark
        # and a cooperative run per run index
        for p, row in enumerate(rows):
            point = captured[2 * runs * p: 2 * runs * (p + 1)]
            bmk = [c.stats for c in point if c.cfg.mode is Mode.BENCHMARK]
            coop = [c.stats for c in point if c.cfg.mode is Mode.COOPERATIVE]
            reported = float(row["gain"])
            errs += checks.gain(bmk, coop, point[0].cfg.power_profiles, reported)
            if row_check:
                errs += row_check(row, reported)
        return errs

    return Workload(plan["name"], prepare, check)


def _coop_only(check):
    return lambda c: check(c.stats) if c.cfg.mode is Mode.COOPERATIVE else []


def _static_or_benchmark(check):
    # Moving nodes can form transient routing loops, whose packets end at the
    # hop budget or fill relay queues, so the no-drop property is checked on
    # benchmark runs and on cooperative runs with static nodes.
    return lambda c: (check(c.stats) if c.cfg.mode is Mode.BENCHMARK
                      or c.cfg.mobility.mean_speed == 0 else [])


def _positive_gain(row, gain):
    return [] if gain > 0 else [f"{row['area_w']}x{row['area_h']}: gain {gain!r} is not above 0"]


def _nonpositive_gain(row, gain):
    return ([] if gain <= 0 else
            [f"{row['area_w']}x{row['area_h']} at speed {row['axis_value']}: "
             f"gain {gain!r} is above 0"])


_SATURATED = {"duration": 3, "runs": 4, "cbr_rate": 3000, "beacon_period": 1}

DENSE = _sweep(
    {"name": "dense-saturated", "axis": "cbr_rate", "values": [3000],
     "areas": [[60, 20]], "n_total": 20, "class_a_counts": [4],
     "config": dict(_SATURATED)},
    _coop_only(checks.complete_medium), _positive_gain,
)

REUSE = _sweep(
    {"name": "spatial-reuse", "axis": "cbr_rate", "values": [3000],
     "areas": [[100, 50]], "n_total": 20, "class_a_counts": [4],
     "config": dict(_SATURATED, runs=3, cs_range_factor=1.5)},
    _coop_only(checks.spatial_reuse),
)

MOBILE = _sweep(
    {"name": "mobile-sweep", "axis": "mean_speed", "values": [0, 3],
     "areas": [[60, 20], [100, 50]], "n_total": 10, "class_a_counts": [2],
     "config": {"duration": 4, "runs": 4, "cbr_rate": 200, "beacon_period": 1,
                "mobility": {"alpha": 0.5, "mean_speed": 1.0, "update_interval": 0.1}}},
    _static_or_benchmark(checks.no_drops), _nonpositive_gain,
)


# --- exact trace --------------------------------------------------------------

_TRACE_CONFIG = {"duration": 2, "runs": 1, "cbr_rate": 3000, "beacon_period": 1,
                 "mode": "both"}


def _trace_prepare(workdir: Path, seed: int):
    seed %= SEED_MODULUS
    config = _write_yaml(workdir / "config.yaml", dict(_TRACE_CONFIG, master_seed=seed))
    scenario = workdir / "scenario.txt"
    return ("config", config), [
        ["generate", "--area", "60", "20", "--nodes", "20", "--class-a", "4",
         "--seed", str(seed), "--out", str(scenario)],
        ["run", "--config", str(config), "--scenario", str(scenario),
         "--out", str(workdir / "out"), "--trace"],
    ]


def _trace_check(workdir: Path, captured: list[Captured]) -> list[str]:
    errs = []
    out = workdir / "out"
    want = 2 * _TRACE_CONFIG["runs"]
    if len(captured) != want:
        return [f"{len(captured)} runs, expected {want}"]
    for mode in (Mode.BENCHMARK, Mode.COOPERATIVE):
        mode_runs = [c for c in captured if c.cfg.mode is mode]
        for c in mode_runs:
            errs += checks.run_checks(c.stats, c.cfg)
            errs += checks.trace_file(out / mode.value / f"trace_run{c.run_index}.csv", c.stats)
            # the same inputs through the batched-drop path
            errs += checks.same_stats(c.stats, simulate(c.cfg, c.scenario, c.run_index))
        errs += checks.node_csv(out / mode.value / "nodes.csv", [c.stats for c in mode_runs],
                                mode_runs[0].cfg.power_profiles)
    with open(out / "report.csv", newline="") as fh:
        coop_row = next(r for r in csv.DictReader(fh) if r["mode"] == "cooperative")
    errs += checks.gain([c.stats for c in captured if c.cfg.mode is Mode.BENCHMARK],
                        [c.stats for c in captured if c.cfg.mode is Mode.COOPERATIVE],
                        captured[0].cfg.power_profiles, float(coop_row["gain_vs_benchmark"]))
    return errs


EXACT = Workload("exact-trace", _trace_prepare, _trace_check)

WORKLOADS = {w.name: w for w in (DENSE, REUSE, MOBILE, EXACT)}
