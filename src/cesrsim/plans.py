"""Experiment plans: axis sweeps with paired benchmark/cooperative runs.

A plan expands into points (area x class-A count x axis value).  Every
point runs R paired simulations: for each run index a fresh connected
scenario is generated from a seed derived from (master_seed, point, run),
and both modes execute on that identical scenario with the identical
per-run seed, so gains always compare like with like.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace

import numpy as np
import yaml

from .config import ConfigError, Mode, SimConfig, parse_config, _check_keys, _is_int
from .metrics import energy_efficiency, gain
from .mobility import MobilityParams, is_finite_number
from .output import write_rows
from .scenario import Area, ScenarioError, generate_scenario
from .simcore import run

AXES = ("node_count", "cbr_rate", "mean_speed")

SWEEP_COLUMNS = [
    "plan", "area_w", "area_h", "n_total", "n_class_a", "axis", "axis_value",
    "runs", "bmk_eb_per_mb", "coop_eb_per_mb", "bmk_goodput_mbps",
    "coop_goodput_mbps", "gain",
]

_PLAN_KEYS = {"name", "axis", "values", "areas", "n_total", "class_a_counts", "config"}


@dataclass(frozen=True)
class ExperimentPlan:
    name: str
    axis: str
    values: tuple[float, ...]
    areas: tuple[tuple[float, float], ...]
    n_total: int
    class_a_counts: tuple[int, ...]
    base: SimConfig

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.values:
            raise ConfigError("axis values must be non-empty")
        if not self.areas:
            raise ConfigError("areas must be non-empty")
        if self.axis == "mean_speed" and self.base.mobility is None:
            raise ConfigError("a mean_speed sweep needs mobility parameters in the base config")

    def points(self) -> list["SweepPoint"]:
        out = []
        idx = 0
        for ai, (w, h) in enumerate(self.areas):
            for ci, ca in enumerate(self.class_a_counts):
                for vi, v in enumerate(self.values):
                    out.append(SweepPoint(self, idx, ai, (w, h), ci, ca, vi, v))
                    idx += 1
        return out


@dataclass(frozen=True)
class SweepPoint:
    plan: ExperimentPlan
    index: int
    area_index: int
    area: tuple[float, float]
    ca_index: int
    n_class_a: int
    value_index: int
    value: float

    @property
    def n_total(self) -> int:
        if self.plan.axis == "node_count":
            return int(self.value)
        return self.plan.n_total

    def config(self) -> SimConfig:
        cfg = self.plan.base
        if self.plan.axis == "cbr_rate":
            cfg = replace(cfg, cbr_rate=self.value)
        elif self.plan.axis == "mean_speed":
            m = cfg.mobility
            cfg = replace(
                cfg,
                mobility=MobilityParams(
                    alpha=m.alpha,
                    mean_speed=self.value,
                    speed_stddev=None,  # rescales with the mean
                    direction_stddev=m.direction_stddev,
                    update_interval=m.update_interval,
                ),
            )
        return cfg

    def scenario_seed(self, run_index: int) -> int:
        # deliberately independent of the axis value: every point along the
        # axis sees the same scenarios, so trends are paired, not confounded
        # by topology variance (node_count sweeps redraw positions anyway)
        ss = np.random.SeedSequence(
            entropy=self.plan.base.master_seed,
            spawn_key=(self.area_index, self.ca_index, run_index),
        )
        words = ss.generate_state(2)
        return (int(words[0]) << 32) | int(words[1])


@dataclass
class SweepRow:
    plan: str
    area_w: float
    area_h: float
    n_total: int
    n_class_a: int
    axis: str
    axis_value: float
    runs: int
    bmk_eb_per_mb: float
    coop_eb_per_mb: float
    bmk_goodput_mbps: float
    coop_goodput_mbps: float
    gain: float


def load_plan(path) -> ExperimentPlan:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_plan(data)


def parse_plan(data: dict) -> ExperimentPlan:
    if not isinstance(data, dict):
        raise ConfigError("plan file must contain a mapping")
    _check_keys(data, _PLAN_KEYS, "plan")
    # sweeps always pair the two modes, so default the config mode to "both"
    data = dict(data)
    cfg_data = dict(data.get("config") or {})
    cfg_data.setdefault("mode", "both")
    data["config"] = cfg_data
    for key in ("name", "axis", "values", "areas", "class_a_counts"):
        if key not in data:
            raise ConfigError(f"plan missing key: {key!r}")
    values = _plan_list(data, "values", is_finite_number, "finite numbers")
    areas = _plan_list(data, "areas", _is_area, "[width, height] pairs of positive numbers")
    class_a_counts = _plan_list(
        data, "class_a_counts", lambda c: _is_int(c) and c >= 0, "integers >= 0"
    )
    n_total = data.get("n_total", 0)
    if not _is_int(n_total):
        raise ConfigError(f"plan n_total must be an integer, got {n_total!r}")
    axis = str(data["axis"])
    if axis == "node_count":
        if not all(v >= 1 and float(v).is_integer() for v in values):
            raise ConfigError(f"node_count values must be integers >= 1, got {values!r}")
        node_counts = [int(v) for v in values]
    elif n_total < 1:
        raise ConfigError("plan needs n_total >= 1 unless sweeping node_count")
    else:
        node_counts = [n_total]
    if max(class_a_counts) > min(node_counts):
        raise ConfigError(
            f"class_a_counts {max(class_a_counts)} exceeds the {min(node_counts)} nodes of a point"
        )
    base, both = parse_config(data["config"])
    if not both:
        # a plan fixing a single mode is a typo: gains need paired runs
        raise ConfigError('plan config must use mode: "both" (or omit mode)')
    plan = ExperimentPlan(
        name=str(data["name"]), axis=axis,
        values=tuple(float(v) for v in values),
        areas=tuple((float(w), float(h)) for w, h in areas),
        n_total=n_total, class_a_counts=tuple(class_a_counts), base=base,
    )
    for point in plan.points():
        try:
            point.config()
        except ValueError as exc:
            raise ConfigError(f"{axis} = {point.value:g}: {exc}") from exc
    return plan


def _is_area(area) -> bool:
    return (isinstance(area, list) and len(area) == 2
            and all(is_finite_number(x) and x > 0 for x in area))


def _plan_list(data: dict, key: str, ok, what: str) -> list:
    value = data[key]
    if not isinstance(value, list) or not value or not all(ok(v) for v in value):
        raise ConfigError(f"plan {key} must be a non-empty list of {what}, got {value!r}")
    return value


def run_point(point: SweepPoint) -> SweepRow:
    """Execute all paired runs of one sweep point."""
    cfg = point.config()
    n_total = point.n_total
    if point.n_class_a > n_total:
        raise ConfigError(
            f"point {point.index}: n_class_a={point.n_class_a} exceeds n_total={n_total}"
        )
    bmk_cfg = cfg.with_mode(Mode.BENCHMARK)
    coop_cfg = cfg.with_mode(Mode.COOPERATIVE)
    area = Area(point.area[0], point.area[1])
    bmk_stats = []
    coop_stats = []
    for run_index in range(cfg.runs):
        scenario = generate_scenario(
            area, n_total, point.n_class_a, cfg.tx_range,
            seed=point.scenario_seed(run_index),
        )
        bmk_stats.append(run(bmk_cfg, scenario, run_index))
        coop_stats.append(run(coop_cfg, scenario, run_index))
    bmk_rep = energy_efficiency(bmk_stats)
    coop_rep = energy_efficiency(coop_stats)
    g = gain(bmk_rep, coop_rep)
    return SweepRow(
        plan=point.plan.name,
        area_w=point.area[0],
        area_h=point.area[1],
        n_total=n_total,
        n_class_a=point.n_class_a,
        axis=point.plan.axis,
        axis_value=point.value,
        runs=cfg.runs,
        bmk_eb_per_mb=bmk_rep.eb_per_mb,
        coop_eb_per_mb=coop_rep.eb_per_mb,
        bmk_goodput_mbps=bmk_rep.goodput_mbps,
        coop_goodput_mbps=coop_rep.goodput_mbps,
        gain=g.gain,
    )


def run_sweep(
    plan: ExperimentPlan, parallel: int = 1
) -> tuple[list[SweepRow], list[tuple[SweepPoint, str]]]:
    """Run every point; returns (rows, failures) in canonical point order."""
    points = plan.points()
    rows: list[SweepRow | None] = [None] * len(points)
    failures: list[tuple[SweepPoint, str]] = []
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = [pool.submit(run_point, p) for p in points]
            for p, fut in zip(points, futures):
                try:
                    rows[p.index] = fut.result()
                except (ScenarioError, ConfigError, ValueError) as exc:
                    failures.append((p, str(exc)))
    else:
        for p in points:
            try:
                rows[p.index] = run_point(p)
            except (ScenarioError, ConfigError, ValueError) as exc:
                failures.append((p, str(exc)))
    return [r for r in rows if r is not None], failures


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    write_rows(path, SWEEP_COLUMNS, (astuple(r) for r in rows))


class SweepSchemaError(ValueError):
    """The sweep CSV is empty or has unexpected columns."""


def load_sweep_csv(path) -> list[SweepRow]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SweepSchemaError(f"{path}: empty sweep CSV") from None
        if header != SWEEP_COLUMNS:
            raise SweepSchemaError(f"{path}: unexpected columns {header}")
        rows = []
        for rec in reader:
            rows.append(SweepRow(
                plan=rec[0], area_w=float(rec[1]), area_h=float(rec[2]),
                n_total=int(rec[3]), n_class_a=int(rec[4]), axis=rec[5],
                axis_value=float(rec[6]), runs=int(rec[7]),
                bmk_eb_per_mb=float(rec[8]), coop_eb_per_mb=float(rec[9]),
                bmk_goodput_mbps=float(rec[10]), coop_goodput_mbps=float(rec[11]),
                gain=float(rec[12]),
            ))
    if not rows:
        raise SweepSchemaError(f"{path}: sweep CSV has no data rows")
    return rows


def summarize(rows: list[SweepRow]) -> tuple[str, dict[str, list[tuple[float, float]]]]:
    """Human summary per area plus two-column (axis_value, gain) plot data.

    Plot data is keyed by a label combining plan, area and class-A count.
    """
    blocks = []
    plot_data: dict[str, list[tuple[float, float]]] = {}
    areas = sorted({(r.area_w, r.area_h) for r in rows})
    overall_best: SweepRow | None = None
    for w, h in areas:
        sub = [r for r in rows if (r.area_w, r.area_h) == (w, h)]
        lines = [f"area {w:g}x{h:g} m:"]
        for ca in sorted({r.n_class_a for r in sub}):
            group = sorted(
                (r for r in sub if r.n_class_a == ca), key=lambda r: r.axis_value
            )
            label = f"{group[0].plan}_{w:g}x{h:g}_ca{ca}"
            plot_data[label] = [(r.axis_value, r.gain) for r in group]
            best = max(group, key=lambda r: r.gain)
            if overall_best is None or best.gain > overall_best.gain:
                overall_best = best
            lines.append(
                f"  class-A={ca}: gain over {group[0].axis} in "
                f"[{group[0].axis_value:g}, {group[-1].axis_value:g}]: "
                + ", ".join(f"{r.axis_value:g}->{100 * r.gain:.1f}%" for r in group)
            )
            lines.append(
                f"    max gain {100 * best.gain:.1f}% at {best.axis} = {best.axis_value:g}"
            )
        blocks.append("\n".join(lines))
    summary = "\n".join(blocks)
    if overall_best is not None:
        summary += (
            f"\noverall max gain: {100 * overall_best.gain:.1f}% at "
            f"{overall_best.axis} = {overall_best.axis_value:g} "
            f"(area {overall_best.area_w:g}x{overall_best.area_h:g}, "
            f"class-A={overall_best.n_class_a})"
        )
    return summary, plot_data


def max_gain(rows: list[SweepRow]) -> float:
    return max(r.gain for r in rows)
