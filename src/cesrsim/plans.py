"""Experiment plans: axis sweeps with paired benchmark/cooperative runs.

A plan expands into points (area x class-A count x axis value).  Every
point runs R paired simulations: for each run index a fresh connected
scenario is generated from a seed derived from (master_seed, point, run),
and both modes execute on that identical scenario with the identical
per-run seed, so gains always compare like with like.
"""

from __future__ import annotations

import csv
import io
from contextlib import ExitStack
from dataclasses import astuple, dataclass, fields, replace
from functools import partial
from itertools import product
from typing import get_type_hints

from .config import ConfigError, Mode, SimConfig, load_yaml, parse_config, _check_keys, _is_int
from .metrics import energy_efficiency, gain
from .output import write_rows
from .scenario import Area, ScenarioError, generate_scenario, is_finite_number, read_text
from .simcore import InvariantError, run

AXES = ("node_count", "cbr_rate", "mean_speed")

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

    def points(self) -> list["SweepPoint"]:
        grid = product(enumerate(self.areas), enumerate(self.class_a_counts), self.values)
        return [SweepPoint(self, idx, ai, area, ci, ca, v)
                for idx, ((ai, area), (ci, ca), v) in enumerate(grid)]


@dataclass(frozen=True)
class SweepPoint:
    plan: ExperimentPlan
    index: int
    area_index: int
    area: tuple[float, float]
    ca_index: int
    n_class_a: int
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
            # speed_stddev None rescales with the mean
            mobility = replace(cfg.mobility, mean_speed=self.value, speed_stddev=None)
            cfg = replace(cfg, mobility=mobility)
        return cfg

    def scenario_seed(self, run_index: int) -> int:
        # imported at the first draw, so commands that draw nothing never load rng.py
        from .rng import SeedSequence

        # deliberately independent of the axis value: every point along the
        # axis sees the same scenarios, so trends are paired, not confounded
        # by topology variance (node_count sweeps redraw positions anyway)
        ss = SeedSequence(self.plan.base.master_seed,
                          spawn_key=(self.area_index, self.ca_index, run_index))
        hi, lo = ss.generate_state(2)
        return (hi << 32) | lo


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


SWEEP_COLUMNS = [f.name for f in fields(SweepRow)]
# the type each sweep.csv cell is read back as, in column order
_SWEEP_TYPES = [get_type_hints(SweepRow)[name] for name in SWEEP_COLUMNS]


def load_plan(path) -> ExperimentPlan:
    return parse_plan(load_yaml(path))


def parse_plan(data: dict) -> ExperimentPlan:
    if not isinstance(data, dict):
        raise ConfigError("plan file must contain a mapping")
    _check_keys(data, _PLAN_KEYS, "plan")
    cfg_data = data.get("config") or {}
    if not isinstance(cfg_data, dict):
        raise ConfigError(f"plan config must be a mapping, got {cfg_data!r}")
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
    # sweeps always pair the two modes, so default the config mode to "both"
    base, both = parse_config({"mode": "both", **cfg_data})
    if not both:
        # a plan fixing a single mode is a typo: gains need paired runs
        raise ConfigError('plan config must use mode: "both" (or omit mode)')
    if axis not in AXES:
        raise ConfigError(f"axis must be one of {AXES}, got {axis!r}")
    if axis == "mean_speed" and base.mobility is None:
        raise ConfigError("a mean_speed sweep needs mobility parameters in the base config")
    plan = ExperimentPlan(
        name=_check_plan_name(str(data["name"])), axis=axis,
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


def _check_plan_name(name: str) -> str:
    """A plan name goes into sweep.csv, which is ASCII, and into the names of
    report's plot files; a sweep checks it before its first point."""
    if not name.isascii() or any(c in name for c in "/\\\0"):
        raise ConfigError(f"plan name must be ASCII without '/', '\\' or NUL, got {name!r}")
    return name


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
    bmk_cfg = replace(cfg, mode=Mode.BENCHMARK)
    coop_cfg = replace(cfg, mode=Mode.COOPERATIVE)
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
        gain=gain(bmk_rep, coop_rep),
    )


def run_sweep(
    plan: ExperimentPlan, parallel: int = 1
) -> tuple[list[SweepRow], list[tuple[SweepPoint, str]]]:
    """Run every point; returns (rows, failures) in canonical point order."""
    points = plan.points()
    rows: list[SweepRow] = []
    failures: list[tuple[SweepPoint, str]] = []
    # the pool starts all its workers at the first submit
    workers = min(parallel, len(points))
    with ExitStack() as stack:
        # one zero-argument callable per point that returns its row
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # only --parallel loads the pool

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = [pool.submit(run_point, p).result for p in points]
        else:
            results = [partial(run_point, p) for p in points]
        for p, result in zip(points, results):
            try:
                rows.append(result())
            except (ScenarioError, ValueError, InvariantError) as exc:
                failures.append((p, str(exc)))
    return rows, failures


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    write_rows(path, SWEEP_COLUMNS, (astuple(r) for r in rows))


class SweepSchemaError(ValueError):
    """The sweep CSV is empty, has unexpected columns or has a malformed row."""


def load_sweep_csv(path) -> list[SweepRow]:
    with io.StringIO(read_text(path, SweepSchemaError), newline="") as fh:
        reader = csv.reader(fh)
        rows = []
        try:
            header = next(reader, None)
            if header is None:
                raise SweepSchemaError(f"{path}: empty sweep CSV")
            if header != SWEEP_COLUMNS:
                raise SweepSchemaError(f"{path}: unexpected columns {header}")
            for rec in reader:
                if len(rec) != len(SWEEP_COLUMNS):
                    raise SweepSchemaError(f"{path} line {reader.line_num}: "
                                           f"{len(rec)} cells, want {len(SWEEP_COLUMNS)}")
                try:
                    rows.append(SweepRow(*(typ(cell) for typ, cell in zip(_SWEEP_TYPES, rec))))
                    _check_plan_name(rows[-1].plan)
                except ValueError as exc:
                    raise SweepSchemaError(f"{path} line {reader.line_num}: {exc}") from None
        except csv.Error as exc:  # e.g. a cell over the csv module's field limit
            raise SweepSchemaError(f"{path} line {reader.line_num}: {exc}") from None
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
