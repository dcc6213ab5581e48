"""Command-line entry point.

Subcommands:
  generate  sample a connected scenario and save it
  run       execute one config on one scenario (benchmark, cooperative or both)
  sweep     execute an experiment plan and write sweep.csv
  report    summarize a sweep.csv and emit plot data files

Exit codes: 0 success, 1 runtime failure (including partial sweep failures
and a run that breaks packet conservation or time in state),
2 invalid input (config, plan, scenario file, sweep CSV) or infeasible scenario.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, Mode, SimConfig, load_config
from .metrics import ZeroDeliveryError, energy_efficiency, gain
from .output import (
    ensure_dir,
    write_aggregate_csv,
    write_ledger_csv,
    write_mobility_trace_csv,
    write_node_csv,
    write_report_csv,
    write_trace_csv,
)
from .plans import (
    SweepSchemaError,
    load_plan,
    load_sweep_csv,
    run_sweep,
    summarize,
    write_sweep_csv,
)
from .scenario import Area, ScenarioError, generate_scenario, load_scenario, save_scenario
from .simcore import InvariantError, run

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2


class _ChunkedTrace(list):
    """The trace list of one run, which writes the rows it is given to the
    run's CSV through write_trace_csv and then clears itself.  A run hands
    over its rows in sorted windows of at most TRACE_CHUNK_ROWS, so a traced
    run's memory does not grow with its length.  The first write makes the
    file; flush() at the end makes it if no row came."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = path
        self.started = False  # the file and its header are written

    def extend(self, rows) -> None:
        list.extend(self, rows)
        self.flush()

    def flush(self) -> None:
        write_trace_csv(self, self.path, header=not self.started)
        self.started = True
        self.clear()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesrsim",
        description="Energy-saving cooperative routing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a connected scenario")
    p.add_argument("--area", nargs=2, type=float, required=True, metavar=("W", "H"))
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--class-a", type=int, required=True)
    p.add_argument("--tx-range", type=float, default=SimConfig.tx_range)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-attempts", type=int, default=10_000)
    p.add_argument("--out", required=True, help="scenario file to write")

    p = sub.add_parser("run", help="execute one config on one scenario")
    p.add_argument("--config", required=True, help="YAML run configuration")
    p.add_argument("--scenario", required=True, help="scenario file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--trace", action="store_true",
                   help="per-packet routing decision trace: one row per packet generated "
                        "or relayed")
    p.add_argument("--mobility-trace", action="store_true",
                   help="node positions at every mobility update")

    p = sub.add_parser("sweep", help="execute an experiment plan")
    p.add_argument("--plan", required=True, help="YAML experiment plan")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="worker processes (results stay in canonical order)")

    p = sub.add_parser("report", help="summarize a sweep.csv")
    p.add_argument("--sweep", required=True, help="sweep.csv from the sweep command")
    p.add_argument("--out", default=None, help="directory for plot data files")

    return parser


def cmd_generate(args) -> int:
    scenario = generate_scenario(
        Area(args.area[0], args.area[1]),
        args.nodes,
        args.class_a,
        args.tx_range,
        seed=args.seed,
        max_attempts=args.max_attempts,
    )
    save_scenario(scenario, args.out)
    print(
        f"wrote {args.out}: {scenario.n_nodes} nodes "
        f"({scenario.n_class_a} class A) in {scenario.attempts} attempt(s)"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    label = Path(args.config).stem
    if not label.isascii():
        # report.csv is ASCII; a failure there would come after every run
        raise ConfigError(f"config file name must be ASCII, got {label!r}")
    cfg, both = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    scenario = load_scenario(args.scenario)
    out = Path(args.out)
    ensure_dir(out)

    modes = [Mode.BENCHMARK, Mode.COOPERATIVE] if both else [cfg.mode]
    reports = []
    for mode in modes:
        mcfg = replace(cfg, mode=mode)
        mode_dir = out / mode.value
        ensure_dir(mode_dir)
        stats = []
        for run_index in range(mcfg.runs):
            trace = (_ChunkedTrace(mode_dir / f"trace_run{run_index}.csv")
                     if args.trace else None)
            mtrace = [] if args.mobility_trace else None
            try:
                rs = run(mcfg, scenario, run_index, trace=trace, mobility_trace=mtrace)
            except BaseException:
                if trace is not None and trace.started:
                    trace.path.unlink(missing_ok=True)  # a failed run leaves no trace file
                raise
            stats.append(rs)
            write_ledger_csv(rs, mcfg.power_profiles, mode_dir / f"ledger_run{run_index}.csv")
            if trace is not None:
                trace.flush()
            if mtrace is not None:
                write_mobility_trace_csv(mtrace, mode_dir / f"mobility_run{run_index}.csv")
        write_node_csv(stats, mode_dir / "nodes.csv")
        reports.append(energy_efficiency(stats))
        write_aggregate_csv(reports[-1], mode_dir / "aggregate.csv")

    g = gain(reports[0], reports[1]) if both else None
    write_report_csv(out / "report.csv", label, reports, g)
    for rep in reports:
        print(f"{rep.mode}: {rep.eb_per_mb:.4f} J/Mb, {rep.goodput_mbps:.3f} Mb/s over {rep.runs} run(s)")
    if g is not None:
        print(f"gain over benchmark: {100 * g:.1f}%")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    plan = load_plan(args.plan)
    if args.seed is not None:
        plan = replace(plan, base=replace(plan.base, master_seed=args.seed))
    out = Path(args.out)
    ensure_dir(out)
    rows, failures = run_sweep(plan, parallel=args.parallel)
    if rows:
        write_sweep_csv(rows, out / "sweep.csv")
        summary, _ = summarize(rows)
        print(summary)
        print(f"wrote {out / 'sweep.csv'} ({len(rows)} point(s))")
    if failures:
        print(f"{len(failures)} of {len(rows) + len(failures)} point(s) failed:", file=sys.stderr)
        for point, msg in failures:
            print(
                f"  point {point.index} (area {point.area[0]:g}x{point.area[1]:g}, "
                f"class-A={point.n_class_a}, {plan.axis}={point.value:g}): {msg}",
                file=sys.stderr,
            )
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_report(args) -> int:
    rows = load_sweep_csv(args.sweep)
    summary, plot_data = summarize(rows)
    print(summary)
    if args.out is not None:
        out = Path(args.out)
        ensure_dir(out)
        for label, points in plot_data.items():
            path = out / f"plot_{label}.dat"
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write("# axis_value gain\n")
                for x, g in points:
                    fh.write(f"{x!r} {g!r}\n")
            print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ScenarioError, SweepSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ZeroDeliveryError, ValueError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
