"""cesrsim benchmark: one workload, end to end or traced, in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; cesrsim is imported from its src/. The
workload's inputs are written from the master seed N, then whole rounds of
the workload run until S seconds have passed. Each round's outputs are
checked; the checks are not timed. The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts the CLI commands run and `failed` those that exited
non-zero. With --trace 0 the metrics are the end-to-end ones: `wall_s`, the
median wall time of a round; `setup_s`, the median over fresh processes, one
after each round, of the time to import cesrsim and load the workload's
plan or config; and
`peak_rss_mb`, the peak resident memory of this process. With --trace 1
they are the per-layer metrics of layers.py. The exit code is 0 only when
every check passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Run a fresh process the way a user's `cesrsim` command starts: import the
# CLI, then load and validate the workload's plan or config.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cesrsim.cli
if sys.argv[2] == "plan":
    cesrsim.cli.load_plan(sys.argv[3])
else:
    cesrsim.cli.load_config(sys.argv[3])
print(repr(time.perf_counter() - t0))
"""


def _setup_seconds(kind: str, path: Path) -> float:
    """Seconds a fresh process takes to import the CLI and load the file."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), kind, str(path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _digest(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def _run_round(commands, main) -> tuple[float, int, str]:
    """Run one round's CLI commands; returns (seconds, failures, their stderr)."""
    sink, errors = io.StringIO(), io.StringIO()
    failed = 0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        t0 = perf_counter()
        for argv in commands:
            failed += main(argv) != 0
        dt = perf_counter() - t0
    return dt, failed, errors.getvalue()


def measure(workload, workdir: Path, seed: int, seconds: float, traced: bool) -> tuple[dict, int, int, list[str]]:
    """Run whole rounds for `seconds`, check them, and return
    (metrics, attempted, failed, check messages)."""
    import cesrsim.cli
    from layers import COUNTS, METRICS, Tracer
    from workloads import Recorder

    (setup_kind, setup_path), commands = workload.prepare(workdir, seed)
    setups: list[float] = []
    if not traced:
        # the first fresh process compiles the modules' bytecode; untimed
        _setup_seconds(setup_kind, setup_path)

    errs: list[str] = []
    walls: list[float] = []
    layer_rounds: list[dict] = []
    digests = None
    attempted = failed = 0
    tracer = Tracer() if traced else contextlib.nullcontext()
    start = perf_counter()
    with Recorder() as recorder, tracer:
        while True:
            recorder.runs.clear()
            if traced:
                tracer.reset()
            dt, bad, stderr = _run_round(commands, cesrsim.cli.main)
            attempted += len(commands)
            failed += bad
            if bad:
                errs.append(f"round {len(walls) + 1}: {bad} command(s) failed: {stderr.strip()}")
                break
            walls.append(dt)
            if traced:
                layer_rounds.append(tracer.metrics(dt))
            # reruns on the same inputs must write byte-identical files
            d = _digest(workdir / "out")
            if digests is None:
                digests = d
            elif d != digests:
                errs.append(f"round {len(walls)} wrote different files from round 1")
            if not traced:
                # one set-up per round, so that set-up is sampled across the
                # same stretch of time as the rounds
                setups.append(_setup_seconds(setup_kind, setup_path))
            if perf_counter() - start >= seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not bad:
        errs += workload.check(workdir, recorder.runs)
    metrics = {}
    if traced and layer_rounds:
        for name, unit in METRICS:
            values = [r[name] for r in layer_rounds]
            if name in COUNTS:
                if len(set(values)) > 1:
                    errs.append(f"{name} differs between rounds: {values}")
                metrics[name] = {"value": values[0], "unit": unit}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    elif walls:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return metrics, attempted, failed, errs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cesrsim" / "__init__.py").is_file():
        print(f"error: no cesrsim sources at {SRC}; run from a cesrsim checkout",
              file=sys.stderr)
        return 2
    # one process, one compute thread: keep numpy's BLAS pool from starting
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import cesrsim
    if Path(cesrsim.__file__).resolve().parent != SRC / "cesrsim":
        print(f"error: imported cesrsim from {cesrsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        metrics, attempted, failed, errs = measure(
            workload, workdir, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    for msg in errs[:50]:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = not errs
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
