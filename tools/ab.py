"""Paired A/B runs of the benchmark: a base revision against the working tree.

    python3 tools/ab.py --base REV --workloads W,... --pairs N --seed0 S \\
        --seconds X --out BENCH_<n>.json

Both sides are built under the git-ignored `.bench_build/` of the checkout
this file sits in: the base in `.bench_build/<commit>/` from `git archive REV
src`, the change in `.bench_build/worktree/` from the working tree's `src/`.
Each gets a copy of the working tree's `bench/`, so both run the same
workloads and checks.  For each workload, pair i runs

    python3 bench/run.py --workload W --seed S+i --seconds X --trace 0

once on each side, one process at a time, with PYTHONDONTWRITEBYTECODE=1 so
that each side's `setup_s` compiles its own sources.  The base runs first on
even i and the change first on odd i.

The output is plain JSON with a fixed key order: both revisions, `nproc`, the
Python version, the seconds per run and the seeds, then per workload every
pair (which side ran first, and for each side `correct` and its `wall_s`,
`setup_s` and `peak_rss_mb`), the seeds whose checks failed on the base side
only, the change side only and both sides, and for each metric both sides'
median and quartiles over the pairs where both sides printed it, each pair's
change/base ratio, their median and the pairs the change won (a lower
value).  A pair whose check fails is kept, not dropped, and reported.  The
exit code is 1 when a change-side run fails or prints no result where the
base side's passed, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("base", "change")


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=True).stdout


def build(root: Path, base_rev: str | None) -> Path:
    """A fresh `.bench_build/<commit or worktree>/` with `src/` of base_rev
    (the working tree's when None) and the working tree's `bench/`."""
    ignore = shutil.ignore_patterns("__pycache__")
    name = "worktree" if base_rev is None else base_rev
    side = root / ".bench_build" / name
    shutil.rmtree(side, ignore_errors=True)
    side.mkdir(parents=True)
    if base_rev is None:
        shutil.copytree(root / "src", side / "src", ignore=ignore)
    else:
        with tarfile.open(fileobj=io.BytesIO(_git(root, "archive", base_rev, "src"))) as tar:
            tar.extractall(side, filter="data")
    shutil.copytree(root / "bench", side / "bench", ignore=ignore)
    return side


def run_side(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py process: `correct` and the metrics it printed, with
    the first stderr line as `error` when it is not correct."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # bench/run.py imports the side's own src/
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True, env=env,
    )
    try:
        printed = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        printed = {}
    result = {"correct": proc.returncode == 0 and printed.get("correct") is True}
    for name in METRICS:
        if name in printed.get("metrics", {}):
            result[name] = printed["metrics"][name]["value"]
    if not result["correct"]:
        lines = proc.stderr.strip().splitlines()
        result["error"] = lines[0] if lines else f"exit code {proc.returncode}, no stderr"
    return result


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Failed seeds by side and, per metric, both sides' spread over the
    pairs where both printed it, the change/base ratios and pairs won."""
    out = {}
    for label, test in (("failed_base", lambda b, c: not b and c),
                        ("failed_change", lambda b, c: b and not c),
                        ("failed_both", lambda b, c: not b and not c)):
        out[label] = [p["seed"] for p in pairs
                      if test(p["base"]["correct"], p["change"]["correct"])]
    metrics = {}
    for name in METRICS:
        both = [(p["base"][name], p["change"][name]) for p in pairs
                if name in p["base"] and name in p["change"]]
        if not both:
            continue
        ratios = [c / b for b, c in both]
        metrics[name] = {
            "pairs": len(both),
            "base": _spread([b for b, _ in both]),
            "change": _spread([c for _, c in both]),
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "change_won": sum(c < b for b, c in both),
        }
    out["metrics"] = metrics
    return out


def run_ab(root: Path, base: str, workloads: list[str], pairs: int, seed0: int,
           seconds: float, log=print) -> tuple[dict, int]:
    """Every pair of every workload; returns (the report, the exit code)."""
    base_rev = _git(root, "rev-parse", "--verify", f"{base}^{{commit}}").decode().strip()
    sides = {"base": build(root, base_rev), "change": build(root, None)}
    seeds = [seed0 + i for i in range(pairs)]
    report = {
        "base": {"rev": base_rev, "name": base},
        "change": {"rev": "worktree", "head": _git(root, "rev-parse", "HEAD").decode().strip()},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        done = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(sides[side], workload, seed, seconds)
            pair = {key: pair[key] for key in ("seed", "first", *SIDES)}
            done.append(pair)
            log(f"{workload} pair {i} (seed {seed}, {order[0]} first): " + ", ".join(
                f"{side} {pair[side].get('wall_s', 'no result')} s"
                f"{'' if pair[side]['correct'] else ' (check failed)'}" for side in SIDES))
        report["workloads"][workload] = {"pairs": done, **summarize(done)}
    regressed = any(w["failed_change"] for w in report["workloads"].values())
    return report, 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True, help="seed of pair 0; pair i gets seed0 + i")
    parser.add_argument("--seconds", type=float, required=True, help="seconds per bench/run.py run")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    report, code = run_ab(ROOT, args.base, args.workloads.split(","), args.pairs, args.seed0,
                          args.seconds, log=lambda line: print(line, file=sys.stderr, flush=True))
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
