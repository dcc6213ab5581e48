"""`tools/ab.py` on a throwaway git repository whose `bench/run.py` is a stub:
no simulation runs.  The stub reports a wall time from its side's
`src/speed.txt`, fails the seeds listed in `src/fail.txt` and logs each call."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"

STUB = '''
import argparse, json, os, sys
from pathlib import Path
src = Path(__file__).resolve().parent.parent / "src"
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
speed = float((src / "speed.txt").read_text())
with open(os.environ["AB_STUB_LOG"], "a") as fh:
    fh.write(f"{(src / 'side.txt').read_text().strip()} {args.workload} {args.seed} {args.seconds}\\n")
correct = args.seed not in (src / "fail.txt").read_text().split()
if not correct:
    print(f"check failed: seed {args.seed}", file=sys.stderr)
metrics = {"wall_s": speed * (1 + int(args.seed) / 100), "setup_s": 0.06 * speed,
           "peak_rss_mb": 20.0}
print(json.dumps({"correct": correct, "attempted": 1, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}))
sys.exit(0 if correct else 1)
'''


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _write_src(root, side, speed, fail):
    for name, text in (("side.txt", side), ("speed.txt", speed), ("fail.txt", fail)):
        (root / "src" / name).write_text(text + "\n")


@pytest.fixture
def repo(tmp_path, monkeypatch):
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / "bench").mkdir()
    (root / "bench" / "run.py").write_text(STUB)
    # the base fails seeds 11 and 13, the change (the working tree) 12 and 13
    _write_src(root, "base", "1.0", "11 13")
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "src"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    _write_src(root, "change", "0.5", "12 13")
    log = tmp_path / "calls.log"
    monkeypatch.setenv("AB_STUB_LOG", str(log))
    return root, log


def test_pairs_alternate_and_report_every_seed(ab, repo):
    root, log = repo
    report, code = ab.run_ab(root, "HEAD", ["w1", "w2"], 4, 10, 2.5, log=lambda line: None)
    # base first on even pair indices, each pair on a fresh seed, workload by workload
    calls = log.read_text().splitlines()
    assert calls == [f"{side} {w} {seed} 2.5" for w in ("w1", "w2")
                     for i, seed in enumerate(range(10, 14))
                     for side in (("base", "change") if i % 2 == 0 else ("change", "base"))]
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    assert list(report) == ["base", "change", "nproc", "python", "seconds", "seeds", "workloads"]
    assert report["base"] == {"rev": head, "name": "HEAD"}
    assert report["change"] == {"rev": "worktree", "head": head}
    assert report["seeds"] == [10, 11, 12, 13] and report["seconds"] == 2.5
    w = report["workloads"]["w1"]
    assert list(w) == ["pairs", "failed_base", "failed_change", "failed_both", "metrics"]
    assert [p["first"] for p in w["pairs"]] == ["base", "change", "base", "change"]
    # a check failing on one side, and on both: kept and reported, not dropped
    assert (w["failed_base"], w["failed_change"], w["failed_both"]) == ([11], [12], [13])
    assert [(p["base"]["correct"], p["change"]["correct"]) for p in w["pairs"]] == [
        (True, True), (False, True), (True, False), (False, False)]
    assert w["pairs"][3]["change"]["error"] == "check failed: seed 13"
    assert "error" not in w["pairs"][0]["change"]
    wall = w["metrics"]["wall_s"]
    assert list(wall) == ["pairs", "base", "change", "ratios", "median_ratio", "change_won"]
    assert wall["pairs"] == 4 and wall["change_won"] == 4
    assert wall["ratios"] == pytest.approx([0.5] * 4) and wall["median_ratio"] == pytest.approx(0.5)
    assert wall["base"] == pytest.approx({"median": 1.115, "q1": 1.1075, "q3": 1.1225})
    assert w["metrics"]["peak_rss_mb"]["change_won"] == 0  # equal is not a win
    # the change failed a seed the base passed
    assert code == 1
    # both sides were built from their own sources, each with the working tree's bench/
    build = root / ".bench_build"
    assert (build / head / "src" / "side.txt").read_text() == "base\n"
    assert (build / "worktree" / "src" / "side.txt").read_text() == "change\n"
    assert (build / head / "bench" / "run.py").read_text() == STUB


def test_main_writes_the_report_and_exits_0_when_the_change_fails_only_with_the_base(
        ab, repo, monkeypatch, tmp_path):
    root, _ = repo
    _write_src(root, "change", "0.5", "11")
    monkeypatch.setattr(ab, "ROOT", root)
    out = tmp_path / "BENCH_0.json"
    assert ab.main(["--base", "HEAD", "--workloads", "w", "--pairs", "2", "--seed0", "10",
                    "--seconds", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["workloads"]["w"]["failed_both"] == [11]
    assert report["workloads"]["w"]["metrics"]["setup_s"]["change_won"] == 2
