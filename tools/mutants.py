"""Mutation yardstick: each named source mutation must fail its tests.

    python3 tools/mutants.py             # every mutant
    python3 tools/mutants.py NAME ...    # only these

A mutant is one exact `old -> new` text replacement in one file under
`src/cesrsim`, with the tests expected to kill it.  For each mutant the tool
copies `src/`, `tests/`, `bench/`, `plans/` and `pyproject.toml` of the
checkout it sits in to a temporary directory, applies the replacement there
and runs `python3 -m pytest -x -q --hypothesis-seed=0` on those tests.  The
mutant is killed when pytest reports a failure (exit code 1).  A mutant
recorded as equivalent must survive; its reason says why no test can kill
it.  One line per mutant is printed, and the exit code is 1 if any mutant
survives, an equivalent one is killed, an old text no longer occurs exactly
once, or pytest ends with any other exit code (a collection or usage error).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "plans", "pyproject.toml")

PROPERTY = "tests/test_simcore.py::test_batched_drop_fast_path_matches_exact_per_packet_loop"
CONSERVATION = "tests/test_simcore.py::test_packet_conservation_per_source"
RNG = "tests/test_rng.py"
TRACE_ORACLE = "tests/test_output.py::test_trace_csv_writes_the_bytes_of_csv_writer_on_simulated_rows"
BENCHMARK_REFERENCE = "tests/test_simcore.py::test_benchmark_uplink_matches_plain_reference"
REFERENCE = "tests/test_simcore.py::test_simulator_matches_plain_reference"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no test can kill it


SIMCORE = "src/cesrsim/simcore.py"

MUTANTS = (
    # --- the short-range MAC and the wake of a blocked source
    Mutant(
        "pushed-wake-reused-for-any-time", SIMCORE,
        "if t == src.pushed_t and src.pushed_wake >= k:",
        "if src.pushed_wake >= k:",
        (PROPERTY,),
    ),
    Mutant(
        "hand-over-slots-counted-with-head-queued", SIMCORE,
        """                        head = defer_q.pop(0)[1]
                        waiting[head] = None
                        start_complete(head)
""",
        """                        head = defer_q[0][1]
                        waiting[head] = None
                        start_complete(head)
                        defer_q.pop(0)
""",
        (PROPERTY,),
    ),
    Mutant(
        "complete-start-without-unblock", SIMCORE,
        """                unblock(src, now)  # a queue slot just freed
            if nh < 0:
                charge, dur = beacon_charged, dur_beacon
            else:
                charge, dur = True, dur_data
            dur += slot * len(defer_q)""",
        """                pass
            if nh < 0:
                charge, dur = beacon_charged, dur_beacon
            else:
                charge, dur = True, dur_data
            dur += slot * len(defer_q)""",
        (PROPERTY,),
    ),
    Mutant(
        "per-node-defer-overwrites-first-wait", SIMCORE,
        # a cleared node that an earlier start covered again keeps its first wait
        "                            continue  # an earlier start here covers it: it keeps waiting\n",
        "                            waiting[j] = now\n                            continue\n",
        (PROPERTY,),
    ),
    Mutant(
        "no-retry-after-uncharged-frame", SIMCORE,
        "if c == 0 and waiting[j] is not None and not rx_count[j]:",
        "if False:",
        (PROPERTY,),
    ),
    Mutant(
        "wake-searched-past-the-end", SIMCORE,
        "                    k = (src.total_k if t >= duration\n",
        "                    k = (src.total_k if False\n",
        ("tests/test_simcore.py::test_block_that_cannot_end_before_the_run_does_finishes",),
    ),
    # --- the uplink booking of a source's own packet
    Mutant(
        "relay-taken-slot-drop-uncounted", SIMCORE,
        """                            # relayed packets of this source took the slot that freed
                            dropped_queue[node] += 1
""",
        """                            # relayed packets of this source took the slot that freed
""",
        (CONSERVATION, PROPERTY),
    ),
    Mutant(
        "lr-wake-at-newest-waiting-start", SIMCORE,
        "t = up_starts[node][0]",
        "t = up_starts[node][-1]",
        (PROPERTY,),
    ),
    Mutant(
        "relay-served-at-source-rate", SIMCORE,
        "end = up_end = start + svc_lr[sender]",
        "end = up_end = start + svc_lr[source]",
        ("tests/test_acceptance.py::test_criterion_5_gain_vs_traffic",),
    ),
    # --- the benchmark kernel, against the plain uplink reference and the trace oracle
    Mutant(
        "kernel-wake-at-newest-waiting-start", SIMCORE,
        "                t = starts[0]\n",
        "                t = starts[-1]\n",
        (BENCHMARK_REFERENCE,),
    ),
    Mutant(
        "kernel-end-of-run-drops-skipped", SIMCORE,
        "batched = src.total_k - src.next_k",
        "batched = 0",
        (BENCHMARK_REFERENCE,),
    ),
    Mutant(
        "kernel-trace-window-edge-off-by-one", SIMCORE,
        "for k in range(lo[i], hi)]",
        "for k in range(lo[i], hi + 1)]",
        (TRACE_ORACLE,),
    ),
    # --- the per-node trace tail cache, against rows from the routing state
    Mutant(
        "trace-tail-ignores-eq1-change", SIMCORE,
        "if last[1] != eq1 or last[0] != nh:",
        "if not last[2] or last[0] != nh:",
        (TRACE_ORACLE,),
    ),
    Mutant(
        "trace-tail-ignores-next-hop-change", SIMCORE,
        "if last[1] != eq1 or last[0] != nh:",
        "if last[1] != eq1:",
        (TRACE_ORACLE,),
    ),
    Mutant(
        "trace-tail-shared-across-nodes", SIMCORE,
        """        last = self._trace_tails[node]
        if last[1] != eq1 or last[0] != nh:
            last = self._trace_tails[node] = (""",
        """        last = self._trace_tails[0]
        if last[1] != eq1 or last[0] != nh:
            last = self._trace_tails[0] = (""",
        (TRACE_ORACLE,),
    ),
    # --- the end-of-run invariants: tests that check neither quantity
    Mutant(
        "sr-full-drop-uncounted", SIMCORE,
        """                        dropped_queue[node] += 1
                        full = "SR"
""",
        """                        full = "SR"
""",
        ("tests/test_simcore.py::test_goodput_caps_at_uplink_capacity",),
    ),
    Mutant(
        "ledger-skips-tx-credit", "src/cesrsim/energy.py",
        "        seconds[_TX] += end - start\n",
        "",
        (CONSERVATION,),
    ),
    Mutant(
        "uplink-books-unclipped-end", SIMCORE,
        "ledgers[node].book(_LR, start, duration)",
        "ledgers[node].book(_LR, start, end)",
        ("tests/test_simcore.py::test_goodput_caps_at_uplink_capacity",),
    ),
    Mutant(
        "finished-run-keeps-mac-handlers", SIMCORE,
        # a nested function that refers to the simulator, stored on it: a cycle
        "        ARRIVAL, SR_TXEND, BEACON = _K_ARRIVAL, _K_SR_TXEND, _K_BEACON\n",
        "        self._row = trace_row\n"
        "        ARRIVAL, SR_TXEND, BEACON = _K_ARRIVAL, _K_SR_TXEND, _K_BEACON\n",
        ("tests/test_simcore.py::test_finished_simulator_is_freed_without_the_cycle_collector",),
    ),
    # --- a long-range booking skipped as a whole: the airtime invariant
    Mutant(
        "kernel-skips-booking", SIMCORE,
        "if start < duration:  # book [start, end) as TX, IDLE since the last",
        "if False:",
        ("tests/test_simcore.py::test_generated_matches_cbr_schedule",),
    ),
    Mutant(
        "arrival-skips-booking", SIMCORE,
        "ledgers[node].book(_LR, start, end)",
        "pass",
        (CONSERVATION,),
    ),
    Mutant(
        "uplink-skips-booking", SIMCORE,
        "ledgers[sender].book(_LR, start, end)",
        "pass",
        ("tests/test_simcore.py::test_cooperative_relays_through_cheap_uplinks",),
    ),
    # --- the per-node deferral count and the relay enqueue
    Mutant(
        "relay-enqueue-skips-first-frame-start", SIMCORE,
        """                    if len(q) == 1:  # a node with frames queued is on the air or deferred
                        try_start(nh)""",
        """                    if False:
                        try_start(nh)""",
        (PROPERTY,),
    ),
    Mutant(
        "per-node-start-keeps-deferred-count", SIMCORE,
        """                        waiting[j] = None
                        deferred -= 1
""",
        """                        waiting[j] = None
""",
        (REFERENCE,),
    ),
    Mutant(
        "cleared-retry-without-view-check", SIMCORE,
        """                        if rx_count[j] or uncharged_count[j]:
                            continue  # an earlier start here covers it: it keeps waiting
""",
        "",
        (PROPERTY,),
    ),
    # --- the cooperative reference simulator
    Mutant(
        "uplink-quota-off-by-one", SIMCORE,
        """                if len(starts) >= up_cap:
                    dropped_queue[source] += 1""",
        """                if len(starts) > up_cap:
                    dropped_queue[source] += 1""",
        (REFERENCE,),
    ),
    Mutant(
        "rx-credit-dropped", SIMCORE,
        "sr_rx_s[j] += now - rx_since[j]",
        "pass",
        (REFERENCE,),
    ),
    Mutant(
        "contention-slot-counted-twice", SIMCORE,
        "dur += slot * deferred",
        "dur += 2 * slot * deferred",
        (REFERENCE,),
    ),
    # --- rng.py against numpy
    Mutant(
        "seed-no-zero-padding", "src/cesrsim/rng.py",
        "run += [0] * (_POOL_SIZE - len(run))",
        "pass",
        (RNG,),
    ),
    Mutant(
        "pcg-increment-even", "src/cesrsim/rng.py",
        "self.inc = inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128",
        "self.inc = inc = (((i_hi << 64) | i_lo) << 1) & _MASK128",
        (RNG,),
    ),
    Mutant(
        "ziggurat-tail-sign-from-r", "src/cesrsim/rng.py",
        "return -(_R + xx) if (rabs >> 8) & 1 else _R + xx",
        "return -(_R + xx) if r & 1 else _R + xx",
        (RNG,),
    ),
    Mutant(
        "ziggurat-wedge-bounds-swapped", "src/cesrsim/rng.py",
        "(FI[idx - 1] - FI[idx]) * self.random() + FI[idx]",
        "(FI[idx] - FI[idx - 1]) * self.random() + FI[idx - 1]",
        (RNG,),
    ),
    # --- equivalent
    Mutant(
        "sr-wake-strictly-after-expiry", SIMCORE,
        "t = routing[node].earliest_expiry(now)",
        "t = math.nextafter(routing[node].earliest_expiry(now), math.inf)",
        ("tests/test_simcore.py",),
        equivalent=(
            "best_neighbor keeps an entry live through its expiry instant, so an "
            "arrival exactly at the expiry still meets the short-range decision "
            "and the full queue, and is dropped either way"
        ),
    ),
)


def _copy_tree(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dst / name, ignore=ignore)
        else:
            shutil.copy2(src, dst / name)


def run_mutant(m: Mutant) -> str:
    """'killed', 'survived', 'stale' (old text not found exactly once) or
    'error: ...' for any other pytest exit code."""
    text = (ROOT / m.path).read_text()
    if text.count(m.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        (tmp / m.path).write_text(text.replace(m.old, m.new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tmp / "src"), env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *m.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {proc.returncode}: {' '.join(tail)}"


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else list(MUTANTS)
    bad = 0
    for m in chosen:
        t0 = perf_counter()
        result = run_mutant(m)
        ok = result == ("survived" if m.equivalent else "killed")
        bad += not ok
        note = f" (equivalent: {m.equivalent})" if m.equivalent else ""
        print(f"{m.name}: {result}{'' if ok else ' [UNEXPECTED]'}{note} "
              f"[{perf_counter() - t0:.1f} s]", flush=True)
    to_kill = sum(1 for m in chosen if not m.equivalent)
    print(f"{len(chosen) - bad} of {len(chosen)} as expected "
          f"({to_kill} to kill, {len(chosen) - to_kill} equivalent)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
