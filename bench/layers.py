"""Per-layer counts and times for a traced benchmark round.

`Tracer` wraps the calls into each cesrsim module at the names the calling
module looks up at run time, and restores the originals on exit. Nothing in
cesrsim is edited. A name a later version of cesrsim no longer has is
reported on stderr and its metrics stay at 0.

Spans are not nested within a layer: a routing call made from inside another
routing call is counted and timed with the outer one. `simcore.self_s` is
the time inside `simcore.run` less the time inside the energy, routing,
mobility and heap calls it makes, so it covers the MAC, arrival and dispatch
code of simcore itself.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

import cesrsim.cli
import cesrsim.energy
import cesrsim.mobility
import cesrsim.plans
import cesrsim.routing
import cesrsim.simcore

# Event kinds by the name of their constant in cesrsim.simcore (_K_<NAME>).
EVENT_KINDS = ("arrival", "sr_txend", "lr_txend", "beacon", "recheck", "sweep", "mobility")

# (name, unit) of every per-layer metric, in the order they are printed.
METRICS = (
    ("scenario.calls", "count"),
    ("scenario.attempts", "count"),
    ("scenario.accept_ratio", "ratio"),
    ("scenario.generate_s", "s"),
    ("plans.parse_s", "s"),
    ("plans.point_s", "s"),
    ("simcore.bmk_run_s", "s"),
    ("simcore.coop_run_s", "s"),
    ("simcore.self_s", "s"),
    ("simcore.heap_s", "s"),
    ("simcore.events", "count"),
    *((f"simcore.events.{kind}", "count") for kind in EVENT_KINDS),
    ("simcore.heap_pushes", "count"),
    ("simcore.batched_share", "ratio"),
    ("energy.transitions", "count"),
    ("energy.transition_s", "s"),
    ("routing.decisions", "count"),
    ("routing.decision_s", "s"),
    ("routing.beacons", "count"),
    ("routing.expires", "count"),
    ("routing.beacon_s", "s"),
    ("mobility.steps", "count"),
    ("mobility.step_s", "s"),
    ("metrics.aggregate_s", "s"),
    ("output.bytes", "bytes"),
    ("output.write_s", "s"),
    ("trace.wall_s", "s"),
)
COUNTS = tuple(name for name, unit in METRICS if unit in ("count", "bytes"))

# Output writers, as the CLI module names them.
WRITERS = (
    "write_aggregate_csv", "write_ledger_csv", "write_mobility_trace_csv",
    "write_node_csv", "write_report_csv", "write_sweep_csv", "write_trace_csv",
)


class Tracer:
    """Context manager that counts and times calls into each module."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        # Accumulators the hot wrappers close over; reset() zeroes them in place.
        self._push = [0.0, 0]         # seconds, calls
        self._pop = [0.0]             # seconds
        self._transition = [0.0, 0]   # seconds, calls
        self._kinds = [0] * 16        # heap pops by event kind value
        self.reset()

    def reset(self) -> None:
        """Start counting a new round."""
        self.t: dict[str, float] = {}  # seconds by key
        self.n: dict[str, int] = {}    # counts by key
        self._push[:] = [0.0, 0]
        self._pop[:] = [0.0]
        self._transition[:] = [0.0, 0]
        self._kinds[:] = [0] * len(self._kinds)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric of the round since reset(), by name."""
        t, n = self.t, self.n
        kinds = {name: self._kinds[v] for name in EVENT_KINDS
                 if (v := getattr(cesrsim.simcore, f"_K_{name.upper()}", None)) is not None}
        heap_s = self._push[0] + self._pop[0]
        run_s = t.get("run.benchmark", 0.0) + t.get("run.cooperative", 0.0)
        inner_s = (self._transition[0] + t.get("decision", 0.0) + t.get("beacon", 0.0)
                   + t.get("step", 0.0) + heap_s)
        generated = n.get("generated", 0)
        attempts = n.get("scenario.attempts", 0)
        m = {
            "scenario.calls": n.get("scenario.calls", 0),
            "scenario.attempts": attempts,
            "scenario.accept_ratio": n.get("scenario.calls", 0) / attempts if attempts else 0.0,
            "scenario.generate_s": t.get("generate", 0.0),
            "plans.parse_s": t.get("parse", 0.0),
            "plans.point_s": t.get("point", 0.0),
            "simcore.bmk_run_s": t.get("run.benchmark", 0.0),
            "simcore.coop_run_s": t.get("run.cooperative", 0.0),
            "simcore.self_s": run_s - inner_s,
            "simcore.heap_s": heap_s,
            "simcore.events": sum(self._kinds),
            **{f"simcore.events.{name}": kinds.get(name, 0) for name in EVENT_KINDS},
            "simcore.heap_pushes": self._push[1],
            "simcore.batched_share": 1.0 - kinds.get("arrival", 0) / generated if generated else 0.0,
            "energy.transitions": self._transition[1],
            "energy.transition_s": self._transition[0],
            "routing.decisions": n.get("routing.decisions", 0),
            "routing.decision_s": t.get("decision", 0.0),
            "routing.beacons": n.get("routing.beacons", 0),
            "routing.expires": n.get("routing.expires", 0),
            "routing.beacon_s": t.get("beacon", 0.0),
            "mobility.steps": n.get("mobility.steps", 0),
            "mobility.step_s": t.get("step", 0.0),
            "metrics.aggregate_s": t.get("metrics", 0.0),
            "output.bytes": n.get("output.bytes", 0),
            "output.write_s": t.get("write", 0.0),
            "trace.wall_s": wall_s,
        }
        assert list(m) == [name for name, _ in METRICS]
        return m

    # --- patching ------------------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        orig = getattr(owner, name, None)
        if orig is None:
            print(f"trace: {owner.__name__}.{name} not found; its metrics read 0",
                  file=sys.stderr)
            return
        self._patches.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def __enter__(self) -> "Tracer":
        routing = cesrsim.routing.NodeRoutingState
        for owner in (cesrsim.plans, cesrsim.cli):
            self._patch(owner, "run", self._sim_run)
            self._patch(owner, "generate_scenario", self._generate)
            self._patch(owner, "energy_efficiency", self._span("metrics"))
            self._patch(owner, "gain", self._span("metrics"))
        self._patch(cesrsim.plans, "run_point", self._span("point"))
        self._patch(cesrsim.cli, "load_plan", self._span("parse"))
        self._patch(cesrsim.cli, "load_config", self._span("parse"))
        for name in WRITERS:
            self._patch(cesrsim.cli, name, self._writer)
        self._patch(cesrsim.simcore, "heappush", self._heappush)
        self._patch(cesrsim.simcore, "heappop", self._heappop)
        self._patch(cesrsim.energy.EnergyLedger, "transition_state", self._transition_state)
        depth = [0]  # routing calls in progress, so nested ones are not timed twice
        for name, key, counter in (
            ("forward_decision", "decision", "routing.decisions"),
            ("best_neighbor", "decision", None),
            ("earliest_expiry", "decision", None),
            ("handle_beacon", "beacon", "routing.beacons"),
            ("make_beacon", "beacon", None),
            ("expire", "beacon", "routing.expires"),
        ):
            self._patch(routing, name, self._routing(key, counter, depth))
        self._patch(cesrsim.mobility, "advance_all", self._span("step"))
        self._patch(cesrsim.mobility, "gm_step", self._count("mobility.steps"))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # --- wrappers --------------------------------------------------------------

    def _add(self, key: str, dt: float) -> None:
        self.t[key] = self.t.get(key, 0.0) + dt

    def _inc(self, key: str, k: int = 1) -> None:
        self.n[key] = self.n.get(key, 0) + k

    def _span(self, key):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._add(key, perf_counter() - t0)
            return wrapper
        return make

    def _count(self, key):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._inc(key)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _routing(self, key, counter, depth):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._add(key, perf_counter() - t0)
                    depth[0] = 0
                    if counter:
                        self._inc(counter)
            return wrapper
        return make

    def _sim_run(self, fn):
        @functools.wraps(fn)
        def wrapper(cfg, *args, **kwargs):
            t0 = perf_counter()
            rs = fn(cfg, *args, **kwargs)
            self._add(f"run.{cfg.mode.value}", perf_counter() - t0)
            self._inc("generated", sum(rs.generated))
            return rs
        return wrapper

    def _generate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            scenario = fn(*args, **kwargs)
            self._add("generate", perf_counter() - t0)
            self._inc("scenario.calls")
            self._inc("scenario.attempts", scenario.attempts)
            return scenario
        return wrapper

    def _writer(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            fn(*args, **kwargs)
            self._add("write", perf_counter() - t0)
            path = next(a for a in args if isinstance(a, (str, os.PathLike)))
            self._inc("output.bytes", os.path.getsize(path))
        return wrapper

    # The three wrappers below run hundreds of thousands of times per round,
    # so they add to lists they close over instead of calling the helpers.

    def _heappush(self, fn):
        acc = self._push

        def heappush(heap, item):
            t0 = perf_counter()
            fn(heap, item)
            acc[0] += perf_counter() - t0
            acc[1] += 1
        return heappush

    def _heappop(self, fn):
        acc, kinds = self._pop, self._kinds

        def heappop(heap):
            t0 = perf_counter()
            item = fn(heap)
            acc[0] += perf_counter() - t0
            kinds[item[1]] += 1
            return item
        return heappop

    def _transition_state(self, fn):
        acc = self._transition

        def transition_state(ledger, iface, new_state, now):
            t0 = perf_counter()
            fn(ledger, iface, new_state, now)
            acc[0] += perf_counter() - t0
            acc[1] += 1
        return transition_state
