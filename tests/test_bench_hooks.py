"""The benchmark's per-layer tracer must find every cesrsim function it wraps.

`bench/layers.py` reports a hook whose target is gone on stderr and leaves its
metrics at 0, so renaming a function in `src/` would otherwise zero a metric
without failing anything.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
# The benchmark still hooks this deleted method; its metric reads 0.
KNOWN_MISSING = "trace: NodeRoutingState.expire not found"


def test_benchmark_hooks_find_their_targets(capsys):
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    capsys.readouterr()
    with layers.Tracer():
        pass
    missing = [ln for ln in capsys.readouterr().err.splitlines() if "not found" in ln]
    assert all(ln.startswith(KNOWN_MISSING) for ln in missing), missing
