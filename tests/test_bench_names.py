"""The benchmark's tracer finds every name it wraps in the program.

``bench/tracer.py`` wraps functions at the module attributes their callers
look up, so deleting or renaming one of them breaks the benchmark; this
test makes that a tier-1 failure.
"""

import math
from pathlib import Path

from sagnacsim import cli, formats, interferometer, modes, quantum

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_instruments_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    # Setting each callable to itself lets teardown undo the tracer's wrappers.
    for module in (cli, formats, interferometer, modes, quantum):
        for name, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, name, value)
    import tracer

    spans = tracer.Tracer()
    tracer.instrument(spans)
    metrics = tracer.per_op_metrics(spans, ops=1, builds=1, theta_ns=0)
    assert metrics and all(math.isfinite(v) for v in metrics.values())
