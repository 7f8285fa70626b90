"""Per-layer spans recorded from the benchmark's side of each call.

A function is wrapped at the name through which its caller looks it up
(``interferometer.rotate_exact`` is the name ``sagnac_transfer`` calls,
``quantum.rotation_matrix`` the one ``sort_biphoton`` calls), so nothing
inside the program changes.  Spans nest on a stack; a span's self time is
its duration minus the durations of the spans it directly encloses.  Spans
are folded into per-layer totals as they close.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.counts: dict[str, float] = {}
        self.rotation_keys: set = set()
        self._stack: list[int] = []

    def wrap(self, module, attr: str, layer: str, on_return=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a ``layer`` span.

        ``on_return(tracer, args, result)`` runs after the span closes, to
        record counts.
        """
        fn = getattr(module, attr)
        stats = self.layers.setdefault(layer, LayerStats())
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(self, args, return_value)
            return return_value

        setattr(module, attr, traced)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def reset(self) -> None:
        """Forget totals and counts, e.g. those of set-up and warm-up.

        Rotation keys are kept: a repeat counts against any earlier build.
        """
        for stats in self.layers.values():
            stats.calls = stats.total_ns = stats.self_ns = 0
        self.counts.clear()


def _count_bytes(tracer, args, result):
    tracer.count("formats.bytes_out", len(result))


def _count_repeats(tracer, args, result):
    key = (args[0], args[1])
    tracer.count("modes.rotation_matrix.repeats", key in tracer.rotation_keys)
    tracer.rotation_keys.add(key)


def _count_terms_out(tracer, args, result):
    tracer.count(
        "quantum.sort_biphoton.terms_out",
        sum(len(b.state.terms) for b in result.branches.values() if b.state is not None),
    )


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports, at its callers' names."""
    from sagnacsim import cli, formats, interferometer, modes, quantum

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "parse_mode_spec", "cli.parse_mode_spec", None),
        (formats, "csv_matrix", "formats.csv_matrix", _count_bytes),
        (formats, "pgm_bytes", "formats.image_bytes", _count_bytes),
        (formats, "ppm_bytes", "formats.image_bytes", _count_bytes),
        (cli, "sample_mode", "modes.sample", None),
        (cli, "sample_lg", "modes.sample", None),
        (cli, "evaluate_expansion", "modes.sample", None),
        (cli, "decompose_grid", "modes.decompose_grid", None),
        (modes, "rotation_matrix", "modes.rotation_matrix", _count_repeats),
        (quantum, "rotation_matrix", "modes.rotation_matrix", _count_repeats),
        (interferometer, "rotate_exact", "modes.rotate_exact", None),
        (cli, "rotate_exact", "modes.rotate_exact", None),
        (interferometer, "sagnac_transfer", "interferometer.sagnac_transfer", None),
        (cli, "sagnac_transfer", "interferometer.sagnac_transfer", None),
        (interferometer, "cascade_route", "interferometer.cascade_route", None),
        (cli, "cascade_route", "interferometer.cascade_route", None),
        (interferometer, "cascade_build", "interferometer.cascade_build", None),
        (cli, "cascade_build", "interferometer.cascade_build", None),
        (interferometer, "theta_for_psi", "geometry.theta_for_psi", None),
        (quantum, "sort_biphoton", "quantum.sort_biphoton", _count_terms_out),
        (quantum, "herald", "quantum.herald", None),
    ]
    for module, attr, layer, on_return in targets:
        tracer.wrap(module, attr, layer, on_return)


def per_op_metrics(tracer: Tracer, ops: int, builds: int, theta_ns: int) -> dict[str, float]:
    """Per-layer figures per operation; ``theta_for_psi`` per tree build."""
    layers = tracer.layers
    counts = tracer.counts

    def ms(layer, field="total_ns"):
        return getattr(layers[layer], field) / ops / 1e6

    rotations = layers["modes.rotation_matrix"].calls
    return {
        "cli.main.self_ms": ms("cli.main", "self_ns"),
        "cli.parse_mode_spec.ms": ms("cli.parse_mode_spec"),
        "formats.csv_matrix.ms": ms("formats.csv_matrix"),
        "formats.image_bytes.ms": ms("formats.image_bytes"),
        "formats.bytes_out": counts.get("formats.bytes_out", 0.0) / ops,
        "modes.sample.ms": ms("modes.sample"),
        "modes.decompose_grid.ms": ms("modes.decompose_grid"),
        "modes.rotation_matrix.ms": ms("modes.rotation_matrix"),
        "modes.rotation_matrix.calls": rotations / ops,
        "modes.rotation_matrix.repeat_frac": (
            counts.get("modes.rotation_matrix.repeats", 0.0) / rotations if rotations else 0.0
        ),
        "modes.rotate_exact.self_ms": ms("modes.rotate_exact", "self_ns"),
        "interferometer.sagnac_transfer.self_ms": ms("interferometer.sagnac_transfer", "self_ns"),
        "interferometer.sagnac_transfer.calls": layers["interferometer.sagnac_transfer"].calls / ops,
        "interferometer.cascade_route.self_ms": ms("interferometer.cascade_route", "self_ns"),
        "geometry.theta_for_psi.ms": theta_ns / builds / 1e6 if builds else 0.0,
        "quantum.sort_biphoton.self_ms": ms("quantum.sort_biphoton", "self_ns"),
        "quantum.sort_biphoton.terms_out": counts.get("quantum.sort_biphoton.terms_out", 0.0) / ops,
        "quantum.herald.ms": ms("quantum.herald"),
    }
