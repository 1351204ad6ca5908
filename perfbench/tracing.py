"""Spans around every call into walkcomplement's modules, and the per-layer metrics made from them.

The tracer replaces each public function of the eight modules with a wrapper
that records a span: name, start, end, parent span and job id.  It replaces
every reference to the function, including names other modules imported with
``from .x import f`` and functions stored in module-level dicts (the CLI's
command table), so no call bypasses the span.  Nothing under ``src/`` changes.

Spans are kept in memory and written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter

import numpy as np

LAYERS = ("linalg", "graphs", "walk", "probability", "complement", "circuit", "sampling", "cli")

# Named per-layer metrics: metric -> the function whose inclusive span time it sums.
NAMED_TIMES = {
    "graphs.kraus_s": "graphs.kraus_conditions_hold",
    "linalg.is_unitary_s": "linalg.is_unitary",
    "walk.evolution_operator_s": "walk.evolution_operator",
    "probability.collapse_s": "probability.collapse_multigraph",
    "complement.statevector_s": "complement.run_complement_statevector",
    "complement.cross_validate_s": "complement.cross_validate",
    "circuit.to_unitary_s": "circuit.circuit_to_unitary",
}
NAMED_CALLS = {
    "linalg.is_unitary.calls": "linalg.is_unitary",
    "complement.statevector.calls": "complement.run_complement_statevector",
}
_STATEVECTOR = "complement.run_complement_statevector"
# tracemalloc.start()/stop() costs about 0.5 ms, more than a whole small
# statevector call, so the allocation peak is taken only for calls whose state
# reaches this size; smaller calls report no peak.
PEAK_MIN_STATE_BYTES = 1 << 20


def array_bytes(obj, depth: int = 2) -> int:
    """Bytes of the numpy arrays in a return value: the array itself, or the
    arrays held in a dataclass's fields or a dict's values, ``depth`` levels down."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), depth - 1) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return sum(array_bytes(v, depth - 1) for v in obj.values())
    return 0


class Tracer:
    """Records spans while :attr:`active` is true; a no-op pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.job_id = -1
        self.spans: list = []  # (name, start, end, parent index, job id)
        self._stack: list[int] = []
        self.out_bytes: Counter = Counter()
        self.counts: Counter = Counter()
        self.statevector_peak = 0
        self.statevector_state = 0

    def install(self) -> None:
        """Wrap every public function of the eight modules, everywhere it is referenced."""
        modules = [importlib.import_module("walkcomplement")]
        modules += [importlib.import_module(f"walkcomplement.{layer}") for layer in LAYERS]
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for other in modules:
                    for attr, value in vars(other).items():
                        if value is fn:
                            setattr(other, attr, wrapped)
                        elif isinstance(value, dict):
                            for key, item in value.items():
                                if item is fn:
                                    value[key] = wrapped

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            peak_from = tracer._peak_start(name, args)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.job_id)
                if peak_from is not None:
                    tracer._peak_stop(peak_from)
            tracer.out_bytes[layer] += array_bytes(result)
            if name == "probability.collapse_multigraph":
                tracer.counts["probability.arcs"] += len(result.arcs)
            elif name == "circuit.circuit_to_unitary":
                tracer.counts["circuit.gates"] += len(args[0].gates)
            return result

        return wrapper

    def _peak_start(self, name: str, args):
        if name != _STATEVECTOR:
            return None
        state_bytes = 16 * 4 ** args[0].n
        self.statevector_state = max(self.statevector_state, state_bytes)
        if state_bytes < PEAK_MIN_STATE_BYTES or tracemalloc.is_tracing():
            return None
        tracemalloc.start()
        return tracemalloc.get_traced_memory()[0]

    def _peak_stop(self, baseline: int) -> None:
        peak = tracemalloc.get_traced_memory()[1] - baseline
        tracemalloc.stop()
        self.statevector_peak = max(self.statevector_peak, peak)

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics (self time, calls and returned bytes of each layer,
        the named function times and counts), and the inclusive time and calls
        of every traced function, slowest first."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        fn_time: Counter = Counter()
        fn_calls: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            self_s[layer] += end - start - inner
            calls[layer] += 1
            fn_time[name] += end - start
            fn_calls[name] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.out_mb"] = self.out_bytes[layer] / 1e6
        for metric, fn in NAMED_TIMES.items():
            out[metric] = fn_time[fn]
        for metric, fn in NAMED_CALLS.items():
            out[metric] = fn_calls[fn]
        for metric in ("probability.arcs", "circuit.gates", "cli.bytes_written"):
            out[metric] = self.counts[metric]
        out["complement.statevector.peak_mb"] = self.statevector_peak / 1e6
        out["complement.statevector.state_mb"] = self.statevector_state / 1e6
        out["trace.spans"] = len(self.spans)
        functions = {fn: {"s": fn_time[fn], "calls": fn_calls[fn]}
                     for fn in sorted(fn_time, key=fn_time.get, reverse=True)}
        return out, functions

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
