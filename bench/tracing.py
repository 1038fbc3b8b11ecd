"""Span tracing of the runcons layers, installed from outside the package.

`Tracer.install` replaces every public function of each layer module with a
wrapper that records a span (name, tag, start, end, parent span).  Because
modules import each other's functions by name, the wrapper is bound wherever
the original is: in every runcons module namespace and in module-level
dispatch dictionaries such as `cli.FIGURE_RUNNERS`.  Methods listed in
`METHODS` are wrapped on their class.

Spans are kept in memory.  Only calls made on the main thread are recorded:
the Monte Carlo engines run chunks on worker threads, and a span there would
overlap its parent's interval instead of nesting in it.

A few functions also feed counters from their arguments and result (see
`COUNTERS`), so that work counts are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

import numpy as np

LAYERS = ("scenario", "cli", "stats", "detectors", "analysis", "network", "consensus", "montecarlo")
METHODS = {"consensus": {"ConsensusRun": ("step",)}}


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _page_run_lengths(bound: inspect.BoundArguments, stops) -> tuple[str, dict[str, float]]:
    """Lane accounting of one CUSUM run-length call, chunk by chunk.

    A truncated trial (stop 0) occupied its lane until max_n.  A chunk steps
    in lockstep until its slowest lane stops, so it is charged its largest
    stop times its lane count.
    """
    from runcons import montecarlo

    args = bound.arguments
    mode = str(args["mode"])
    slots = np.where(stops > 0, stops, int(args["max_n"])).astype(np.int64)
    lockstep = capacity = 0
    for start in range(0, slots.size, montecarlo.CHUNK_SIZE):
        chunk = slots[start:start + montecarlo.CHUNK_SIZE]
        lockstep += int(chunk.max())
        capacity += int(chunk.max()) * chunk.size
    lane_slots = int(slots.sum())
    prefix = "montecarlo.page_run_lengths"
    return mode, {
        f"{prefix}.lane_slots": lane_slots,
        f"{prefix}.lockstep_slots": lockstep,
        f"{prefix}.lane_capacity": capacity,
        f"{prefix}.{mode}.lane_slots": lane_slots,
    }


def _estimate_stopping(bound: inspect.BoundArguments, _result) -> tuple[None, dict[str, float]]:
    return None, {"montecarlo.estimate_stopping.trials": int(bound.arguments["trials"])}


def _write_csv(bound: inspect.BoundArguments, _result) -> tuple[None, dict[str, float]]:
    return None, {"cli.write_csv.rows": len(bound.arguments["rows"])}


# span name -> hook(bound arguments, result) -> (span tag, counter increments)
COUNTERS = {
    "montecarlo.page_run_lengths": _page_run_lengths,
    "montecarlo.estimate_stopping": _estimate_stopping,
    "cli.write_csv": _write_csv,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, str | None, float, float, int] | None] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._main = threading.main_thread()

    def _wrap(self, name: str, fn):
        spans, stack, counts, main = self.spans, self._stack, self.counts, self._main
        hook = COUNTERS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not main:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, None, start, end, parent)
            if hook is not None:
                tag, increments = hook(signature.bind(*args, **kwargs), result)
                spans[index] = (name, tag, start, end, parent)
                for key, value in increments.items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        modules = {layer: importlib.import_module(f"runcons.{layer}") for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    replacements[id(obj)] = self._wrap(f"{layer}.{name}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
        for module in modules.values():
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if id(obj) in replacements:
                    setattr(module, name, replacements[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replacements:
                            obj[key] = replacements[id(value)]

    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds, plus the counters.

        A span's self time is its duration minus the durations of its direct
        children; the children's own children are already inside those.
        `tagged` splits the spans that carry a tag (the run-length mode of
        `montecarlo.page_run_lengths`) by name and tag.
        """
        child_time = [0.0] * len(self.spans)
        for name, tag, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        spans: dict[str, dict[str, float]] = {}
        tagged: dict[str, dict[str, float]] = {}
        for index, (name, tag, start, end, parent) in enumerate(self.spans):
            duration = end - start
            _accumulate(spans, name, duration, duration - child_time[index])
            if tag is not None:
                _accumulate(tagged, f"{name}.{tag}", duration, duration - child_time[index])
        return {"spans": spans, "tagged": tagged, "counts": dict(self.counts)}


def _accumulate(into: dict[str, dict[str, float]], key: str, total_s: float, self_s: float) -> None:
    entry = into.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    entry["calls"] += 1
    entry["total_s"] += total_s
    entry["self_s"] += self_s
