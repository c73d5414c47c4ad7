"""Span recording for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :meth:`Recorder.install`
replaces
public functions of the program with timing wrappers *at the attribute
each caller looks up* (a module global for ``from x import f`` callers
that resolve at call time, the class attribute for methods), so a
traced process runs exactly the program's own code plus the wrappers.

Each wrapped call is a span: name (the layer), start, end, the span that
was open when it began (its parent), and the correlation ID of the
engine context it ran in.  Spans stay in memory and are written out by
:meth:`Recorder.dump` when the run ends.  Self time -- a span's duration
minus the time its child spans cover -- is accumulated online per
thread, so the per-layer table stays exact even when the raw span list
hits its cap.

Coroutine functions are timed step by step: only the time the coroutine
spends running between its ``await`` points counts, never the time it
waits for a socket.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import json
import threading
import time

#: Raw spans kept in memory per process; later spans are counted only.
RAW_SPAN_CAP = 100_000

#: (layer, module, attribute path[, "iterator"]) for every wrapped public
#: function.  A layer may wrap several functions; its metrics sum over
#: them.
SWEEP_TARGETS = (
    ("generators", "repro.soundness.generators", "generate_system"),
    ("sweep.system", "repro.soundness.sweep", "sweep_system"),
    ("sweep.pool", "repro.soundness.sweep", "pool_from_system"),
    # Returns an iterator: each step of the iteration is timed.
    ("axioms", "repro.logic.axioms", "Schema.instances", "iterator"),
    ("semantics.compile", "repro.semantics.backend", "BeliefBackend.compile"),
    ("semantics.compile", "repro.semantics.epistemic",
     "EpistemicBackend.compile"),
    ("semantics.system", "repro.semantics.compiler", "CompiledSystem.__init__"),
    ("semantics.truth_bits", "repro.semantics.compiler",
     "CompiledSystem.truth_bits"),
    ("semantics.evaluate", "repro.semantics.compiler",
     "CompiledSystem.evaluate"),
    ("semantics.evaluate", "repro.semantics.evaluator", "Evaluator.evaluate"),
)

SERVE_TARGETS = SWEEP_TARGETS + (
    ("semantics.compile", "repro.goodruns.construction", "compiled_for"),
    ("goodruns", "repro.goodruns", "construct_good_runs"),
    ("trace", "repro.obs.trace", "trace_evaluation"),
    ("trace", "repro.obs.trace", "render_why"),
    ("analysis", "repro.analysis", "analyze"),
    ("certify", "repro.logic.certify", "certify"),
    ("certify", "repro.logic.proof", "Proof.check"),
    ("http.read", "repro.serve.http", "read_request"),
    ("http.read", "repro.serve.http", "Request.json"),
    ("http.render", "repro.serve.http", "render_response"),
    ("requests.parse", "repro.serve.requests", "parse_request"),
    ("requests.execute", "repro.serve.requests", "execute"),
    ("daemon.absorb", "repro.context", "EngineContext.absorb_context"),
    ("obs.snapshot", "repro.obs.metrics", "unified_snapshot"),
)


def _observe(recorder: "Recorder", layer: str, result) -> None:
    """Per-layer counts taken from a wrapped call's result."""
    if layer == "semantics.truth_bits" and result is not None:
        recorder.count("semantics.bitset")
    elif layer == "http.render":
        recorder.count("http.response_bytes", len(result))
    elif layer == "goodruns":
        recorder.count("goodruns.stages", result.depth)
    elif layer == "certify" and hasattr(result, "steps"):
        recorder.count("certify.steps", len(result.steps))


class Recorder:
    """Spans, per-layer call/self/total tables and counts for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._counts: list[dict] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.gc_gen2_count = 0
        self.gc_gen2_s = 0.0
        self._gc_started: float | None = None
        self._context = None  # ``repro.context``, bound by install()

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._tables.append(state[1])
                self._counts.append(state[2])
        return state

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + n

    def enter(self, layer: str) -> list:
        stack = self._state()[0]
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), layer, time.perf_counter(), 0.0, parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list, add_span: bool = True) -> float:
        """Close a frame; returns its self time."""
        end = time.perf_counter()
        stack, table, _counts = self._state()
        stack.pop()
        span_id, layer, start, child_s, parent = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        own = duration - child_s
        row = table.get(layer)
        if row is None:
            row = table[layer] = [0, 0.0, 0.0]
        if add_span:
            row[0] += 1
        row[1] += own
        row[2] += duration
        if add_span:
            if len(self.spans) < RAW_SPAN_CAP:
                self.spans.append((span_id, layer, start, end, parent,
                                   self._context.current().corr_id))
            else:
                self.dropped += 1
        return own

    # -- wrappers ------------------------------------------------------------

    def _wrap_function(self, layer: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = recorder.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit(frame)
            _observe(recorder, layer, result)
            return result

        return wrapper

    def _wrap_iterator_function(self, layer: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            # One span per step: the time spent producing each item.
            while True:
                frame = recorder.enter(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    recorder.exit(frame)
                    return
                except BaseException:
                    recorder.exit(frame)
                    raise
                recorder.exit(frame)
                recorder.count(layer + ".items")
                yield item

        return wrapper

    def _wrap_coroutine_function(self, layer: str, fn):
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await _TimedCoroutine(recorder, layer, fn(*args, **kwargs))

        return wrapper

    def wrap(self, layer: str, module_name: str, path: str,
             kind: str = "call") -> None:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        # A class's own __dict__ entry, so a staticmethod stays one.
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        if inspect.iscoroutinefunction(original):
            replacement = self._wrap_coroutine_function(layer, original)
        elif kind == "iterator" or inspect.isgeneratorfunction(original):
            replacement = self._wrap_iterator_function(layer, original)
        else:
            replacement = self._wrap_function(layer, original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self, targets) -> None:
        self._context = importlib.import_module("repro.context")
        for target in targets:
            self.wrap(*target)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_gen2_count += 1
            self.gc_gen2_s += time.perf_counter() - self._gc_started
            self._gc_started = None

    # -- output --------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (calls, own, total) in list(table.items()):
                row = merged.setdefault(
                    layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                row["calls"] += calls
                row["self_s"] += own
                row["total_s"] += total
        return merged

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        with self._lock:
            tables = list(self._counts)
        for table in tables:
            for name, n in list(table.items()):
                merged[name] = merged.get(name, 0) + n
        return merged

    def summary(self) -> dict:
        return {
            "layers": self.layers(),
            "counts": self.counts(),
            "gc": {"gen2_count": self.gc_gen2_count,
                   "gen2_s": self.gc_gen2_s},
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def dump(self, path: str) -> None:
        """Write the summary and every kept span as one JSON document."""
        document = self.summary()
        document["span_fields"] = ["id", "name", "start", "end", "parent",
                                   "corr_id"]
        document["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class _TimedCoroutine:
    """Drive a coroutine, timing each step between ``await`` points, so
    waits do not count as busy time.  The steps count as one call of the
    layer and record no raw span."""

    def __init__(self, recorder: Recorder, layer: str, coroutine) -> None:
        self._recorder = recorder
        self._layer = layer
        self._coroutine = coroutine

    def __await__(self):
        recorder, layer, coroutine = self._recorder, self._layer, self._coroutine
        value, error = None, None
        table = recorder._state()[1]
        table.setdefault(layer, [0, 0.0, 0.0])[0] += 1
        while True:
            frame = recorder.enter(layer)
            try:
                if error is None:
                    awaited = coroutine.send(value)
                else:
                    awaited = coroutine.throw(error)
            except StopIteration as stop:
                recorder.exit(frame, add_span=False)
                return stop.value
            except BaseException:
                recorder.exit(frame, add_span=False)
                raise
            recorder.exit(frame, add_span=False)
            try:
                value, error = (yield awaited), None
            except BaseException as exc:  # re-raised inside the coroutine
                value, error = None, exc

