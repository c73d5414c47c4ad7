"""The telemetry store stays bounded however much a context absorbs.

A long-lived absorber — the serve daemon's root context — folds in one
request-shaped batch context after another.  Its store must hold
O(span names + ring capacity): the raw rings stay at their caps with
honest drop counts, memory stops growing, and a ``/metrics`` scrape or
a per-request telemetry slice costs the same after 20k absorbs as after
1k.
"""

from __future__ import annotations

import time
import tracemalloc
from types import SimpleNamespace

from repro import context, perf
from repro.obs import journal, metrics, spans
from repro.obs.store import DEFAULT_CAPACITY, SPAN_RING_CAPACITY, TelemetryStore
from repro.serve import AnalysisDaemon

REQUESTS = 20_000
WARM = 1_000


def _request_context(index: int) -> context.EngineContext:
    """A context shaped like one served request's batch context."""
    ctx = context.fresh(f"req-{index}", corr_id=f"req-{index}")
    with context.use(ctx):
        perf.count("compiled_eval.hit", 3)
        perf.count("compiled_eval.miss")
        with spans.span("serve.request", kind="system"):
            with spans.span("goodruns.stage", depth=1, engine="worklist"):
                pass
        journal.record("compile", runs=2)
    return ctx


def _absorb(root: context.EngineContext, start: int, stop: int) -> None:
    for index in range(start, stop):
        root.absorb_context(_request_context(index))


def _best_seconds(fn, repeats: int = 15) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _scrape(root):
    with context.use(root):
        return metrics.to_prometheus(metrics.unified_snapshot())


def _slice(root):
    # The daemon's per-response slice, run against a context that has
    # already absorbed many requests.
    daemon = AnalysisDaemon()
    job = SimpleNamespace(corr_id="req-probe")
    with context.use(root):
        counters_before = dict(root.counters)
        journal_mark = root.journal.mark()
        span_mark = root.spans.mark()
        with spans.span("serve.request", kind="system"):
            pass
        return daemon._telemetry_slice(root, job, counters_before,
                                       journal_mark, span_mark,
                                       time.monotonic())


class TestBoundedAbsorber:
    def test_rings_stay_at_cap_and_count_every_drop(self):
        root = context.fresh("root")
        _absorb(root, 0, REQUESTS)
        assert len(root.spans) == SPAN_RING_CAPACITY
        assert len(root.journal) == DEFAULT_CAPACITY
        # Every span is either retained or counted as dropped, and the
        # aggregates saw all of them.
        summary = root.spans.summary()
        recorded = sum(row["count"] for row in summary.values())
        assert recorded == 2 * REQUESTS
        assert len(root.spans) + root.spans.dropped == recorded
        assert len(root.journal) + root.journal.dropped == REQUESTS
        assert summary["serve.request"]["count"] == REQUESTS
        assert root.counters["compiled_eval.hit"] == 3 * REQUESTS

    def test_memory_stops_growing_after_warmup(self):
        root = context.fresh("root")
        _absorb(root, 0, WARM)
        half = REQUESTS // 2
        tracemalloc.start()
        try:
            _absorb(root, WARM, half)
            at_half, _peak = tracemalloc.get_traced_memory()
            _absorb(root, half, REQUESTS)
            at_end, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # From 1k on, only the journal ring still fills (to its 4096
        # events); unbounded span retention alone added ~600 B per
        # request, ~11 MB over this run.
        assert at_end < 4 * 1024 * 1024, at_end
        # Once the rings are full, nothing grows.
        assert at_end - at_half < 256 * 1024, at_end - at_half

    def test_scrape_and_slice_cost_stay_flat(self):
        small = context.fresh("root-1k")
        _absorb(small, 0, WARM)
        large = context.fresh("root-20k")
        _absorb(large, 0, REQUESTS)
        for probe in (_scrape, _slice):
            at_1k = _best_seconds(lambda: probe(small))
            at_20k = _best_seconds(lambda: probe(large))
            assert at_20k <= 2 * at_1k + 1e-4, (probe.__name__, at_1k, at_20k)
        assert "serve.request" in _slice(large)["spans"]


class TestDeltaAbsorb:
    def test_absorb_into_empty_reproduces_the_summaries(self):
        source = _request_context(0)
        _absorb(source, 1, 50)
        target = TelemetryStore()
        target.absorb(source.telemetry.delta())
        assert target.counters == source.counters
        assert target.spans.summary() == source.spans.summary()
        assert target.spans.snapshot() == source.spans.snapshot()
        assert target.journal.snapshot() == source.journal.snapshot()

    def test_sections_are_optional(self):
        store = TelemetryStore()
        store.absorb({"counters": {"a.hit": 2}})
        store.absorb({"cache_peaks": {"intern": 5}})
        store.absorb({"cache_peaks": {"intern": 3}})
        assert store.counters == {"a.hit": 2}
        assert store.cache_peaks == {"intern": 5}
        assert len(store.spans) == 0 and len(store.journal) == 0
