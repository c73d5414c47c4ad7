"""Performance counters and cache registry for the hot paths.

Every memoization layer in the library — the term intern tables
(:mod:`repro.terms.intern`), the structural-operation memos
(:mod:`repro.terms.ops`), the ``hide`` view memo
(:mod:`repro.semantics.hide`), the ``seen_submsgs`` memo
(:mod:`repro.model.submsgs`), and the evaluator's truth memo
(:mod:`repro.semantics.evaluator`) — reports hits and misses here, so
that one snapshot shows where a workload's time is going and whether
the caches are actually earning their keep.

The module sits near the bottom of the stack (it depends only on
:mod:`repro.context`) and the counters are plain dict increments:
cheap enough to leave on permanently.

Counter *storage* lives on the current :class:`repro.context.EngineContext`
— two workloads under separate contexts keep disjoint tables — while
this module stays the one API every layer talks to.  ``perf.counters``
is a live view of the current context's table, so existing reads
(``perf.counters.get(...)``) and test fixtures (``.update``, ``.clear``)
keep working unchanged.

Usage::

    from repro import perf
    perf.reset_counters()
    ...  # run a workload
    print(perf.report())

``clear_caches()`` empties every registered cache (intern tables, memo
dicts) — useful for measuring cold-vs-warm behaviour and for bounding
memory in long-lived processes.
"""

from __future__ import annotations

import json
import time
from collections.abc import MutableMapping
from typing import Any, Callable, Iterator, Mapping

from repro import context as _context


class _CountersView(MutableMapping):
    """A live, mutable view of the *current* context's counter table.

    ``"layer.event" -> count``; layers use ``hit``/``miss`` suffixes so
    :func:`hit_rates` can pair them up.  Every operation resolves
    :func:`repro.context.current` at call time, so the same
    ``perf.counters`` name always denotes the table of whichever
    context is active.
    """

    __slots__ = ()

    def __getitem__(self, event: str) -> int:
        return _context.current().counters[event]

    def __setitem__(self, event: str, n: int) -> None:
        _context.current().counters[event] = n

    def __delitem__(self, event: str) -> None:
        del _context.current().counters[event]

    def __iter__(self) -> Iterator[str]:
        return iter(_context.current().counters)

    def __len__(self) -> int:
        return len(_context.current().counters)

    def __contains__(self, event: object) -> bool:
        return event in _context.current().counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(_context.current().counters)


#: The current context's flat counter table (a live view).
counters: MutableMapping = _CountersView()

#: Registered cache-clearing callbacks, keyed by cache name.  The
#: registry itself is process-global — a layer registers once at import
#: — but each callback resolves the current context's table at call
#: time, so clearing/sizing always acts on the active session.
_cache_clearers: dict[str, Callable[[], None]] = {}

#: Registered cache-size probes, keyed by cache name.
_cache_sizers: dict[str, Callable[[], int]] = {}


def count(event: str, n: int = 1) -> None:
    """Increment a counter (creates it on first use)."""
    table = _context.current().counters
    table[event] = table.get(event, 0) + n


def reset_counters() -> None:
    """Zero every counter (of the current context) without touching the
    caches themselves."""
    _context.current().counters.clear()


def merge_counters(extra: Mapping[str, int]) -> None:
    """Add counter deltas into the current context's table (the
    counters-only form of :meth:`repro.obs.store.TelemetryStore.absorb`)."""
    _context.current().telemetry.absorb({"counters": extra})


def register_cache(
    name: str, clearer: Callable[[], None], sizer: Callable[[], int]
) -> None:
    """Register a cache so ``clear_caches``/``cache_sizes`` can see it."""
    _cache_clearers[name] = clearer
    _cache_sizers[name] = sizer


def clear_caches() -> None:
    """Empty every registered cache (intern tables, memo dicts).

    At-clear sizes are folded into the context's cache high-water marks
    first, so a clear never erases the evidence of what the caches held.
    """
    observe_cache_peaks()
    for clearer in _cache_clearers.values():
        clearer()


def cache_sizes() -> dict[str, int]:
    """Current entry count of every registered cache."""
    return {name: sizer() for name, sizer in _cache_sizers.items()}


def observe_cache_peaks(sizes: Mapping[str, int] | None = None) -> dict[str, int]:
    """Max the current cache sizes into the context's high-water marks.

    Several cache layers (notably ``eval_memo``) are registered through
    *weak* references: when their owner dies, the sizer honestly reports
    0, so an end-of-workload ``cache_sizes()`` under-reports the real
    footprint.  Workloads call this at their peaks (the sweep does, per
    system); :func:`snapshot` reports the marks alongside the live
    sizes.  Pass ``sizes`` when the caller already measured them.
    """
    peaks = _context.current().cache_peaks
    for name, size in (cache_sizes() if sizes is None else sizes).items():
        if size > peaks.get(name, 0):
            peaks[name] = size
    return dict(peaks)


def snapshot() -> dict[str, Any]:
    """Counters, cache sizes, peaks, and hit rates, as one plain dict.

    Every registered cache is sized once: the same sizes feed the
    high-water marks and the ``cache_sizes`` section.
    """
    sizes = cache_sizes()
    return {
        "counters": dict(_context.current().counters),
        "cache_sizes": sizes,
        "cache_peaks": observe_cache_peaks(sizes),
        "hit_rates": hit_rates(),
    }


def hit_rates() -> dict[str, float]:
    """Hit rate per layer, from paired ``<layer>.hit``/``<layer>.miss``.

    Layers are derived from *both* suffixes: a cold cache that recorded
    only misses still appears (at rate 0.0), matching ``report()``.
    """
    table = _context.current().counters
    rates: dict[str, float] = {}
    layers = {
        event.rsplit(".", 1)[0]
        for event in table
        if event.endswith((".hit", ".miss"))
    }
    for layer in layers:
        hits = table.get(layer + ".hit", 0)
        misses = table.get(layer + ".miss", 0)
        total = hits + misses
        if total:
            rates[layer] = hits / total
    return rates


def report() -> str:
    """Human-readable counter/cache summary (the ``perf`` CLI body)."""
    table = _context.current().counters
    lines = ["layer                          hits      misses    hit-rate"]
    lines.append("-" * len(lines[0]))
    layers = sorted(
        {e.rsplit(".", 1)[0] for e in table if e.endswith((".hit", ".miss"))}
    )
    for layer in layers:
        hits = table.get(layer + ".hit", 0)
        misses = table.get(layer + ".miss", 0)
        total = hits + misses
        rate = f"{hits / total:8.1%}" if total else "     n/a"
        lines.append(f"{layer:<28} {hits:>9} {misses:>11} {rate:>11}")
    other = {
        e: n for e, n in sorted(table.items())
        if not e.endswith((".hit", ".miss"))
    }
    for event, n in other.items():
        lines.append(f"{event:<28} {n:>9}")
    sizes = cache_sizes()
    if sizes:
        lines.append("")
        lines.append("cache sizes: " + ", ".join(
            f"{name}={size}" for name, size in sorted(sizes.items())
        ))
    return "\n".join(lines)


class Stopwatch:
    """Tiny wall-clock timer for the benchmark harness."""

    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self.start


def write_bench_json(
    path: str,
    measurements: Mapping[str, Any],
    parameters: Mapping[str, Any] | None = None,
    spans: Mapping[str, Any] | None = None,
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write a machine-readable benchmark record (``BENCH_sweep.json``).

    The file is a single JSON object: ``parameters`` echoes the workload
    knobs, ``measurements`` holds named timings (seconds) and counts,
    and ``perf`` embeds the counter snapshot so regressions in cache
    behaviour are visible alongside the timings.  Optionally, ``spans``
    carries a :func:`repro.obs.spans.summary` (per-phase wall-clock
    percentiles) and ``meta`` a :func:`repro.obs.runmeta.run_metadata`
    fingerprint — both kept as caller-supplied plain mappings so this
    module stays importable from the bottom of the stack.
    """
    record = {
        "parameters": dict(parameters or {}),
        "measurements": dict(measurements),
        "perf": snapshot(),
    }
    if spans is not None:
        record["spans"] = dict(spans)
    if meta is not None:
        record["meta"] = dict(meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
