"""The telemetry store: everything one engine context knows about itself.

Every :class:`~repro.context.EngineContext` owns exactly one
:class:`TelemetryStore`, and every part of it is bounded:

* ``counters`` — the flat ``layer.event`` table (:mod:`repro.perf`),
  bounded by the number of distinct event names;
* ``cache_peaks`` — high-water marks of the registered caches;
* ``spans`` — a :class:`SpanRecorder`: per-name streaming aggregates
  (count, sum, min, max and fixed log buckets, which merge by
  addition) plus a bounded ring of raw samples for ``trace``/JSONL
  export;
* ``journal`` — the flight recorder, a bounded :class:`Journal` ring of
  structured events;
* ``metrics`` — the labeled instruments (:class:`MetricsRegistry`).

One :meth:`TelemetryStore.delta` / :meth:`TelemetryStore.absorb` pair
moves all of it between contexts and processes: a worker shard or a
serve batch runs in an ephemeral context, and the parent absorbs that
context's whole store.  Aggregates and counters add, peaks and gauges
take the max, and rings append with an honest ``dropped`` count, so a
long-lived absorber (the serve daemon's root) holds O(span names +
ring capacity) no matter how many requests it has absorbed.

Stdlib only and free of ``repro`` imports, so :mod:`repro.context` can
build stores without an import cycle.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Mapping

#: Journal ring capacity: the recent past of one session — a fuzz
#: campaign's last iterations, a sweep's shard merges.
DEFAULT_CAPACITY = 4096

#: Raw-span ring capacity.  Summaries come from the aggregates, so the
#: ring only has to hold enough recent samples to export and inspect.
SPAN_RING_CAPACITY = 1024

#: Span aggregates bucket durations on a fixed log scale: bucket ``i``
#: holds ``(floor * 2**((i-1)/8), floor * 2**(i/8)]``, so a bucket-derived
#: quantile is within 9% of the sample it stands for.
BUCKET_FLOOR_S = 1e-6
BUCKETS_PER_OCTAVE = 8

#: The one span attribute aggregates are split by.  Its values are a
#: closed set (engine names), so the split stays bounded; any other
#: attribute lives only on the raw samples.
GROUP_BY = "engine"

#: Default histogram bucket upper edges of the labeled instruments.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Ring:
    """A bounded, thread-safe ring of plain-data records.

    Keeps the last ``capacity`` records and counts the rest in
    :attr:`dropped`.  Marks are stream positions (records ever
    appended), not buffer indices, so :meth:`delta_since` stays right
    after the ring wraps past a mark.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._appended = 0
        self._dropped = 0

    def _append(self, item: dict[str, Any]) -> None:
        """Append one record; the caller holds the lock."""
        if len(self._ring) == self.capacity:
            self._dropped += 1
        self._ring.append(item)
        self._appended += 1

    def mark(self) -> int:
        """A position in the stream; pair with :meth:`delta_since`."""
        with self._lock:
            return self._appended

    def delta_since(self, mark: int) -> list[dict[str, Any]]:
        """Every *retained* record appended after ``mark``, as copies.

        Records that wrapped out of the ring since ``mark`` are gone by
        design; :attr:`dropped` keeps the honest count.
        """
        with self._lock:
            n = min(self._appended - mark, len(self._ring))
            recent = list(itertools.islice(reversed(self._ring), max(n, 0)))
        return [dict(item) for item in reversed(recent)]

    def merge(self, items: Iterable[Mapping[str, Any]]) -> None:
        """Append copies of another ring's records (origin fields kept)."""
        self.absorb({"items": [dict(item) for item in items]})

    def transport(self) -> dict[str, Any]:
        """The ring as plain data for :meth:`TelemetryStore.delta`."""
        with self._lock:
            return {"items": list(self._ring), "dropped": self._dropped}

    def absorb(self, part: Mapping[str, Any]) -> None:
        """Fold a :meth:`transport` part in: its drops stay counted."""
        with self._lock:
            for item in part.get("items", ()):
                self._append(item)
            self._dropped += part.get("dropped", 0)

    def snapshot(self) -> tuple[dict[str, Any], ...]:
        with self._lock:
            return tuple(dict(item) for item in self._ring)

    def tail(self, n: int) -> list[dict[str, Any]]:
        """The last ``n`` records (most recent last), as copies."""
        return self.delta_since(self.mark() - n) if n > 0 else []

    @property
    def dropped(self) -> int:
        """How many records the ring has discarded (local and absorbed)."""
        with self._lock:
            return self._dropped

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def write_jsonl(self, path: str) -> int:
        """Dump the retained records as JSONL; returns the count."""
        items = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            for item in items:
                handle.write(json.dumps(item, sort_keys=True) + "\n")
        return len(items)


class Journal(Ring):
    """The flight recorder: a ring of structured events.

    Events are ``{"seq", "ts", "kind", "corr"[, "attrs"]}``; ``seq`` is
    the event's position in this ring's stream, and absorbed events
    keep their origin ``seq``/``ts``/``corr``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        super().__init__(capacity)
        #: Recording switch: ``False`` makes :meth:`record` a no-op (the
        #: overhead-guard baseline).
        self.enabled = True

    def record(self, kind: str, corr: str | None = None, **attrs: Any) -> None:
        """Append one event (``kind`` plus free-form attributes)."""
        if not self.enabled:
            return
        event: dict[str, Any] = {
            "seq": 0,  # assigned under the lock
            "ts": round(time.time(), 6),
            "kind": kind,
            "corr": corr,
        }
        if attrs:
            event["attrs"] = attrs
        with self._lock:
            event["seq"] = self._appended + 1
            self._append(event)


# -- span aggregates ------------------------------------------------------------
#
# An aggregate is ``[count, total_s, min_s, max_s, {bucket: count}]``,
# keyed by ``(name, engine-or-None)``.  Plain lists and dicts, so deltas
# pickle; two aggregates merge by adding counts, sums and buckets.


def bucket_index(seconds: float) -> int:
    """The log bucket a duration falls in (0 for anything <= 1 µs)."""
    if seconds <= BUCKET_FLOOR_S:
        return 0
    return math.ceil(math.log2(seconds / BUCKET_FLOOR_S) * BUCKETS_PER_OCTAVE)


def bucket_edge(index: int) -> float:
    """The upper edge, in seconds, of log bucket ``index``."""
    return BUCKET_FLOOR_S * 2.0 ** (index / BUCKETS_PER_OCTAVE)


def _observe(aggregates: dict, key: tuple, seconds: float) -> None:
    _merge_aggregate(aggregates, key,
                     [1, seconds, seconds, seconds, {bucket_index(seconds): 1}])


def _copy(agg: list) -> list:
    return [*agg[:4], dict(agg[4])]


def _merge_aggregate(aggregates: dict, key: Any, other: list) -> None:
    agg = aggregates.get(key)
    if agg is None:
        aggregates[key] = _copy(other)
        return
    agg[0] += other[0]
    agg[1] += other[1]
    agg[2] = min(agg[2], other[2])
    agg[3] = max(agg[3], other[3])
    buckets = agg[4]
    for index, n in other[4].items():
        buckets[index] = buckets.get(index, 0) + n


def _quantile(agg: list, q: float) -> float:
    """Nearest-rank quantile from the buckets, clamped to [min, max]."""
    rank = max(1, math.ceil(q * agg[0]))
    seen = 0
    for index in sorted(agg[4]):
        seen += agg[4][index]
        if seen >= rank:
            break
    return min(max(bucket_edge(index), agg[2]), agg[3])


def _group_key(name: str, attrs: Mapping[str, Any]) -> tuple:
    group = attrs.get(GROUP_BY) if attrs else None
    return (name, None if group is None else str(group))


def aggregate_samples(samples: Iterable[Mapping[str, Any]]) -> dict:
    """Aggregates of raw span samples (a request's own spans, say)."""
    aggregates: dict = {}
    for sample in samples:
        _observe(aggregates, _group_key(sample["name"], sample.get("attrs")),
                 sample["seconds"])
    return aggregates


def summary_rows(aggregates: Mapping[tuple, list],
                 group_by: str | None = None) -> dict[str, dict[str, Any]]:
    """Per-name count/total/min/max/p50/p95/p99 from aggregates.

    With ``group_by="engine"`` the rows split into ``name{engine=...}``
    for spans carrying an engine; otherwise groups fold into their name
    (exactly: aggregates merge by addition).
    """
    if group_by not in (None, GROUP_BY):
        raise ValueError(
            f"span aggregates are grouped by {GROUP_BY!r} only, "
            f"not {group_by!r}"
        )
    folded: dict[str, list] = {}
    for (name, group), agg in aggregates.items():
        key = name if group is None or group_by is None else (
            f"{name}{{{GROUP_BY}={group}}}")
        _merge_aggregate(folded, key, agg)
    return {
        name: {
            "count": agg[0],
            "total_s": round(agg[1], 6),
            "min_s": round(agg[2], 6),
            "max_s": round(agg[3], 6),
            "p50_s": round(_quantile(agg, 0.50), 6),
            "p95_s": round(_quantile(agg, 0.95), 6),
            "p99_s": round(_quantile(agg, 0.99), 6),
        }
        for name, agg in folded.items()
    }


class SpanRecorder(Ring):
    """Completed spans: streaming per-name aggregates plus a raw ring.

    Every recorded span updates its name's aggregate *and* lands in the
    ring as a plain ``{"name", "seconds"[, "attrs"]}`` dict.  Summaries
    and histograms read the aggregates, so they cover every span ever
    recorded or absorbed; the ring keeps only the most recent samples.
    """

    def __init__(self, capacity: int = SPAN_RING_CAPACITY) -> None:
        super().__init__(capacity)
        self._aggregates: dict[tuple, list] = {}

    # -- recording -----------------------------------------------------------

    def record(self, name: str, seconds: float, **attrs: Any) -> None:
        """Record one completed span (``seconds`` of wall-clock time)."""
        sample: dict[str, Any] = {"name": name, "seconds": seconds}
        if attrs:
            sample["attrs"] = attrs
        key = _group_key(name, attrs)
        with self._lock:
            _observe(self._aggregates, key, seconds)
            self._append(sample)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time a region of work on the monotonic clock.

        Yields the (mutable) attribute dict, so callers can attach
        results that only exist once the work is done.
        """
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            self.record(name, time.perf_counter() - start, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration marker (a point event)."""
        self.record(name, 0.0, **attrs)

    def merge(self, samples: Iterable[Mapping[str, Any]]) -> None:
        """Record copies of raw samples (another recorder's delta)."""
        for sample in samples:
            self.record(sample["name"], sample["seconds"],
                        **(sample.get("attrs") or {}))

    # -- transport -------------------------------------------------------------

    def transport(self) -> dict[str, Any]:
        part = super().transport()
        with self._lock:
            part["aggregates"] = dict(self._aggregates)
        return part

    def absorb(self, part: Mapping[str, Any]) -> None:
        super().absorb(part)
        with self._lock:
            for key, agg in part.get("aggregates", {}).items():
                _merge_aggregate(self._aggregates, key, agg)

    def reset(self) -> None:
        with self._lock:
            self._aggregates.clear()
        super().reset()

    # -- views -----------------------------------------------------------------

    def summary(self, group_by: str | None = None) -> dict[str, dict[str, Any]]:
        """Per-name rows over every span recorded (see :func:`summary_rows`)."""
        with self._lock:
            aggregates = {key: _copy(agg)
                          for key, agg in self._aggregates.items()}
        return summary_rows(aggregates, group_by)

    def histogram(self, name: str) -> list[tuple[float, int]]:
        """``(upper_edge_seconds, count)`` log buckets of one span name."""
        folded: dict = {}
        with self._lock:
            for (span_name, _group), agg in self._aggregates.items():
                if span_name == name:
                    _merge_aggregate(folded, name, agg)
        buckets = folded[name][4] if folded else {}
        return [(bucket_edge(i), buckets[i]) for i in sorted(buckets)]

    def render(self, group_by: str | None = None) -> str:
        """Human-readable span table (the ``perf`` CLI companion)."""
        summary = self.summary(group_by=group_by)
        width = max([26] + [len(name) for name in summary])
        header = (
            f"{'span':<{width}} {'count':>6} {'total_s':>9} {'p50_s':>9} "
            f"{'p95_s':>9} {'p99_s':>9} {'max_s':>9}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(summary):
            row = summary[name]
            lines.append(
                f"{name:<{width}} {row['count']:>6} {row['total_s']:>9.4f} "
                f"{row['p50_s']:>9.4f} {row['p95_s']:>9.4f} "
                f"{row['p99_s']:>9.4f} {row['max_s']:>9.4f}"
            )
        return "\n".join(lines)


# -- labeled instruments ---------------------------------------------------------


class MetricsError(ValueError):
    """An instrument was misused or re-registered with another shape."""


class _Family:
    """One declared instrument: kind, help, label names, per-label state.

    Samples map a label-values tuple to a number (counter, gauge) or to
    histogram state ``[bucket_counts + [overflow], sum, count]``.
    """

    __slots__ = ("lock", "name", "kind", "help", "label_names", "buckets",
                 "samples")

    def __init__(self, lock, name, kind, help_text, label_names, buckets):
        self.lock = lock
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self.samples: dict[tuple, Any] = {}

    def labels(self, **values: Any) -> "_Handle":
        if set(values) != set(self.label_names):
            raise MetricsError(
                f"instrument {self.name!r} takes labels "
                f"{self.label_names}, got {tuple(sorted(values))}"
            )
        return _Handle(self, tuple(str(values[n]) for n in self.label_names))

    def blank(self) -> list:
        return [[0] * (len(self.buckets) + 1), 0.0, 0]

    def __getattr__(self, name: str):
        # ``inc``/``set``/``set_max``/``observe`` on the family itself
        # write its unlabeled sample.
        if name in ("inc", "set", "set_max", "observe"):
            return getattr(self.labels(), name)
        raise AttributeError(name)


class _Handle:
    """An instrument bound to one label combination."""

    __slots__ = ("family", "key")

    def __init__(self, family: _Family, key: tuple) -> None:
        self.family = family
        self.key = key

    def _require(self, kind: str) -> _Family:
        if self.family.kind != kind:
            raise MetricsError(
                f"{self.family.kind} {self.family.name!r} is not a {kind}")
        return self.family

    def inc(self, amount: int | float = 1) -> None:
        family = self._require("counter")
        if amount < 0:
            raise MetricsError(f"counter {family.name!r} cannot decrease")
        with family.lock:
            family.samples[self.key] = family.samples.get(self.key, 0) + amount

    def set(self, value: int | float) -> None:
        family = self._require("gauge")
        with family.lock:
            family.samples[self.key] = value

    def set_max(self, value: int | float) -> None:
        """High-water-mark update (what cache peaks do)."""
        family = self._require("gauge")
        with family.lock:
            if value > family.samples.get(self.key, float("-inf")):
                family.samples[self.key] = value

    def observe(self, value: int | float) -> None:
        family = self._require("histogram")
        index = bisect.bisect_left(family.buckets, value)  # last: overflow
        with family.lock:
            state = family.samples.get(self.key) or family.blank()
            family.samples[self.key] = state
            state[0][index] += 1
            state[1] += value
            state[2] += 1


class MetricsRegistry:
    """A context-owned table of labeled instruments.

    Declaration is idempotent per name; re-declaring a name with a
    different kind, label set, or bucket layout raises
    :class:`MetricsError`.  Counters and histograms merge by addition,
    gauges by max (a shipped gauge is a shard's peak).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _declare(self, name: str, kind: str, help_text: str,
                 labels: Iterable[str],
                 buckets: tuple[float, ...] | None = None) -> _Family:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(
                    self._lock, name, kind, help_text, label_names, buckets)
                return family
        if (family.kind, family.label_names, family.buckets) != (
                kind, label_names, buckets):
            raise MetricsError(
                f"instrument {name!r} already registered as {family.kind}"
                f"{family.label_names} buckets={family.buckets}, not "
                f"{kind}{label_names} buckets={buckets}"
            )
        return family

    def counter(self, name: str, help_text: str = "",
                labels: Iterable[str] = ()) -> _Family:
        return self._declare(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Iterable[str] = ()) -> _Family:
        return self._declare(name, "gauge", help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> _Family:
        edges = tuple(sorted(float(edge) for edge in buckets))
        if not edges:
            raise MetricsError(f"histogram {name!r} needs at least one bucket")
        return self._declare(name, "histogram", help_text, labels, edges)

    def snapshot(self) -> dict[str, Any]:
        """Every family and sample, as one plain (picklable) dict."""
        out: dict[str, Any] = {}
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                samples = []
                for key in sorted(family.samples):
                    labels = dict(zip(family.label_names, key))
                    state = family.samples[key]
                    if family.kind == "histogram":
                        samples.append({
                            "labels": labels,
                            "buckets": [list(pair) for pair in
                                        zip(family.buckets, state[0])],
                            "overflow": state[0][-1], "sum": state[1],
                            "count": state[2],
                        })
                    else:
                        samples.append({"labels": labels, "value": state})
                out[name] = {"kind": family.kind, "help": family.help,
                             "labels": list(family.label_names),
                             "samples": samples}
                if family.kind == "histogram":
                    out[name]["buckets"] = list(family.buckets)
        return out

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's snapshot into this one, losslessly."""
        for name, shipped in snapshot.items():
            kind = shipped["kind"]
            if kind not in ("counter", "gauge", "histogram"):
                raise MetricsError(f"unknown instrument kind {kind!r}")
            buckets = tuple(shipped["buckets"]) if kind == "histogram" else None
            family = self._declare(name, kind, shipped.get("help", ""),
                                   shipped.get("labels", ()), buckets)
            with self._lock:
                for sample in shipped["samples"]:
                    key = tuple(str(sample["labels"][label])
                                for label in family.label_names)
                    current = family.samples.get(key)
                    if kind == "histogram":
                        counts = [n for _edge, n in sample["buckets"]]
                        counts.append(sample["overflow"])
                        state = current or family.blank()
                        family.samples[key] = [
                            [a + b for a, b in zip(state[0], counts)],
                            state[1] + sample["sum"],
                            state[2] + sample["count"]]
                    elif kind == "counter":
                        family.samples[key] = (current or 0) + sample["value"]
                    elif current is None or sample["value"] > current:
                        family.samples[key] = sample["value"]

    def reset(self) -> None:
        with self._lock:
            self._families.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)


# -- the store -------------------------------------------------------------------


class TelemetryStore:
    """One context's bounded telemetry, with one delta/absorb pair."""

    __slots__ = ("counters", "cache_peaks", "spans", "journal", "metrics")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.cache_peaks: dict[str, int] = {}
        self.spans = SpanRecorder()
        self.journal = Journal()
        self.metrics = MetricsRegistry()

    def delta(self) -> dict[str, Any]:
        """The whole store as plain picklable data.

        An ephemeral context starts empty, so its whole store *is* the
        delta to ship home.  Ring records and aggregates are shared, not
        copied: records are never mutated once recorded, and absorbing
        copies an aggregate before adding to it.  Take the delta of a
        quiescent store (no thread still recording into it).
        """
        return {
            "counters": dict(self.counters),
            "cache_peaks": dict(self.cache_peaks),
            "spans": self.spans.transport(),
            "journal": self.journal.transport(),
            "instruments": self.metrics.snapshot(),
        }

    def absorb(self, delta: Mapping[str, Any]) -> None:
        """Merge another store's :meth:`delta` into this one.

        Counters add, peaks max, span aggregates add, rings append
        (counting what falls out), instruments merge by kind.  Every
        section is optional.
        """
        mine = self.counters
        for event, n in delta.get("counters", {}).items():
            mine[event] = mine.get(event, 0) + n
        peaks = self.cache_peaks
        for name, size in delta.get("cache_peaks", {}).items():
            if size > peaks.get(name, 0):
                peaks[name] = size
        if "spans" in delta:
            self.spans.absorb(delta["spans"])
        if "journal" in delta:
            self.journal.absorb(delta["journal"])
        if delta.get("instruments"):
            self.metrics.merge(delta["instruments"])
