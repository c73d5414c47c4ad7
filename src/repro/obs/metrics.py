"""Labeled metrics, the unified snapshot, and its exporters.

The engine measures itself into one bounded
:class:`~repro.obs.store.TelemetryStore` per context: flat counters
(:mod:`repro.perf`), span aggregates (:mod:`repro.obs.spans`), the
flight-recorder journal (:mod:`repro.obs.journal`), and the labeled
instruments of a :class:`~repro.obs.store.MetricsRegistry` — typed
counters (``sweep_instances{schema,engine}``), gauges and fixed-edge
histograms (``fuzz_iteration_seconds``), declared at their use sites.

This module reads all of it:

* :func:`unified_snapshot` — one plain dict covering the instruments,
  the perf counters / cache sizes / peaks / hit-rates, the span rows,
  and the depth of both rings.  Every section costs O(names), never
  O(spans recorded): span quantiles come from the aggregates' log
  buckets.  ``/metrics`` and per-response slices of ``repro.serve``
  are built from it.
* :func:`to_prometheus` / :func:`to_json` — render a unified snapshot
  as Prometheus exposition text (``# HELP``/``# TYPE`` + samples,
  histogram ``_bucket``/``_sum``/``_count``, span rows as ``quantile``
  samples) or as a JSON document.  Both are pure functions of the
  snapshot, so exports are testable byte-for-byte.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Iterable, Mapping

from repro import context as _context
from repro.obs.store import (  # noqa: F401 (re-exports)
    DEFAULT_BUCKETS,
    MetricsError,
    MetricsRegistry,
)


# -- module-level conveniences (the current context's registry) ---------------


def registry() -> MetricsRegistry:
    return _context.current().metrics


def counter(name: str, help_text: str = "", labels: Iterable[str] = ()):
    return registry().counter(name, help_text, labels)


# -- the unified snapshot ------------------------------------------------------


def unified_snapshot(meta: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Everything the current context knows about itself, in one dict.

    Sections: ``instruments`` (labeled metrics), ``perf`` (counters,
    cache sizes, peaks, hit rates — :func:`repro.perf.snapshot`),
    ``spans`` (per-name rows from the aggregates), ``span_ring`` and
    ``journal`` (depth, drop count, capacity of each ring), and
    optionally ``meta`` (a :func:`repro.obs.runmeta.run_metadata`
    fingerprint).  This is the input contract of :func:`to_prometheus`
    / :func:`to_json`.
    """
    from repro import perf

    ctx = _context.current()
    snapshot: dict[str, Any] = {
        "instruments": ctx.metrics.snapshot(),
        "perf": perf.snapshot(),
        "spans": ctx.spans.summary(),
        "span_ring": ring_stats(ctx.spans),
        "journal": ring_stats(ctx.journal),
    }
    if meta is not None:
        snapshot["meta"] = dict(meta)
    return snapshot


def ring_stats(ring) -> dict[str, int]:
    """Retained records, drop count and capacity of a telemetry ring."""
    return {"events": len(ring), "dropped": ring.dropped,
            "capacity": ring.capacity}


# -- exporters ------------------------------------------------------------------

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_FIX = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(raw: str, prefix: str = "repro_") -> str:
    name = prefix + _NAME_FIX.sub("_", raw)
    assert _NAME_OK.match(name)
    return name


def _escape(value: Any) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r'\"')
        .replace("\n", r"\n")
    )


def _labels_text(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_LABEL_FIX.sub("_", str(k))}="{_escape(v)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _value_text(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _family_lines(name: str, kind: str, help_text: str,
                  samples: list[tuple[str, Mapping[str, Any], Any]]) -> list[str]:
    """``# HELP``/``# TYPE`` plus one line per (suffix, labels, value)."""
    lines = []
    if help_text:
        lines.append(f"# HELP {name} {_escape(help_text)}")
    lines.append(f"# TYPE {name} {kind}")
    for suffix, labels, value in samples:
        lines.append(
            f"{name}{suffix}{_labels_text(labels)} {_value_text(value)}"
        )
    return lines


def to_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a unified snapshot in Prometheus text exposition format.

    Deterministic: families and samples are emitted in sorted order, so
    the same snapshot always renders the same bytes (golden-tested).
    """
    lines: list[str] = []

    meta = snapshot.get("meta")
    if meta:
        info_labels = {
            k: v for k, v in meta.items()
            if isinstance(v, (str, int, float, bool)) and v is not None
        }
        lines += _family_lines(
            "repro_build_info", "gauge",
            "Run fingerprint (git SHA, interpreter, platform).",
            [("", info_labels, 1)],
        )

    perf_section = snapshot.get("perf", {})
    for key, name, kind, label, help_text in (
        ("counters", "repro_perf_events_total", "counter", "event",
         "Flat perf counter table (layer.event increments)."),
        ("hit_rates", "repro_cache_hit_ratio", "gauge", "layer",
         "Cache hit rate per layer (hits / (hits + misses))."),
        ("cache_sizes", "repro_cache_entries", "gauge", "cache",
         "Live entry count of each registered cache."),
        ("cache_peaks", "repro_cache_peak_entries", "gauge", "cache",
         "High-water mark of each registered cache."),
    ):
        values = perf_section.get(key, {})
        if values:
            lines += _family_lines(name, kind, help_text, [
                ("", {label: item}, values[item]) for item in sorted(values)])

    span_summary = snapshot.get("spans", {})
    if span_summary:
        samples: list[tuple[str, Mapping[str, Any], Any]] = []
        for span_name in sorted(span_summary):
            row = span_summary[span_name]
            for quantile, key in (("0.5", "p50_s"), ("0.95", "p95_s"),
                                  ("0.99", "p99_s")):
                samples.append(
                    ("", {"span": span_name, "quantile": quantile}, row[key])
                )
            samples.append(("_sum", {"span": span_name}, row["total_s"]))
            samples.append(("_count", {"span": span_name}, row["count"]))
        lines += _family_lines(
            "repro_span_duration_seconds", "summary",
            "Wall-clock span quantiles (from log buckets).",
            samples,
        )

    for section, prefix, what in (
        ("span_ring", "repro_span_ring", "Raw span samples"),
        ("journal", "repro_journal", "Flight-recorder events"),
    ):
        ring = snapshot.get(section)
        if ring:
            lines += _family_lines(
                f"{prefix}_events", "gauge",
                f"{what} currently retained in the bounded ring.",
                [("", {}, ring["events"])])
            lines += _family_lines(
                f"{prefix}_dropped_total", "counter",
                f"{what} discarded by the bounded ring.",
                [("", {}, ring["dropped"])])
            lines += _family_lines(
                f"{prefix}_capacity", "gauge",
                f"{what} the bounded ring holds at most.",
                [("", {}, ring["capacity"])])

    for raw_name, family in sorted(snapshot.get("instruments", {}).items()):
        kind = family["kind"]
        name = _metric_name(raw_name)
        if kind == "counter" and not name.endswith("_total"):
            name += "_total"
        samples = []
        for sample in family["samples"]:
            labels = sample["labels"]
            if kind == "histogram":
                cumulative = 0
                for edge, count in sample["buckets"]:
                    cumulative += count
                    samples.append(
                        ("_bucket", {**labels, "le": _value_text(edge)},
                         cumulative)
                    )
                samples.append(
                    ("_bucket", {**labels, "le": "+Inf"},
                     cumulative + sample["overflow"])
                )
                samples.append(("_sum", labels, sample["sum"]))
                samples.append(("_count", labels, sample["count"]))
            else:
                samples.append(("", labels, sample["value"]))
        lines += _family_lines(name, kind, family.get("help", ""), samples)

    return "\n".join(lines) + "\n"


def to_json(snapshot: Mapping[str, Any]) -> str:
    """Render a unified snapshot as a stable JSON document."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
