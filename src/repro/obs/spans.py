"""Wall-clock spans: the timing half of the observability layer.

Where :mod:`repro.perf` answers "how often did each cache hit?", this
module answers "where did the time go?".  A *span* is one named,
monotonic-clock-timed region of work (``with spans.span("sweep.schema",
schema="A1"): ...``), recorded into the current engine context's
:class:`~repro.obs.store.SpanRecorder` (:mod:`repro.context`).

Each span feeds two bounded structures:

* the **aggregate** of its name — count, sum, min, max and fixed log
  buckets (split by the ``engine`` attribute when present).  Aggregates
  merge by addition, so a parallel sweep's shards and a daemon's
  batches fold home exactly; ``summary()``, ``histogram()`` and the
  Prometheus quantiles read them, at a cost of O(span names);
* a **raw ring** of the most recent samples (plain dicts, seq-marked
  like the journal) for JSONL export and per-request slices.  The ring
  drops its oldest samples past capacity and counts them.

Spans are coarse by convention: they wrap phases (a schema sweep, a
good-runs stage, a fuzz iteration), not individual ``_eval`` calls.
The per-formula story belongs to :mod:`repro.obs.trace`.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro import context as _context
from repro.obs.store import SpanRecorder, aggregate_samples, summary_rows


def summarize(
    samples: Iterable[Mapping[str, Any]],
    group_by: str | None = None,
) -> dict[str, dict[str, Any]]:
    """Per-name timing rows of raw span samples (bucket quantiles)."""
    return summary_rows(aggregate_samples(samples), group_by)


#: The module-level functions below delegate to the *current engine
#: context's* recorder, mirroring ``perf.counters``: one shared recorder
#: per process by default (the default context), a private one per
#: session when a workload runs under :func:`repro.context.use`.


def recorder() -> SpanRecorder:
    return _context.current().spans


def _stamp_corr(attrs: dict[str, Any]) -> dict[str, Any]:
    """Attach the current correlation ID (if any) to span attributes.

    The same ID lands on journal events (:mod:`repro.obs.journal`), so
    one ``corr`` value selects a request's spans *and* events out of
    any merged telemetry stream.
    """
    corr = _context.current().corr_id
    if corr is not None:
        attrs.setdefault("corr", corr)
    return attrs


def span(name: str, **attrs: Any):
    return recorder().span(name, **_stamp_corr(attrs))


def event(name: str, **attrs: Any) -> None:
    recorder().event(name, **_stamp_corr(attrs))


def snapshot() -> tuple[dict[str, Any], ...]:
    return recorder().snapshot()


def reset() -> None:
    recorder().reset()


def summary(group_by: str | None = None) -> dict[str, dict[str, Any]]:
    return recorder().summary(group_by=group_by)


def render(group_by: str | None = None) -> str:
    return recorder().render(group_by=group_by)
