"""The flight recorder: a bounded ring buffer of structured events.

Where :mod:`repro.perf` counts *how often* and :mod:`repro.obs.spans`
times *how long*, the journal remembers *what happened last*: a
bounded, thread-safe ring of structured events (system compilations,
cache evictions, compiler fallbacks, skipped good-runs stages, oracle
verdicts, shard merges) that a failing workload can be debugged from
after the fact.  Fuzz counterexamples attach the tail of their
iteration's journal next to the why-false trace, and ``python -m repro
obs --journal`` dumps a workload's ring as JSONL.

The ring itself (:class:`~repro.obs.store.Journal`) is part of each
engine context's :class:`~repro.obs.store.TelemetryStore`: it keeps the
last ``capacity`` events and counts what it dropped, so a long-lived
process cannot accumulate unbounded history (the "flight recorder"
contract: the recent past, always, cheaply).  Events are plain dicts
(``seq``/``ts``/``kind``/``corr`` plus free-form attributes), so they
pickle, ship home with the store's ``delta()``, and serialize to JSONL.

**Correlation IDs.**  Every event carries ``corr``: the correlation ID
of the context that recorded it (``EngineContext.corr_id``).  The
:func:`correlation` context manager installs an ID on the current
context; ephemeral contexts created with :func:`repro.context.fresh`
inherit the creator's ID, and the parallel sweep ships its ID to
worker shards, so one logical request keeps one ID across threads,
processes, and throwaway contexts.  Span attributes are stamped with
the same ID (see :func:`repro.obs.spans.span`), which is the
per-request provenance contract ``repro.serve`` builds on: one
``corr`` selects a request's events, spans, and
counterexamples out of any merged stream.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from typing import Any, Iterator

from repro import context as _context
from repro.obs.store import DEFAULT_CAPACITY, Journal  # noqa: F401 (re-export)


#: The module-level functions below delegate to the *current engine
#: context's* journal, mirroring ``spans`` and ``perf.counters``: one
#: shared ring per process by default, a private ring per session when
#: a workload runs under :func:`repro.context.use`.


def journal() -> Journal:
    return _context.current().journal


def record(kind: str, **attrs: Any) -> None:
    """Record one event, stamped with the current correlation ID."""
    ctx = _context.current()
    ctx.journal.record(kind, corr=ctx.corr_id, **attrs)


def tail(n: int) -> list[dict[str, Any]]:
    return journal().tail(n)


def snapshot() -> tuple[dict[str, Any], ...]:
    return journal().snapshot()


def write_jsonl(path: str) -> int:
    return journal().write_jsonl(path)


# -- correlation IDs ----------------------------------------------------------


def correlation_id() -> str | None:
    """The current context's correlation ID (None when unset)."""
    return _context.current().corr_id


def new_corr_id(prefix: str = "req") -> str:
    """A fresh, globally-unique correlation ID.

    Deterministic workloads (the fuzzer, tests) should build their own
    IDs from their seeds instead, so reports stay bit-reproducible.
    """
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


@contextmanager
def correlation(corr_id: str) -> Iterator[str]:
    """Install ``corr_id`` on the current context for the duration.

    Journal events and span attributes recorded inside the block carry
    the ID; the previous ID (usually None) is restored on exit, even
    across exceptions.
    """
    ctx = _context.current()
    previous = ctx.corr_id
    ctx.corr_id = corr_id
    try:
        yield corr_id
    finally:
        ctx.corr_id = previous
