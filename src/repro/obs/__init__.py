"""Observability: the telemetry store, its views, traces, run metadata.

* :mod:`repro.obs.store` — the one bounded telemetry store each
  :class:`~repro.context.EngineContext` owns: counters, cache peaks,
  span aggregates plus a raw-span ring, the journal ring, and labeled
  instruments, moved between contexts and processes by one
  ``delta()``/``absorb()`` pair;
* :mod:`repro.obs.spans` — named wall-clock spans recorded into the
  current context's store, with bucket-derived percentile summaries
  (the ``spans`` section of ``BENCH_sweep.json``);
* :mod:`repro.obs.journal` — the flight recorder: structured events
  (compilations, evictions, fallbacks, stage skips, oracle verdicts,
  shard merges) carrying correlation IDs that survive process
  boundaries; fuzz counterexamples attach its tail;
* :mod:`repro.obs.metrics` — the *unified snapshot* of a context's
  store with Prometheus and JSON exporters (``python -m repro obs``);
* :mod:`repro.obs.trace` — the opt-in evaluation tracer: the full
  "why-false" proof tree behind any verdict of the Section 6 truth
  definition, renderable or emitted as JSONL (``python -m repro
  trace``);
* :mod:`repro.obs.runmeta` — git SHA / interpreter / platform
  fingerprints embedded in benchmark and fuzz reports so trajectories
  are attributable across machines.
"""

from repro.obs import journal, metrics, spans
from repro.obs.runmeta import git_sha, run_metadata
from repro.obs.trace import (
    TraceNode,
    Tracer,
    render_why,
    trace_evaluation,
    trace_records,
)

__all__ = [
    "journal",
    "metrics",
    "spans",
    "git_sha",
    "run_metadata",
    "TraceNode",
    "Tracer",
    "render_why",
    "trace_evaluation",
    "trace_records",
]
