"""Tests for the labeled-metrics registry and its exporters.

The registry is pinned in isolation (instrument types, label handling,
declaration idempotence and conflicts, histogram bucketing), then the
transport contract (snapshot/merge losslessness: counters and
histograms add, gauges take the max), the exporters (a byte-exact
golden Prometheus exposition from hand-built deterministic data, plus
line-shape validation and JSON round-trip), and finally the real
consumer: the parallel soundness sweep must merge to the same
instrument values at ``workers=4`` as at ``workers=1``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import context
from repro.obs import metrics
from repro.obs.metrics import MetricsError, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        family = registry.counter("requests", "Requests.", labels=("route",))
        family.labels(route="a").inc()
        family.labels(route="a").inc(2)
        family.labels(route="b").inc(5)
        snap = registry.snapshot()["requests"]
        assert snap["kind"] == "counter"
        assert snap["samples"] == [
            {"labels": {"route": "a"}, "value": 3},
            {"labels": {"route": "b"}, "value": 5},
        ]

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("c").inc(-1)

    def test_gauge_set_and_set_max(self):
        registry = MetricsRegistry()
        family = registry.gauge("depth")
        family.set(4)
        family.set(2)
        assert registry.snapshot()["depth"]["samples"][0]["value"] == 2
        family.set_max(9)
        family.set_max(1)
        assert registry.snapshot()["depth"]["samples"][0]["value"] == 9

    def test_histogram_buckets_overflow_sum_count(self):
        registry = MetricsRegistry()
        family = registry.histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            family.observe(value)
        (sample,) = registry.snapshot()["latency"]["samples"]
        assert sample["buckets"] == [[0.1, 1], [1.0, 2]]
        assert sample["overflow"] == 1
        assert sample["sum"] == pytest.approx(6.05)
        assert sample["count"] == 4

    def test_histogram_requires_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.histogram("empty", buckets=())

    def test_declaration_is_idempotent(self):
        registry = MetricsRegistry()
        registry.counter("hits", labels=("layer",)).labels(layer="x").inc()
        registry.counter("hits", labels=("layer",)).labels(layer="x").inc()
        (sample,) = registry.snapshot()["hits"]["samples"]
        assert sample["value"] == 2
        assert len(registry) == 1

    def test_conflicting_redeclaration_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing", labels=("a",))
        with pytest.raises(MetricsError):
            registry.gauge("thing", labels=("a",))
        with pytest.raises(MetricsError):
            registry.counter("thing", labels=("b",))
        registry.histogram("hist", buckets=(1.0,))
        with pytest.raises(MetricsError):
            registry.histogram("hist", buckets=(2.0,))

    def test_wrong_labels_raise(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", labels=("layer",))
        with pytest.raises(MetricsError):
            family.labels(wrong="x")
        with pytest.raises(MetricsError):
            family.labels()


class TestMerge:
    def test_counters_add_gauges_max_histograms_add(self):
        left = MetricsRegistry()
        left.counter("hits").inc(3)
        left.gauge("peak").set(10)
        left.histogram("lat", buckets=(1.0,)).observe(0.5)
        right = MetricsRegistry()
        right.counter("hits").inc(4)
        right.gauge("peak").set(7)
        hist = right.histogram("lat", buckets=(1.0,))
        hist.observe(0.25)
        hist.observe(2.0)

        left.merge(right.snapshot())
        snap = left.snapshot()
        assert snap["hits"]["samples"][0]["value"] == 7
        assert snap["peak"]["samples"][0]["value"] == 10
        (lat,) = snap["lat"]["samples"]
        assert lat["buckets"] == [[1.0, 2]]
        assert lat["overflow"] == 1
        assert lat["count"] == 3

    def test_merge_into_empty_equals_source(self):
        source = MetricsRegistry()
        source.counter("hits", labels=("layer",)).labels(layer="a").inc(2)
        source.gauge("depth").set(5)
        target = MetricsRegistry()
        target.merge(source.snapshot())
        assert target.snapshot() == source.snapshot()

    def test_sharded_merge_equals_sequential(self):
        # Four "shards" each record a slice; merging their snapshots in
        # any order reproduces the sequential recording exactly.
        sequential = MetricsRegistry()
        shards = [MetricsRegistry() for _ in range(4)]
        for index, shard in enumerate(shards):
            for registry in (sequential, shard):
                counter = registry.counter("work", labels=("shard",))
                counter.labels(shard=str(index % 2)).inc(index + 1)
                registry.gauge("peak").set_max(index * 10)
                registry.histogram("lat", buckets=(1.0, 2.0)).observe(index)
        merged = MetricsRegistry()
        for shard in reversed(shards):
            merged.merge(shard.snapshot())
        assert merged.snapshot() == sequential.snapshot()

    def test_merge_rejects_unknown_kind(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.merge({"x": {"kind": "mystery", "samples": []}})


#: Raw durations behind the golden ``sweep.schema`` row: its quantiles
#: are the log-bucket estimates ``summarize`` derives from them.
GOLDEN_SPAN_SECONDS = (0.1, 0.125, 0.075, 0.2)

GOLDEN_SNAPSHOT = {
    "meta": {"command": "test", "git_sha": "abc123", "python": "3.11"},
    "perf": {
        "counters": {"intern.hit": 10, "intern.miss": 2},
        "hit_rates": {"intern": 0.8},
        "cache_sizes": {"intern": 7},
        "cache_peaks": {"intern": 9},
    },
    "spans": {
        "sweep.schema": {
            "count": 4, "total_s": 0.5, "min_s": 0.075, "max_s": 0.2,
            "p50_s": 0.10107, "p95_s": 0.2, "p99_s": 0.2,
        },
    },
    "span_ring": {"events": 1024, "dropped": 7, "capacity": 1024},
    "journal": {"events": 3, "dropped": 1, "capacity": 4096},
    "instruments": {
        "sweep_instances": {
            "kind": "counter",
            "help": "Schema instances checked by the sweep.",
            "labels": ["schema", "engine"],
            "samples": [
                {"labels": {"schema": "A1", "engine": "compiled"},
                 "value": 42},
            ],
        },
        "fuzz_iteration_seconds": {
            "kind": "histogram",
            "help": "Wall-clock per fuzz iteration.",
            "labels": [],
            "buckets": [0.01, 0.1],
            "samples": [
                {"labels": {}, "buckets": [[0.01, 2], [0.1, 1]],
                 "overflow": 1, "sum": 0.75, "count": 4},
            ],
        },
    },
}

GOLDEN_EXPOSITION = """\
# HELP repro_build_info Run fingerprint (git SHA, interpreter, platform).
# TYPE repro_build_info gauge
repro_build_info{command="test",git_sha="abc123",python="3.11"} 1
# HELP repro_perf_events_total Flat perf counter table (layer.event increments).
# TYPE repro_perf_events_total counter
repro_perf_events_total{event="intern.hit"} 10
repro_perf_events_total{event="intern.miss"} 2
# HELP repro_cache_hit_ratio Cache hit rate per layer (hits / (hits + misses)).
# TYPE repro_cache_hit_ratio gauge
repro_cache_hit_ratio{layer="intern"} 0.8
# HELP repro_cache_entries Live entry count of each registered cache.
# TYPE repro_cache_entries gauge
repro_cache_entries{cache="intern"} 7
# HELP repro_cache_peak_entries High-water mark of each registered cache.
# TYPE repro_cache_peak_entries gauge
repro_cache_peak_entries{cache="intern"} 9
# HELP repro_span_duration_seconds Wall-clock span quantiles (from log buckets).
# TYPE repro_span_duration_seconds summary
repro_span_duration_seconds{quantile="0.5",span="sweep.schema"} 0.10107
repro_span_duration_seconds{quantile="0.95",span="sweep.schema"} 0.2
repro_span_duration_seconds{quantile="0.99",span="sweep.schema"} 0.2
repro_span_duration_seconds_sum{span="sweep.schema"} 0.5
repro_span_duration_seconds_count{span="sweep.schema"} 4
# HELP repro_span_ring_events Raw span samples currently retained in the bounded ring.
# TYPE repro_span_ring_events gauge
repro_span_ring_events 1024
# HELP repro_span_ring_dropped_total Raw span samples discarded by the bounded ring.
# TYPE repro_span_ring_dropped_total counter
repro_span_ring_dropped_total 7
# HELP repro_span_ring_capacity Raw span samples the bounded ring holds at most.
# TYPE repro_span_ring_capacity gauge
repro_span_ring_capacity 1024
# HELP repro_journal_events Flight-recorder events currently retained in the bounded ring.
# TYPE repro_journal_events gauge
repro_journal_events 3
# HELP repro_journal_dropped_total Flight-recorder events discarded by the bounded ring.
# TYPE repro_journal_dropped_total counter
repro_journal_dropped_total 1
# HELP repro_journal_capacity Flight-recorder events the bounded ring holds at most.
# TYPE repro_journal_capacity gauge
repro_journal_capacity 4096
# HELP repro_fuzz_iteration_seconds Wall-clock per fuzz iteration.
# TYPE repro_fuzz_iteration_seconds histogram
repro_fuzz_iteration_seconds_bucket{le="0.01"} 2
repro_fuzz_iteration_seconds_bucket{le="0.1"} 3
repro_fuzz_iteration_seconds_bucket{le="+Inf"} 4
repro_fuzz_iteration_seconds_sum 0.75
repro_fuzz_iteration_seconds_count 4
# HELP repro_sweep_instances_total Schema instances checked by the sweep.
# TYPE repro_sweep_instances_total counter
repro_sweep_instances_total{engine="compiled",schema="A1"} 42
"""

#: One valid exposition line: a comment, or ``name{labels} value``.
_LINE_SHAPE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"
    r" (-?[0-9.e+-]+|[+-]Inf|NaN))$"
)


class TestExporters:
    def test_golden_prometheus_exposition(self):
        # Byte-exact: the exporter sorts families, samples, and labels,
        # so a fixed snapshot must always render these exact lines.
        assert metrics.to_prometheus(GOLDEN_SNAPSHOT) == GOLDEN_EXPOSITION
        # The golden span row is what the bucket aggregates give.
        from repro.obs.spans import summarize

        assert summarize(
            {"name": "sweep.schema", "seconds": s} for s in GOLDEN_SPAN_SECONDS
        ) == GOLDEN_SNAPSHOT["spans"]

    def test_every_line_is_valid_exposition(self):
        text = metrics.to_prometheus(GOLDEN_SNAPSHOT)
        for line in text.rstrip("\n").split("\n"):
            assert _LINE_SHAPE.match(line), f"malformed line: {line!r}"

    def test_counter_names_get_total_suffix_once(self):
        text = metrics.to_prometheus(GOLDEN_SNAPSHOT)
        assert "repro_sweep_instances_total{" in text
        assert "repro_sweep_instances_total_total" not in text

    def test_histogram_buckets_are_cumulative(self):
        text = metrics.to_prometheus(GOLDEN_SNAPSHOT)
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_fuzz_iteration_seconds_bucket")
        ]
        assert counts == sorted(counts) == [2, 3, 4]

    def test_label_values_are_escaped(self):
        snapshot = {
            "instruments": {
                "odd": {
                    "kind": "gauge", "help": "", "labels": ["text"],
                    "samples": [
                        {"labels": {"text": 'a"b\\c\nd'}, "value": 1},
                    ],
                },
            },
        }
        text = metrics.to_prometheus(snapshot)
        assert r'text="a\"b\\c\nd"' in text

    def test_json_round_trip(self):
        text = metrics.to_json(GOLDEN_SNAPSHOT)
        assert json.loads(text) == GOLDEN_SNAPSHOT

    def test_unified_snapshot_sections(self):
        with context.scoped("unified-test") as ctx:
            ctx.corr_id = "req-snap"
            metrics.counter("touched").inc()
            from repro.obs import journal
            journal.record("compile")
            snapshot = metrics.unified_snapshot(meta={"command": "test"})
        assert snapshot["instruments"]["touched"]["samples"][0]["value"] == 1
        assert snapshot["journal"]["events"] == 1
        assert snapshot["meta"] == {"command": "test"}
        assert {"perf", "spans"} <= set(snapshot)
        # And the whole thing exports without error.
        assert metrics.to_prometheus(snapshot).startswith("# HELP")


class TestSweepIntegration:
    def test_parallel_merge_matches_sequential(self):
        """workers=4 must merge to the same instruments as workers=1.

        The sweep declares per-(schema, engine) instance/violation
        counters in whichever context runs it; shards ship metric
        snapshots home over the same delta transport as counters and
        spans, and the merge (counters add) must be lossless.
        """
        from repro.soundness import generate_systems, sweep_systems

        systems = generate_systems(2, base_seed=1)

        def run(workers):
            ctx = context.fresh(f"metrics-sweep-{workers}")
            with context.use(ctx):
                ctx.corr_id = f"req-sweep-{workers}"
                sweep_systems(systems, max_instances_per_schema=20,
                              workers=workers)
                return (ctx.metrics.snapshot(),
                        ctx.journal.snapshot())

        sequential_metrics, sequential_journal = run(1)
        parallel_metrics, parallel_journal = run(4)

        assert parallel_metrics == sequential_metrics
        instances = sequential_metrics["sweep_instances"]["samples"]
        assert instances and sum(s["value"] for s in instances) > 0

        # The parallel journal additionally records one shard_merge
        # event per shard; every shipped event keeps the parent's
        # correlation ID.
        merges = [e for e in parallel_journal if e["kind"] == "shard_merge"]
        assert merges
        shipped = [e for e in parallel_journal if e["kind"] != "shard_merge"]
        for event in shipped:
            assert event["corr"] == "req-sweep-4"
        # Kind coverage matches; exact counts may not (each shard
        # process compiles the systems for itself, so the parallel run
        # legitimately journals *more* compile events, never fewer).
        sequential_kinds = [e["kind"] for e in sequential_journal]
        parallel_kinds = [e["kind"] for e in shipped]
        assert set(parallel_kinds) == set(sequential_kinds)
        for kind in set(sequential_kinds):
            assert (parallel_kinds.count(kind)
                    >= sequential_kinds.count(kind))
