"""Tests for the span half of the observability layer.

The recorder is pinned in isolation (timing, bucket quantiles, the
bounded raw ring, the mark/delta/merge and aggregate absorb transport,
derived views), then against its real consumer: the parallel soundness
sweep must surface exactly the same per-schema spans at ``workers=4``
as at ``workers=1``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.spans import SpanRecorder, summarize
from repro.obs import spans as global_spans
from repro.obs.store import bucket_edge, bucket_index


class TestRecorder:
    def test_record_and_snapshot(self):
        recorder = SpanRecorder()
        recorder.record("work", 0.25, shard=3)
        recorder.record("work", 0.75)
        snap = recorder.snapshot()
        assert len(recorder) == 2
        assert snap[0] == {"name": "work", "seconds": 0.25,
                           "attrs": {"shard": 3}}
        assert "attrs" not in snap[1]

    def test_span_times_on_monotonic_clock(self):
        recorder = SpanRecorder()
        with recorder.span("region"):
            pass
        (sample,) = recorder.snapshot()
        assert sample["name"] == "region"
        assert sample["seconds"] >= 0.0

    def test_span_yields_mutable_attrs(self):
        recorder = SpanRecorder()
        with recorder.span("stage", depth=1) as attrs:
            attrs["survivors"] = 4
        (sample,) = recorder.snapshot()
        assert sample["attrs"] == {"depth": 1, "survivors": 4}

    def test_span_records_on_exception(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("doomed"):
                raise ValueError("boom")
        assert [s["name"] for s in recorder.snapshot()] == ["doomed"]

    def test_event_has_zero_duration(self):
        recorder = SpanRecorder()
        recorder.event("checkpoint", at="start")
        (sample,) = recorder.snapshot()
        assert sample["seconds"] == 0.0

    def test_thread_safe_appends(self):
        recorder = SpanRecorder()

        def worker():
            for _ in range(200):
                recorder.record("t", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder) == 800


class TestTransport:
    def test_mark_delta_merge_roundtrip(self):
        worker = SpanRecorder()
        worker.record("warmup", 0.1)
        mark = worker.mark()
        worker.record("shard", 0.2, index=0)
        worker.record("shard", 0.3, index=1)
        delta = worker.delta_since(mark)
        assert [s["seconds"] for s in delta] == [0.2, 0.3]

        parent = SpanRecorder()
        parent.record("local", 0.5)
        parent.merge(delta)
        names = [s["name"] for s in parent.snapshot()]
        assert names == ["local", "shard", "shard"]

    def test_delta_is_plain_picklable_data(self):
        import pickle

        worker = SpanRecorder()
        worker.record("shard", 0.2, schema="A1")
        delta = worker.delta_since(0)
        assert pickle.loads(pickle.dumps(delta)) == delta

    def test_merge_copies_samples(self):
        source = SpanRecorder()
        source.record("x", 1.0)
        delta = source.delta_since(0)
        sink = SpanRecorder()
        sink.merge(delta)
        delta[0]["seconds"] = 99.0
        assert sink.snapshot()[0]["seconds"] == 1.0


class TestBounds:
    def test_ring_is_capped_and_counts_drops(self):
        recorder = SpanRecorder(capacity=8)
        for index in range(50):
            recorder.record("tick", 0.001, index=index)
        assert len(recorder) == 8
        assert recorder.dropped == 42
        assert [s["attrs"]["index"] for s in recorder.snapshot()] == list(
            range(42, 50))
        # The aggregates saw every span, not just the retained ones.
        assert recorder.summary()["tick"]["count"] == 50

    def test_marks_survive_ring_wrap(self):
        recorder = SpanRecorder(capacity=3)
        recorder.record("old", 0.1)
        mark = recorder.mark()
        for index in range(5):
            recorder.record("new", 0.1, index=index)
        assert [s["attrs"]["index"] for s in recorder.delta_since(mark)] == [
            2, 3, 4]

    def test_absorb_adds_aggregates_and_keeps_drops_honest(self):
        # Aggregates merge by addition: absorbing shards in any order
        # equals recording everything in one recorder.
        sequential = SpanRecorder(capacity=4)
        shards = [SpanRecorder(capacity=4) for _ in range(3)]
        for index, shard in enumerate(shards):
            for n in range(index + 3):
                for recorder in (sequential, shard):
                    recorder.record("work", (n + 1) / 100, engine="e")
        merged = SpanRecorder(capacity=4)
        for shard in reversed(shards):
            merged.absorb(shard.transport())
        assert merged.summary() == sequential.summary()
        assert merged.summary("engine") == sequential.summary("engine")
        assert merged.histogram("work") == sequential.histogram("work")
        # Every span is either retained or counted as dropped.
        total = merged.summary()["work"]["count"]
        assert len(merged) == 4
        assert len(merged) + merged.dropped == total


class TestViews:
    def test_bucket_quantiles_within_one_bucket(self):
        # Quantiles come from the log buckets: nearest-rank over bucket
        # counts, reported as the bucket's upper edge clamped to the
        # exact [min, max].  One bucket is 2**(1/8) wide (~9%).
        recorder = SpanRecorder()
        for n in range(1, 101):
            recorder.record("d", n / 1000)
        row = recorder.summary()["d"]
        assert row["count"] == 100
        assert row["min_s"] == 0.001 and row["max_s"] == 0.1
        for key, exact in (("p50_s", 0.050), ("p95_s", 0.095),
                           ("p99_s", 0.099)):
            assert exact <= row[key] <= exact * 2 ** (1 / 8) + 1e-6
        single = SpanRecorder()
        single.record("one", 0.7)
        assert single.summary()["one"]["p99_s"] == 0.7
        assert bucket_index(bucket_edge(40)) == 40
        assert bucket_index(0.0) == 0

    def test_summarize_groups_by_name(self):
        samples = [
            {"name": "a", "seconds": 0.3},
            {"name": "a", "seconds": 0.1},
            {"name": "b", "seconds": 1.0},
        ]
        summary = summarize(samples)
        assert summary["a"]["count"] == 2
        assert summary["a"]["min_s"] == 0.1
        assert summary["a"]["max_s"] == 0.3
        assert summary["a"]["total_s"] == 0.4
        assert summary["b"]["p50_s"] == 1.0

    def test_histogram_buckets_log_scale(self):
        recorder = SpanRecorder()
        for seconds in (0.001, 0.002, 0.5, 0.0):
            recorder.record("h", seconds)
        buckets = recorder.histogram("h")
        assert sum(count for _edge, count in buckets) == 4
        edges = [edge for edge, _count in buckets]
        assert edges == sorted(edges)
        assert recorder.histogram("missing") == []

    def test_group_by_engine_splits_and_folds_exactly(self):
        recorder = SpanRecorder()
        recorder.record("stage", 0.1, engine="naive")
        recorder.record("stage", 0.3, engine="worklist")
        recorder.record("stage", 0.2)
        grouped = recorder.summary(group_by="engine")
        assert set(grouped) == {"stage", "stage{engine=naive}",
                                "stage{engine=worklist}"}
        folded = recorder.summary()["stage"]
        assert folded["count"] == 3
        assert folded["total_s"] == 0.6
        assert (folded["min_s"], folded["max_s"]) == (0.1, 0.3)
        with pytest.raises(ValueError):
            recorder.summary(group_by="schema")

    def test_render_mentions_every_name(self):
        recorder = SpanRecorder()
        recorder.record("alpha", 0.1)
        recorder.record("beta", 0.2)
        table = recorder.render()
        assert "alpha" in table and "beta" in table and "p95_s" in table

    def test_write_jsonl(self, tmp_path):
        recorder = SpanRecorder()
        recorder.record("io", 0.1, path="x")
        out = tmp_path / "spans.jsonl"
        assert recorder.write_jsonl(str(out)) == 1
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "io"


class TestSweepSpans:
    """The telemetry contract of the parallel soundness sweep."""

    def test_workers_4_spans_match_workers_1(self):
        from repro.soundness import generate_systems, sweep_systems

        systems = generate_systems(1, base_seed=0)
        global_spans.reset()
        sweep_systems(systems, max_instances_per_schema=8, workers=1)
        sequential = sorted(
            s["attrs"]["schema"] for s in global_spans.snapshot()
            if s["name"] == "sweep.schema"
        )
        global_spans.reset()
        sweep_systems(systems, max_instances_per_schema=8, workers=4)
        parallel = sorted(
            s["attrs"]["schema"] for s in global_spans.snapshot()
            if s["name"] == "sweep.schema"
        )
        global_spans.reset()
        # Every worker's per-schema span is shipped home: the parallel
        # run shows the same schema coverage, once each, plus the one
        # parent-side pool span.
        assert parallel == sequential
        assert len(sequential) > 0

    def test_workers_4_aggregates_match_workers_1(self):
        # Shards ship aggregates home and the parent adds them: the
        # merged counts (per name and engine) are exactly workers=1's.
        from repro import context
        from repro.soundness import generate_systems, sweep_systems

        systems = generate_systems(2, base_seed=1)

        def counts(workers):
            with context.scoped(f"aggregates-{workers}") as ctx:
                sweep_systems(systems, max_instances_per_schema=8,
                              workers=workers)
                return {
                    name: row["count"]
                    for name, row in ctx.spans.summary("engine").items()
                    if name.startswith("sweep.schema")
                }

        sequential = counts(1)
        assert sequential and sequential == counts(4)

    def test_parallel_sweep_adds_pool_span(self):
        from repro.soundness import generate_systems, sweep_systems

        systems = generate_systems(1, base_seed=3)
        global_spans.reset()
        sweep_systems(systems, max_instances_per_schema=5, workers=2)
        names = [s["name"] for s in global_spans.snapshot()]
        global_spans.reset()
        assert names.count("sweep.pool") == 1

    def test_goodruns_stage_spans(self):
        from repro.goodruns import (
            build_cointoss_example,
            construct_good_runs,
        )

        example = build_cointoss_example()
        global_spans.reset()
        result = construct_good_runs(example.system, example.assumptions)
        stages = [
            s for s in global_spans.snapshot()
            if s["name"] == "goodruns.stage"
        ]
        global_spans.reset()
        assert len(stages) == result.depth
        assert [s["attrs"]["depth"] for s in stages] == list(
            range(1, result.depth + 1)
        )
        assert all("survivors" in s["attrs"] for s in stages)
