"""Observability benches: span overhead and tracer cost.

Three measurements: raw span-recorder throughput (the aggregate update
and ring append are the per-phase cost every instrumented subsystem
pays), the evaluator
with the tracer disabled (the one-attribute-check hot path), and the
evaluator with the tracer enabled (the full evaluation-tree build) —
the last two over the same E3-style workload so the enabled/disabled
gap is directly readable from the bench table.
"""

import itertools

from repro.logic.axioms import AXIOMS
from repro.obs.spans import SpanRecorder
from repro.obs.trace import Tracer
from repro.semantics import Evaluator
from repro.soundness import GeneratorConfig, generate_system
from repro.soundness.sweep import pool_from_system


def _workload():
    system = generate_system(GeneratorConfig(seed=5))
    pool = pool_from_system(system)
    instances = [
        instance
        for schema in AXIOMS.values()
        for instance in itertools.islice(schema.instances(pool), 3)
    ]
    points = tuple(system.points())[:5]
    return system, instances, points


def test_span_recorder_throughput(benchmark):
    recorder = SpanRecorder()

    def record_many():
        for index in range(2000):
            recorder.record("bench", 0.001, index=index)
        n = recorder.summary()["bench"]["count"]
        recorder.reset()
        return n

    assert benchmark(record_many) == 2000


def test_eval_tracer_disabled(benchmark):
    system, instances, points = _workload()

    def sweep():
        evaluator = Evaluator(system)
        return sum(
            evaluator.evaluate(instance, run, k)
            for instance in instances
            for run, k in points
        )

    benchmark(sweep)


def test_eval_tracer_enabled(benchmark):
    system, instances, points = _workload()

    def sweep():
        tracer = Tracer()
        evaluator = Evaluator(system, tracer=tracer)
        total = sum(
            evaluator.evaluate(instance, run, k)
            for instance in instances
            for run, k in points
        )
        assert tracer.roots
        return total

    benchmark(sweep)
