"""The parallel soundness sweep must be indistinguishable from the
in-process one, and the forwarding fixes in ``sweep_systems`` must
actually forward.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro import context
from repro.logic import schema
from repro.logic.axioms import AXIOMS, Schema
from repro.model import RunBuilder, system_of
from repro.model.system import Interpretation
from repro.semantics.goodvectors import GoodRunVector
from repro.soundness import (
    DEFAULT_MAX_INSTANCES_PER_SCHEMA,
    GeneratorConfig,
    generate_system,
    generate_systems,
    sweep_system,
    sweep_systems,
)
from repro.soundness.sweep import (
    _schema_names,
    _slice_names,
    pool_from_system,
)
from repro.terms import Vocabulary, encrypted, group


def _report_fingerprint(report):
    """Everything observable about a report, as comparable data."""
    return (
        report.render(),
        {
            name: (
                r.instances,
                r.points_checked,
                [str(v) for v in r.violations],
            )
            for name, r in report.per_schema.items()
        },
    )


def _a11_violation_system():
    """The documented A11 nesting counterexample (violating system)."""
    vocab = Vocabulary()
    A, B = vocab.principals("A", "B")
    K1, K2 = vocab.keys("K1", "K2")
    N1, N2, N3 = vocab.nonces("N1", "N2", "N3")

    def build(name, inner):
        builder = RunBuilder([A, B], keysets={A: [K1], B: [K1, K2]})
        builder.send(
            B, encrypted(group(N1, encrypted(inner, K2, B)), K1, B), A
        )
        builder.receive(A)
        return builder.build(name)

    return system_of([build("r1", N2), build("r2", N3)], vocabulary=vocab)


class TestParallelEquivalence:
    def test_sweep_systems_workers_match_in_process(self):
        systems = generate_systems(2, base_seed=7)
        sequential = sweep_systems(systems, max_instances_per_schema=15)
        parallel = sweep_systems(
            systems, max_instances_per_schema=15, workers=2
        )
        assert _report_fingerprint(parallel) == _report_fingerprint(sequential)

    def test_sweep_system_workers_match_in_process(self):
        system = generate_system(GeneratorConfig(seed=13))
        sequential = sweep_system(system, max_instances_per_schema=15)
        parallel = sweep_system(
            system, max_instances_per_schema=15, workers=2
        )
        assert _report_fingerprint(parallel) == _report_fingerprint(sequential)

    def test_parallel_reproduces_violations(self):
        system = _a11_violation_system()
        schemas = (schema("A11"),)
        sequential = sweep_system(system, schemas=schemas,
                                  max_instances_per_schema=100)
        parallel = sweep_system(system, schemas=schemas,
                                max_instances_per_schema=100, workers=2)
        assert sequential.per_schema["A11"].violations
        assert _report_fingerprint(parallel) == _report_fingerprint(sequential)

    def test_unpicklable_interpretation_falls_back_in_process(self):
        system = generate_system(GeneratorConfig(seed=3))
        lambda_interp = Interpretation.from_predicate(
            lambda prop, run, k: False
        )
        closure_system = system_of(
            system.runs, lambda_interp, system.vocabulary
        )
        sequential = sweep_system(closure_system,
                                  max_instances_per_schema=10)
        parallel = sweep_system(closure_system,
                                max_instances_per_schema=10, workers=2)
        assert _report_fingerprint(parallel) == _report_fingerprint(sequential)

    def test_generated_systems_are_picklable(self):
        # The property the parallel path depends on: built-in
        # interpretations carry data, not closures.
        system = generate_system(GeneratorConfig(seed=1))
        revived = pickle.loads(pickle.dumps(system))
        assert [run.name for run in revived.runs] == [
            run.name for run in system.runs
        ]


class TestForwardingFixes:
    def test_sweep_systems_forwards_max_violations(self):
        system = _a11_violation_system()
        schemas = (schema("A11"),)
        capped = sweep_systems([system], schemas=schemas,
                               max_instances_per_schema=100,
                               max_violations_per_schema=1)
        uncapped = sweep_systems([system], schemas=schemas,
                                 max_instances_per_schema=100)
        assert len(capped.per_schema["A11"].violations) == 1
        assert len(uncapped.per_schema["A11"].violations) > 1

    def test_sweep_systems_forwards_goodruns(self):
        # A trusting good-run vector restricts belief; forwarding it
        # must produce the same report as the per-system call.
        system = generate_system(GeneratorConfig(seed=5))
        principal = system.principals()[0]
        vector = GoodRunVector.of({principal: [system.runs[0].name]})
        via_systems = sweep_systems([system], goodruns=vector,
                                    max_instances_per_schema=10)
        direct = sweep_system(system, goodruns=vector,
                              max_instances_per_schema=10)
        assert _report_fingerprint(via_systems) == _report_fingerprint(direct)

    def test_unified_default_instances(self):
        import inspect

        for fn in (sweep_system, sweep_systems):
            default = inspect.signature(fn).parameters[
                "max_instances_per_schema"
            ].default
            assert default == DEFAULT_MAX_INSTANCES_PER_SCHEMA


class TestShardingHelpers:
    def test_slice_names_partitions_in_order(self):
        names = tuple("abcdefg")
        for slices in (1, 2, 3, 7, 10):
            groups = _slice_names(names, slices)
            assert sum(groups, ()) == names
            assert len(groups) == min(slices, len(names))

    def test_schema_names_rejects_unregistered(self):
        from repro.logic.axioms import Schema

        foreign = Schema("X99", "not registered", lambda: None,
                         lambda pool: iter(()))
        assert _schema_names((foreign,)) is None
        assert _schema_names((schema("A1"), schema("A2"))) == ("A1", "A2")


class TestCrashSurfacing:
    """A worker that crashes mid-shard must surface its exception.

    Spawn refusal (no subprocess support) falls back in-process; a
    crash *inside* a shard must not — the two used to share an
    ``except (OSError, PermissionError)`` clause, so a poisoned shard
    raising ``OSError`` silently fell back after earlier shards'
    telemetry had already been merged (partial merge, then the
    fallback's own run double-counted it).
    """

    def _poison_schema(self, parent_pid):
        a1 = schema("A1")

        def poisoned_enumerator(pool):
            if os.getpid() != parent_pid:
                raise OSError("poisoned shard: simulated worker crash")
            return a1.enumerator(pool)

        return Schema(
            "ZZPOISON", "crashes only inside pool workers",
            a1.builder, poisoned_enumerator,
        )

    def test_poisoned_shard_raises_instead_of_partial_merge(self, monkeypatch):
        parent_pid = os.getpid()
        poison = self._poison_schema(parent_pid)
        # Registered so _schema_names accepts it; fork-started workers
        # inherit the patched registry.  (Under a spawn start method the
        # worker would fail to resolve the name — also an error, also
        # surfaced, so the assertion below tolerates both shapes.)
        monkeypatch.setitem(AXIOMS, "ZZPOISON", poison)
        system = generate_system(GeneratorConfig(seed=5))

        ctx = context.fresh("poison-sweep")
        with context.use(ctx):
            with pytest.raises(Exception) as excinfo:
                sweep_system(
                    system, schemas=(schema("A1"), poison),
                    max_instances_per_schema=4, workers=2,
                )
        assert not isinstance(excinfo.value, AssertionError)

        # All-or-nothing merge: the healthy A1 shard's telemetry must
        # NOT have been folded in before the crash surfaced.
        merged = ctx.journal.snapshot()
        assert not any(e["kind"] == "shard_merge" for e in merged)
        assert not any(
            event.startswith("compiled_eval.") for event in ctx.counters
        )
        assert not any(
            s["name"] == "sweep.schema" for s in ctx.spans.snapshot()
        )

    def test_healthy_parent_enumerator_is_harmless(self):
        # The poison only fires off-process; in the parent it must
        # behave exactly like A1 (guards the test above against
        # accidentally crashing the in-process path instead).
        poison = self._poison_schema(os.getpid())
        system = generate_system(GeneratorConfig(seed=5))
        pool = pool_from_system(system)
        assert list(poison.enumerator(pool)) == list(
            schema("A1").enumerator(pool)
        )
