"""Tests for the soundness harness: generators, sweep, incompleteness, audit."""

import os
import subprocess
import sys

import pytest

from repro.logic import paper_schemas, schema
from repro.model import check_run
from repro.protocols import forwarding, kerberos
from repro.semantics import GoodRunVector
from repro.soundness import (
    GeneratorConfig,
    audit_protocol,
    check_incompleteness,
    generate_system,
    generate_systems,
    incompleteness_formula,
    pool_from_system,
    sweep_system,
    sweep_systems,
)
from repro.terms import Key, Nonce, Principal, Says


class TestGenerators:
    def test_generated_systems_are_wellformed(self):
        system = generate_system(GeneratorConfig(seed=7))
        for run in system.runs:
            assert check_run(run) == [], run.name

    def test_generation_is_deterministic(self):
        a = generate_system(GeneratorConfig(seed=3))
        b = generate_system(GeneratorConfig(seed=3))
        assert a.runs == b.runs

    def test_generation_is_deterministic_across_processes(self):
        """A config fixes the system in every process: term hashes (and
        so frozenset orders) differ between interpreters, and must not
        steer the generator's draws."""
        script = (
            "from repro.soundness import GeneratorConfig, generate_system\n"
            "for seed in range(4):\n"
            "    system = generate_system(GeneratorConfig(seed=seed, runs=4,"
            " steps_per_run=40))\n"
            "    prop = system.vocabulary.proposition('p0')\n"
            "    for run in system.runs:\n"
            "        print(run.name, system.interpretation.holds(prop, run, 0))\n"
            "        for who, action in run.state(run.end_time).env.history:\n"
            "            print(who, action)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script], check=True,
                capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0].count("\n") > 400
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self):
        a = generate_system(GeneratorConfig(seed=1))
        b = generate_system(GeneratorConfig(seed=2))
        assert a.runs != b.runs

    def test_past_epoch_present(self):
        system = generate_system(GeneratorConfig(seed=0, past_steps=3))
        assert all(run.start_time == -3 for run in system.runs)

    def test_generate_systems_count(self):
        systems = generate_systems(3, base_seed=10)
        assert len(systems) == 3


class TestPool:
    def test_pool_has_all_shapes(self):
        system = generate_system(GeneratorConfig(seed=5))
        pool = pool_from_system(system)
        assert pool.principals and pool.keys and pool.messages
        assert pool.encrypted and pool.groups and pool.forwarded
        assert pool.formulas

    def test_environment_excluded_from_principals(self):
        system = generate_system(GeneratorConfig(seed=5))
        pool = pool_from_system(system)
        assert all(p.name != "Env" for p in pool.principals)


class TestSweep:
    def test_theorem1_on_one_system(self):
        """The headline check: every paper axiom holds at every point."""
        system = generate_system(GeneratorConfig(seed=11))
        report = sweep_system(system, max_instances_per_schema=80)
        assert report.total_instances > 0
        assert not report.essential_violations, [
            str(v) for v in report.essential_violations
        ]

    def test_sweep_merging(self):
        reports = sweep_systems(
            generate_systems(2, base_seed=20), max_instances_per_schema=30
        )
        assert reports.total_instances > 0
        assert "TOTAL" in reports.render()

    def test_single_schema_sweep(self):
        system = generate_system(GeneratorConfig(seed=4))
        report = sweep_system(
            system, schemas=(schema("A20"),), max_instances_per_schema=50
        )
        assert set(report.per_schema) == {"A20"}
        assert report.per_schema["A20"].sound

    def test_a11_nesting_counterexample_detected(self):
        """The documented caveat: A11 with an opaque (nested-unreadable)
        body is falsifiable; the sweep classifies it as non-essential."""
        from repro.model import RunBuilder, system_of
        from repro.terms import Vocabulary, encrypted, group

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

        system = system_of([build("r1", N2), build("r2", N3)],
                           vocabulary=vocab)
        report = sweep_system(system, schemas=(schema("A11"),),
                              max_instances_per_schema=200)
        a11 = report.per_schema["A11"]
        assert a11.violations, "expected the nesting counterexample"
        assert all(v.transparent_body is False for v in a11.violations)
        assert not a11.essential_violations


class TestIncompleteness:
    def test_formula_shape(self):
        formula = incompleteness_formula(Principal("P"), Key("K"), Nonce("X"))
        assert "controls" in str(formula) and "says" in str(formula)

    def test_valid_but_underivable(self):
        system = generate_system(GeneratorConfig(seed=9))
        principal = system.principals()[0]
        key = system.vocabulary.constants(_key_sort())[0]
        payload = system.vocabulary.constants(_nonce_sort())[0]
        result = check_incompleteness(system, principal, key, payload)
        assert result.validity_counterexample is None
        assert not result.engine_derives
        assert result.reproduces_paper


class TestAudit:
    def test_kerberos_audit_consistent(self):
        protocol = kerberos.at_protocol()
        system = kerberos.build_system()
        report = audit_protocol(protocol, system, "kerberos-normal")
        assert report.consistent, [
            str(e.formula) for e in report.inconsistencies()
        ]

    def test_forwarding_audit_consistent(self):
        protocol = forwarding.at_protocol()
        system = forwarding.build_system()
        report = audit_protocol(protocol, system, "courier-honest")
        assert report.consistent, [
            str(e.formula) for e in report.inconsistencies()
        ]


def _key_sort():
    from repro.terms import Sort

    return Sort.KEY


def _nonce_sort():
    from repro.terms import Sort

    return Sort.NONCE


class TestPatternHideSweep:
    def test_theorem1_under_pattern_hide(self):
        """Theorem 1 also sweeps clean under the identity-preserving
        hide variant (the A11 caveat classification applies to both)."""
        system = generate_system(GeneratorConfig(seed=17))
        report = sweep_system(
            system, max_instances_per_schema=50, pattern_hide=True
        )
        assert report.total_instances > 0
        assert not report.essential_violations

    def test_report_rendering_and_merge(self):
        system = generate_system(GeneratorConfig(seed=18))
        first = sweep_system(system, schemas=(schema("A21"),),
                             max_instances_per_schema=20)
        second = sweep_system(system, schemas=(schema("A21"),),
                              max_instances_per_schema=20)
        first.merge(second)
        assert first.per_schema["A21"].instances == 2 * (
            second.per_schema["A21"].instances
        )
        assert "A21" in first.render()
