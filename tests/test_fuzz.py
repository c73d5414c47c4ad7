"""Tests for the differential fuzzing and fault-injection subsystem.

The fuzzer's own acceptance run (``python -m repro fuzz --seed 0
--iterations 200``) is the integration test; here each piece is pinned
in isolation: every mutator's injected fault is classified exactly,
``deintern`` really produces structurally-equal non-canonical clones,
the shrinker minimizes a failing run without losing the failure, and
the harness/CLI smoke-run stays green on a fixed seed.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.__main__ import main
from repro.errors import ProofError
from repro.fuzz import (
    MUTATORS,
    PROOF_MUTATORS,
    FuzzConfig,
    ProofMutation,
    apply_random_mutator,
    apply_random_proof_mutator,
    check_clean_system,
    check_engine_replay,
    check_interpretation_agreement,
    check_mutation,
    check_proof_mutation,
    deintern,
    describe_proof,
    describe_run,
    generate_base_system,
    randomize_interpretation,
    replay_rules,
    run_fuzz,
    sample_assumptions,
    shrink_proof,
    shrink_run,
)
from repro.fuzz import mutators as mutators_module
from repro.fuzz import proof_mutators as proof_mutators_module
from repro.fuzz.generate import iteration_rng
from repro.logic.engine import Inference
from repro.logic.facts import Fact
from repro.logic.proof import ProofBuilder
from repro.model.wellformed import violation_classes
from repro.semantics.evaluator import Evaluator
from repro.soundness import GeneratorConfig, generate_system
from repro.terms.atoms import Key, Principal, Sort
from repro.terms.formulas import Believes, Says, Sees, SharedKey
from repro.terms.messages import encrypted, group
from repro.terms.ops import is_ground


@pytest.fixture(scope="module")
def systems():
    return [
        generate_system(GeneratorConfig(seed=seed, runs=2, steps_per_run=10))
        for seed in (0, 1, 2)
    ]


def _first_application(name, systems, attempts=30):
    """The first (mutation, base run) the named mutator yields over a
    deterministic schedule of runs and RNG streams."""
    mutator = MUTATORS[name]
    for attempt in range(attempts):
        rng = random.Random(f"test:{name}:{attempt}")
        for system in systems:
            for run in system.runs:
                mutation = mutator(rng, run)
                if mutation is not None:
                    return mutation, run
    return None, None


class TestMutators:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_injected_fault_classified_exactly(self, name, systems):
        mutation, base = _first_application(name, systems)
        assert mutation is not None, f"{name} never applied on fixed seeds"
        # The base run is clean, the mutant is flagged as tagged — and
        # as *only* what was tagged (every mutator is surgical/exact).
        assert violation_classes(base) == frozenset()
        assert violation_classes(mutation.run) == mutation.expected
        assert mutation.exact
        assert check_mutation(mutation) is None

    def test_benign_mutator_preserves_wellformedness(self, systems):
        mutation, _base = _first_application("duplicate_send", systems)
        assert mutation is not None
        assert mutation.expected == frozenset()
        assert violation_classes(mutation.run) == frozenset()

    def test_apply_random_mutator_deterministic(self, systems):
        run = systems[0].runs[0]
        first = apply_random_mutator(random.Random("fixed"), run)
        second = apply_random_mutator(random.Random("fixed"), run)
        assert first is not None and second is not None
        assert first.name == second.name
        assert first.run == second.run

    def test_generated_systems_are_clean(self, systems):
        for system in systems:
            assert check_clean_system(system) == []


class TestDeintern:
    def test_clone_is_equal_but_not_canonical(self):
        from repro.terms.atoms import Key, Nonce, Principal

        term = group(
            encrypted(Nonce("N1"), Key("K1"), Principal("A")), Nonce("N2")
        )
        clone = deintern(term)
        assert clone is not term
        assert clone == term
        assert hash(clone) == hash(term)
        # Subterms are cloned too — nothing canonical leaks through.
        assert clone.parts[0] is not term.parts[0]

    def test_clone_formula_evaluates_identically(self, systems):
        from repro.semantics.evaluator import Evaluator

        system = systems[0]
        from repro.terms.atoms import Sort

        principal = system.principals()[0]
        key = system.vocabulary.constants(Sort.KEY)[0]
        run = system.runs[0]
        formula = Believes(principal, Says(principal, key))
        clone = deintern(formula)
        assert clone == formula
        evaluator = Evaluator(system)
        for k in run.times:
            assert evaluator.evaluate(clone, run, k) == evaluator.evaluate(
                formula, run, k
            )


class TestShrink:
    def test_shrinks_injected_fault_to_minimum(self, systems):
        mutation, _base = _first_application("receive_unsent", systems)
        assert mutation is not None
        expected = mutation.expected

        def still_fails(candidate):
            return violation_classes(candidate) == expected

        minimal = shrink_run(mutation.run, still_fails)
        assert violation_classes(minimal) == expected
        assert len(minimal.states) <= len(mutation.run.states)
        # The orphan receive needs no other traffic: greedy removal
        # strips the well-formed prefix down to (almost) nothing.
        history = minimal.states[-1].env.history
        assert len(history) <= 2

    def test_shrink_keeps_run_valid(self, systems):
        mutation, _base = _first_application("shrink_keyset", systems)
        assert mutation is not None
        minimal = shrink_run(
            mutation.run,
            lambda candidate: "WF1" in violation_classes(candidate),
        )
        # Still a structurally valid run: describable, time window intact.
        lines = describe_run(minimal)
        assert lines and minimal.start_time <= 0 <= minimal.end_time

    def test_shrink_noop_on_predicate_never_failing_smaller(self, systems):
        run = systems[0].runs[0]
        result = shrink_run(run, lambda candidate: candidate is run)
        assert result is run


class TestHarness:
    def test_fixed_seed_campaign_is_green_and_reproducible(self):
        config = FuzzConfig(seed=7, iterations=6, parallel_every=0)
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert first.ok, [c.to_json() for c in first.counterexamples]
        assert first.iterations == 6
        assert first.to_json()["mutations"] == second.to_json()["mutations"]
        assert first.oracle_checks == second.oracle_checks
        assert sum(s.applied for s in first.mutations.values()) > 0
        assert first.oracle_checks.get("cache_differential", 0) > 0
        assert first.oracle_checks.get("hide_differential", 0) > 0

    def test_generate_base_system_deterministic(self):
        config = FuzzConfig(seed=3)
        system_a, _ = generate_base_system(config, 5)
        system_b, _ = generate_base_system(config, 5)
        assert [run.name for run in system_a.runs] == [
            run.name for run in system_b.runs
        ]
        assert system_a.runs[0].states == system_b.runs[0].states
        assert iteration_rng(config, 5).random() == iteration_rng(
            config, 5
        ).random()


class TestCli:
    def test_fuzz_subcommand_smoke(self, tmp_path, capsys):
        report_path = tmp_path / "FUZZ_report.json"
        code = main(
            [
                "fuzz",
                "--seed", "0",
                "--iterations", "4",
                "--parallel-every", "0",
                "--report", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz: seed=0 iterations=4" in out
        assert "OK" in out
        record = json.loads(report_path.read_text())
        assert record["ok"] is True
        assert record["iterations"] == 4
        assert record["counterexamples"] == []
        assert set(record["mutations"]) <= set(MUTATORS)

    def test_fuzz_oracles_flag_selects_families(self, tmp_path, capsys):
        report_path = tmp_path / "FUZZ_subset.json"
        code = main(
            [
                "fuzz",
                "--seed", "0",
                "--iterations", "2",
                "--parallel-every", "0",
                "--report", str(report_path),
                "--oracles", "engine_replay,proof_mutation",
            ]
        )
        capsys.readouterr()
        assert code == 0
        record = json.loads(report_path.read_text())
        assert "engine_replay" in record["oracle_checks"]
        assert "wf_classification" not in record["oracle_checks"]
        assert "cache_differential" not in record["oracle_checks"]
        assert "proof_mutations" in record

    def test_fuzz_oracles_flag_rejects_unknown_family(self, capsys):
        code = main(["fuzz", "--iterations", "1", "--oracles", "bogus"])
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown oracle families" in out


class TestMutatorRegistryOrder:
    """The seeded mutation schedule is pinned to *name-sorted* registry
    iteration: re-registering mutators in any insertion order must not
    change what a fixed seed reproduces."""

    def test_seeded_sequence_invariant_under_insertion_order(
        self, systems, monkeypatch
    ):
        run = systems[0].runs[0]

        def sequence():
            rng = random.Random(7)
            names = []
            for _ in range(10):
                mutation = apply_random_mutator(rng, run)
                names.append(None if mutation is None else mutation.name)
            return names

        baseline = sequence()
        assert any(name is not None for name in baseline)
        reordered = dict(reversed(list(mutators_module.MUTATORS.items())))
        assert list(reordered) != list(mutators_module.MUTATORS)
        monkeypatch.setattr(mutators_module, "MUTATORS", reordered)
        assert sequence() == baseline

    def test_proof_mutator_sequence_invariant_under_insertion_order(
        self, monkeypatch
    ):
        proof = _sample_proof()

        def sequence():
            rng = random.Random(11)
            return [
                apply_random_proof_mutator(rng, proof).name
                for _ in range(10)
            ]

        baseline = sequence()
        reordered = dict(
            reversed(list(proof_mutators_module.PROOF_MUTATORS.items()))
        )
        assert list(reordered) != list(proof_mutators_module.PROOF_MUTATORS)
        monkeypatch.setattr(
            proof_mutators_module, "PROOF_MUTATORS", reordered
        )
        assert sequence() == baseline


def _sample_proof():
    """A small checked proof exercising every justification kind."""
    a, b = Principal("FZa"), Principal("FZb")
    key = Key("FZk")
    builder = ProofBuilder()
    axiom = builder.axiom("A21", a, key, b)
    premise = builder.premise(SharedKey(a, key, b))
    builder.mp(premise, axiom)
    builder.necessitate(axiom, a)
    return builder.build()


class _UnsoundSeesSays:
    """A deliberately unsound planted rule: P sees X ⊢ P says X."""

    name = "BAD"
    justification = "deliberately unsound test fixture"

    def apply(self, index, pool):
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, Sees):
                yield Inference(
                    Fact(prefix, Says(fact.body.principal, fact.body.message)),
                    self.name,
                    (fact,),
                )


class TestProofMutators:
    def test_every_mutator_applies_and_checker_verdict_matches(self):
        proof = _sample_proof()
        seen = set()
        for name, mutator in PROOF_MUTATORS.items():
            for attempt in range(20):
                rng = random.Random(f"pm:{name}:{attempt}")
                mutation = mutator(rng, proof)
                if mutation is None:
                    continue
                seen.add(name)
                assert mutation.name == name
                assert check_proof_mutation(mutation, proof) is None
                if mutation.expectation == "reject":
                    with pytest.raises(ProofError):
                        mutation.proof.check()
                elif mutation.expectation == "accept":
                    mutation.proof.check()
                break
        assert seen == set(PROOF_MUTATORS)

    def test_accepted_reject_mutant_is_flagged(self):
        # Wrap the *unchanged* proof in a reject-tagged mutation: the
        # checker accepts it, so the oracle must report a failure.
        proof = _sample_proof()
        bogus = ProofMutation("fake", proof, "reject", "no-op corruption")
        failure = check_proof_mutation(bogus, proof)
        assert failure is not None
        assert "accepted" in failure.description

    def test_checker_crash_is_flagged_not_raised(self):
        # A proof whose check() raises a non-ProofError must surface as
        # a counterexample, not as an exception out of the oracle.
        proof = _sample_proof()

        class CrashingProof:
            premises = ()
            conclusion = None

            def check(self):
                raise KeyError("dangling")

        mutation = ProofMutation(
            "crash", CrashingProof(), "reject", "synthetic"
        )
        failure = check_proof_mutation(mutation, proof)
        assert failure is not None
        assert "crashed" in failure.description
        assert "KeyError" in failure.description

    def test_shrink_proof_minimizes_while_predicate_holds(self):
        proof = _sample_proof()
        minimal = shrink_proof(proof, lambda candidate: True)
        assert len(minimal.steps) == 1
        untouched = shrink_proof(proof, lambda candidate: False)
        assert untouched is proof
        assert describe_proof(minimal)[0] == "proof: 1 step(s)"


class TestEngineReplay:
    def test_replay_rules_exclude_known_a11_caveat(self):
        names = [rule.name for rule in replay_rules()]
        assert "A11" not in names
        assert "A11+" in names

    def test_sampled_assumptions_are_true_and_ground(self, systems):
        system = systems[0]
        rng = random.Random(5)
        evaluator = Evaluator(system)
        run = system.runs[0]
        k = run.end_time
        assumptions = sample_assumptions(rng, system, evaluator, run, k, 6)
        assert assumptions
        for formula in assumptions:
            assert is_ground(formula)
            assert evaluator.evaluate(formula, run, k)

    def test_clean_replay_finds_no_failures(self, systems):
        system = systems[0]
        rng = random.Random(9)
        evaluator = Evaluator(system)
        for run in system.runs:
            k = run.end_time
            assumptions = sample_assumptions(
                rng, system, evaluator, run, k, 6
            )
            failures, derivation = check_engine_replay(
                system, run, k, assumptions, evaluator=evaluator
            )
            assert failures == []
            assert derivation is not None

    def test_planted_unsound_rule_is_caught_and_shrunk(self, tmp_path):
        # Seed re-pinned when the goodruns_construction family joined
        # the campaign (the added rng draws shifted every workload).
        config = FuzzConfig(seed=0, iterations=5, parallel_every=0)
        rules = replay_rules() + (_UnsoundSeesSays(),)
        report = run_fuzz(config, replay_rules=rules)
        assert not report.ok
        found = [
            c
            for c in report.counterexamples
            if c.failure.oracle == "engine_replay"
        ]
        assert found
        example = found[0]
        assert example.failure.formula is not None
        assumed = [
            line for line in example.script if line.startswith("assume: ")
        ]
        assert 0 < len(assumed) <= config.replay_assumptions + 3
        # Every counterexample carries its iteration's flight-recorder
        # tail under the deterministic correlation ID, and the same ID
        # is stamped on the iteration's span records — one corr value
        # ties the failure, its events, and its timings together.
        assert example.corr_id == f"fuzz-0-{example.iteration}"
        assert example.journal
        assert all(e["corr"] == example.corr_id for e in example.journal)
        assert any(
            e["kind"] == "oracle_verdict" for e in example.journal
        )
        from repro.obs import spans as obs_spans

        corr_spans = [
            s for s in obs_spans.snapshot()
            if s.get("attrs", {}).get("corr") == example.corr_id
        ]
        assert corr_spans
        report_path = tmp_path / "FUZZ_report.json"
        report.write(str(report_path))
        record = json.loads(report_path.read_text())
        assert record["ok"] is False
        assert any(
            c["failure"]["oracle"] == "engine_replay" and c["script"]
            for c in record["counterexamples"]
        )
        # The journal tail survives the JSON round trip, and the report
        # is stamped with run metadata and a span summary.
        written = next(
            c for c in record["counterexamples"]
            if c["failure"]["oracle"] == "engine_replay"
        )
        assert written["corr_id"] == example.corr_id
        assert written["journal"]
        assert record["meta"]["command"] == "fuzz"
        assert record["spans"]


class TestInterpretationFuzzing:
    def test_randomized_interpretation_is_seeded_and_picklable(
        self, systems
    ):
        import pickle

        system = systems[0]
        first = randomize_interpretation(random.Random(3), system)
        second = randomize_interpretation(random.Random(3), system)
        propositions = sorted(system.constants(Sort.PROPOSITION), key=str)
        assert propositions
        points = [
            (run, k) for run in system.runs for k in run.times
        ]
        for proposition in propositions:
            for run, k in points:
                assert first.interpretation.holds(
                    proposition, run, k
                ) == second.interpretation.holds(proposition, run, k)
        thawed = pickle.loads(pickle.dumps(first.interpretation))
        for proposition in propositions:
            for run, k in points:
                assert thawed.holds(proposition, run, k) == (
                    first.interpretation.holds(proposition, run, k)
                )

    def test_randomization_actually_varies_across_seeds(self, systems):
        system = systems[0]
        propositions = sorted(system.constants(Sort.PROPOSITION), key=str)
        points = [(run, k) for run in system.runs for k in run.times]

        def fingerprint(seed):
            twin = randomize_interpretation(random.Random(seed), system)
            return tuple(
                twin.interpretation.holds(proposition, run, k)
                for proposition in propositions
                for run, k in points
            )

        assert len({fingerprint(seed) for seed in range(10)}) > 1

    def test_agreement_oracle_clean_on_randomized_system(self, systems):
        system = randomize_interpretation(random.Random(1), systems[0])
        points = [
            (run, k)
            for run in system.runs
            for k in (run.start_time, 0, run.end_time)
        ]
        assert check_interpretation_agreement(system, points) == []


class TestOracleSelection:
    def test_subset_campaign_runs_only_selected_families(self):
        config = FuzzConfig(
            seed=2,
            iterations=3,
            parallel_every=0,
            oracles=("engine_replay", "proof_mutation"),
        )
        report = run_fuzz(config)
        assert report.ok
        assert "engine_replay" in report.oracle_checks
        assert "wf_classification" not in report.oracle_checks
        assert "cache_differential" not in report.oracle_checks
        assert "prim_agreement" not in report.oracle_checks

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown oracle families"):
            run_fuzz(FuzzConfig(iterations=1, oracles=("bogus",)))


def _skip_first_stratum(system, assumptions, pattern_hide=False,
                        engine="worklist", backend="belief"):
    """A planted construction bug: the depth-1 strata never filter."""
    from repro.goodruns.construction import ConstructionResult
    from repro.semantics.backend import get_backend
    from repro.semantics.goodvectors import GoodRunVector

    all_names = frozenset(run.name for run in system.runs)
    current = {p: all_names for p in system.principals()}
    stages = [GoodRunVector.of(current)]
    for depth in range(1, assumptions.max_depth + 1):
        evaluator = get_backend(backend).compile(
            system, stages[-1], pattern_hide=pattern_hide
        )
        updated = {}
        for principal in system.principals():
            good = current[principal]
            if depth != 1:  # the planted bug
                for formula in assumptions.stratum(principal, depth):
                    good = frozenset(
                        name for name in sorted(good)
                        if evaluator.evaluate(
                            formula.body, system.run(name), 0
                        )
                    )
            updated[principal] = good
        current = updated
        stages.append(GoodRunVector.of(current))
    return ConstructionResult(stages[-1], tuple(stages))


class TestGoodrunsFamilyInHarness:
    """The goodruns_construction family wired end to end."""

    def test_goodruns_campaign_is_green(self):
        config = FuzzConfig(
            seed=0, iterations=4, parallel_every=0,
            oracles=("goodruns_construction",),
        )
        report = run_fuzz(config)
        assert report.ok, [c.to_json() for c in report.counterexamples]
        assert report.oracle_checks.get("goodruns_construction", 0) > 0

    def test_planted_stratum_skip_is_caught_and_shrunk(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            "repro.fuzz.goodruns_oracles.construct_good_runs",
            _skip_first_stratum,
        )
        config = FuzzConfig(
            seed=0, iterations=4, parallel_every=0,
            oracles=("goodruns_construction",),
        )
        report = run_fuzz(config)
        assert not report.ok
        found = [
            c for c in report.counterexamples
            if c.failure.oracle == "goodruns_support"
        ]
        assert found
        example = found[0]
        # The script is the shrunk assumption vector — a handful of
        # entries, not the whole sampled workload.
        assert example.script[0].startswith("assumptions:")
        entries = len(example.script) - 1
        assert 0 < entries <= config.goodruns_assumptions + 2
        report_path = tmp_path / "FUZZ_goodruns_report.json"
        report.write(str(report_path))
        record = json.loads(report_path.read_text())
        assert record["ok"] is False
        assert any(
            c["failure"]["oracle"].startswith("goodruns_")
            for c in record["counterexamples"]
        )


class TestCompiledFamilyInHarness:
    """The compiled oracle compares each backend's bitset engine with
    its interpreter under a restricting good-run vector too."""

    def test_vector_cases_are_counted_and_green(self):
        config = FuzzConfig(
            seed=1, iterations=4, parallel_every=0, oracles=("compiled",),
        )
        report = run_fuzz(config)
        assert report.ok, [c.to_json() for c in report.counterexamples]
        # Seven cases per iteration: belief under pattern hide, and
        # None -> vector -> None under each backend.
        checks = report.oracle_checks["compiled_vs_interpreted"]
        assert checks % 7 == 0 and checks > 0

    def test_vector_blind_belief_memo_is_caught(self, monkeypatch):
        """The planted bug: the belief memo key drops the good-run sets,
        so a bitset computed at one vector is served at another."""
        from repro.semantics.compiler import CompiledSystem

        monkeypatch.setattr(
            CompiledSystem, "_memo_key", lambda self, formula: formula
        )
        report = run_fuzz(FuzzConfig(
            seed=1, iterations=4, parallel_every=0, oracles=("compiled",),
        ))
        assert not report.ok
        assert {
            c.failure.oracle for c in report.counterexamples
        } == {"compiled_vs_interpreted"}
        # Each carries the interpreter's why-false tree at its vector.
        assert all(c.trace for c in report.counterexamples)


class TestHideMonotonicityPlantedBug:
    """The widened (nested-belief) hide oracle catches a weakened
    pattern refinement."""

    @staticmethod
    def _workload():
        from repro.goodruns import build_cointoss_example

        example = build_cointoss_example()
        nested = Believes(
            example.p2, Believes(example.p2, example.heads)
        )
        points = [(run, 0) for run in example.system.runs]
        return example.system, nested, points

    def test_real_pattern_hide_is_quiet(self):
        from repro.fuzz import check_hide_differential

        system, nested, points = self._workload()
        assert check_hide_differential(system, [nested], points) == []

    def test_weakened_pattern_hide_is_caught(self, monkeypatch):
        from repro.fuzz import check_hide_differential
        from repro.semantics.hide import hidden_local_view as real_view

        system, nested, points = self._workload()

        def weakened(run, principal, k, pattern=False):
            # The bug: pattern-hide collapses every state to one view,
            # coarsening indistinguishability instead of refining it.
            if pattern:
                return ("weakened", principal)
            return real_view(run, principal, k, False)

        monkeypatch.setattr(
            "repro.semantics.evaluator.hidden_local_view", weakened
        )
        failures = check_hide_differential(system, [nested], points)
        assert any(f.oracle == "hide_monotonicity" for f in failures)
