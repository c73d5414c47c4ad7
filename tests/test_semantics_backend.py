"""The semantics-backend seam: registry, parity, and the containment.

Three layers of confidence in ``repro.semantics.backend``:

* the registry's error paths (unknown name, duplicate registration,
  deliberate shadowing, per-context isolation);
* backend parity on the full protocol corpus — belief interpreted,
  belief compiled, epistemic interpreted, and epistemic compiled must
  agree wherever the theory says they must (exactly on belief-free
  formulas, compiled==interpreted within each backend, and never
  epistemic-true/belief-false on belief-positive formulas);
* the ``cross_backend`` fuzz oracle demonstrably catches a planted
  wrong-direction bug (a shadowed ``epistemic`` whose Believes clause
  is always true).
"""

import random

import pytest

from repro import context
from repro.errors import EngineError, SemanticsError
from repro.fuzz.oracles import (
    _mentions_belief,
    check_cross_backend,
    sample_formulas,
    sample_goodrun_vector,
    sample_points,
)
from repro.goodruns.construction import construct_good_runs
from repro.obs import journal
from repro.protocols import (
    forwarding,
    kerberos,
    needham_schroeder,
    otway_rees,
    wide_mouth_frog,
    yahalom,
)
from repro.semantics.backend import (
    DEFAULT_BACKEND,
    BackendRegistry,
    BeliefBackend,
    SemanticsBackend,
    backend_names,
    get_backend,
)
from repro.semantics.compiler import compiled_for
from repro.semantics.epistemic import EpistemicBackend, EpistemicEvaluator
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.soundness import GeneratorConfig, generate_system
from repro.soundness.audit import assumptions_vector
from repro.terms.ops import has_belief_under_negation

SYSTEM_CASES = [
    (kerberos, kerberos.at_protocol, "kerberos-normal"),
    (needham_schroeder, needham_schroeder.at_protocol, "ns-normal"),
    (otway_rees, otway_rees.at_protocol, "otway-rees-normal"),
    (yahalom, yahalom.at_protocol, "yahalom-normal"),
    (wide_mouth_frog, wide_mouth_frog.at_protocol, "wmf-normal"),
    (forwarding, forwarding.at_protocol, "courier-honest"),
]


class TestRegistry:
    def test_unknown_backend_is_clean_engine_error(self):
        with context.use(context.fresh("registry-unknown")):
            with pytest.raises(EngineError) as excinfo:
                get_backend("nosuch")
        message = str(excinfo.value)
        assert "unknown semantics backend 'nosuch'" in message
        assert "belief" in message and "epistemic" in message

    def test_builtins_present_and_resolvable(self):
        with context.use(context.fresh("registry-builtins")):
            assert backend_names() == ("belief", "epistemic")
            assert get_backend().name == DEFAULT_BACKEND
            assert get_backend("epistemic").name == "epistemic"
            registry = context.current().backends
            assert "belief" in registry and len(registry) == 2

    def test_duplicate_registration_conflicts(self):
        registry = BackendRegistry()
        registry.register(BeliefBackend())
        with pytest.raises(EngineError, match="already registered"):
            registry.register(BeliefBackend())
        assert len(registry) == 1

    def test_replace_shadows_deliberately(self):
        class ShadowBelief(BeliefBackend):
            pass

        registry = BackendRegistry()
        registry.register(BeliefBackend())
        shadow = ShadowBelief()
        assert registry.register(shadow, replace=True) is shadow
        assert registry.get("belief") is shadow

    def test_nameless_backend_rejected(self):
        class Nameless(SemanticsBackend):
            name = ""

        with pytest.raises(EngineError, match="no usable name"):
            BackendRegistry().register(Nameless())

    def test_registry_is_context_owned(self):
        """Two fresh contexts get independent registries: a shadow in
        one must not leak into the other (the lint_globals discipline —
        no module-level mutable registry)."""
        first, second = context.fresh("iso-1"), context.fresh("iso-2")
        with context.use(first):
            context.current().backends.register(
                EpistemicBackend(), replace=True
            )
            planted = context.current().backends.get("epistemic")
        with context.use(second):
            assert context.current().backends.get("epistemic") is not planted
        assert first.backends is not second.backends


@pytest.mark.parametrize(
    "module, protocol_factory, run_name",
    SYSTEM_CASES,
    ids=[case[2] for case in SYSTEM_CASES],
)
class TestCorpusParity:
    """Belief interpreted == belief compiled, epistemic interpreted ==
    epistemic compiled, and the containment across backends, on every
    protocol in the corpus (assumptions + goals, every point of the
    normal run, under the constructed good-run vector)."""

    def _engines_and_formulas(self, module, protocol_factory):
        protocol = protocol_factory()
        system = module.build_system()
        vector = construct_good_runs(
            system, assumptions_vector(protocol)
        ).vector
        formulas = list(protocol.assumptions) + [
            goal.formula for goal in protocol.goals
        ]
        engines = {
            "belief_interp": Evaluator(system, vector),
            "belief_compiled": compiled_for(system, vector),
            "epistemic_interp": EpistemicEvaluator(system, vector),
            "epistemic_compiled": get_backend("epistemic").compile(
                system, vector
            ),
        }
        return system, formulas, engines

    @staticmethod
    def _verdict(engine, formula, run, k):
        try:
            return engine.evaluate(formula, run, k)
        except SemanticsError as error:
            return f"error: {error}"

    def test_parity_and_containment(self, module, protocol_factory, run_name):
        system, formulas, engines = self._engines_and_formulas(
            module, protocol_factory
        )
        run = system.run(run_name)
        for formula in formulas:
            belief_free = not _mentions_belief(formula)
            monotone = not belief_free and not has_belief_under_negation(
                formula
            )
            for k in run.times:
                verdicts = {
                    name: self._verdict(engine, formula, run, k)
                    for name, engine in engines.items()
                }
                label = f"{formula} @ ({run_name}, {k}): {verdicts}"
                # Within each backend, compiled must match interpreted.
                assert verdicts["belief_interp"] == verdicts[
                    "belief_compiled"
                ], label
                assert verdicts["epistemic_interp"] == verdicts[
                    "epistemic_compiled"
                ], label
                if belief_free:
                    assert verdicts["belief_compiled"] == verdicts[
                        "epistemic_compiled"
                    ], label
                elif monotone:
                    # Containment: epistemic-true implies belief-true.
                    assert not (
                        verdicts["epistemic_compiled"] is True
                        and verdicts["belief_compiled"] is False
                    ), label


class TestEpistemicEngine:
    def test_compiled_cache_keys_do_not_alias_belief(self):
        """Both backends' compilations ride the same context table under
        backend-tagged keys: the same system must yield distinct
        engines per backend, each cached independently, and every
        vector is a handle on its backend's one compilation."""
        with context.use(context.fresh("cache-alias")):
            system = generate_system(GeneratorConfig(seed=5, runs=2))
            belief = compiled_for(system)
            epistemic = get_backend("epistemic").compile(system)
            assert belief is not epistemic
            assert belief.backend.name == "belief"
            assert epistemic.backend.name == "epistemic"
            # Each engine is cached independently.
            assert compiled_for(system) is belief
            assert get_backend("epistemic").compile(system) is epistemic
            vector = GoodRunVector.of(
                {system.principals()[0]: [system.runs[0].name]}
            )
            handle = get_backend("epistemic").compile(system, vector)
            assert handle.goodruns == vector
            assert handle._bits is epistemic._bits
            assert context.current().counters["compiled_eval.system_miss"] == 2

    def test_backend_capability_flags(self):
        assert BeliefBackend.supports_tracing
        assert EpistemicBackend.supports_tracing

    def test_worklist_agrees_with_naive_for_epistemic(self):
        """The worklist engine runs under the epistemic backend — no
        demotion, one compilation — and its stages equal the naive
        engine's, whose interpreter is the reference."""
        module, factory, _run = SYSTEM_CASES[4]  # wide-mouth-frog: small
        protocol = factory()
        system = module.build_system()
        assumptions = assumptions_vector(protocol)
        with context.use(context.fresh("epistemic-worklist")):
            worklist = construct_good_runs(
                system, assumptions, engine="worklist", backend="epistemic"
            )
            counters = context.current().counters
            assert counters["compiled_eval.system_miss"] == 1
            assert "goodruns.backend_forced_naive" not in counters
            kinds = {event["kind"] for event in journal.snapshot()}
            assert "construction_demoted" not in kinds
            naive = construct_good_runs(
                system, assumptions, engine="naive", backend="epistemic"
            )
        assert worklist.stages == naive.stages
        assert worklist.depth >= 1


class _BuggyEpistemicBackend(EpistemicBackend):
    """The planted bug: an epistemic backend whose Believes clause is
    true on every view class — guaranteed to violate the containment
    wherever belief says no."""

    @staticmethod
    def belief_clause(groups, body):
        bits = 0
        for members, _possible in groups:
            bits |= members
        return bits


class TestCrossBackendOracle:
    def _corpus(self, seed: int = 0):
        rng = random.Random(seed)
        system = generate_system(GeneratorConfig(seed=seed, runs=3))
        formulas = sample_formulas(rng, system, 12)
        points = sample_points(rng, system, 3)
        vector = sample_goodrun_vector(rng, system)
        return system, formulas, points, vector

    def test_clean_backends_pass(self):
        system, formulas, points, vector = self._corpus(seed=0)
        with context.use(context.fresh("cross-clean")):
            failures = check_cross_backend(
                system, formulas, points, goodruns=vector
            )
        assert failures == [], [f.description for f in failures]

    def test_planted_wrong_direction_bug_is_caught(self):
        """Shadow ``epistemic`` with the always-true-Believes backend in
        a fresh context; the oracle must flag wrong-direction
        disagreements (epistemic-true where belief is false)."""
        system, formulas, points, vector = self._corpus(seed=0)
        with context.use(context.fresh("cross-planted")):
            context.current().backends.register(
                _BuggyEpistemicBackend(), replace=True
            )
            failures = check_cross_backend(
                system, formulas, points, goodruns=vector
            )
        wrong_direction = [
            f for f in failures if "wrong-direction" in f.description
        ]
        assert wrong_direction, (
            "planted always-true Believes was not caught; "
            f"failures={[f.description for f in failures]}"
        )
        for failure in wrong_direction:
            assert failure.oracle == "cross_backend"
            assert "containment" in failure.description

    def test_planted_bug_does_not_leak_between_contexts(self):
        """The plant lives and dies with its context: the same corpus is
        clean again once the shadowing context is gone."""
        system, formulas, points, vector = self._corpus(seed=0)
        with context.use(context.fresh("cross-planted-scope")):
            context.current().backends.register(
                _BuggyEpistemicBackend(), replace=True
            )
            assert check_cross_backend(
                system, formulas, points, goodruns=vector
            )
        with context.use(context.fresh("cross-after")):
            assert (
                check_cross_backend(
                    system, formulas, points, goodruns=vector
                )
                == []
            )
