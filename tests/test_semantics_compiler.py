"""Tests for the compiled evaluation engine.

Four angles on the compiled-vs-interpreted contract:

* the ``compiled_vs_interpreted`` fuzz oracle is clean on the honest
  compiler and **demonstrably catches planted compiler bugs** (an
  inverted truth bitset; a belief clause that drops vacuous truth);
* a hypothesis property holds the two engines verdict- and
  error-identical on random formulas — nested beliefs and non-ground
  (parameterized) formulas included — at every point of a hand-built
  two-run system;
* the explanation tracer produces byte-identical output under both
  engines on the golden why-false belief tree;
* the per-principal point-class tables stay exact on a hand-built
  system where a key is lost and seen sets recur across runs.

A last test pins the allocation property the compiled sweep's speed
rests on: the memo retains ints, not per-subformula closures.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import context as _context
from repro.errors import SemanticsError
from repro.fuzz.oracles import (
    check_compiled_differential,
    sample_formulas,
    sample_points,
)
from repro.model import Interpretation, RunBuilder, system_of
from repro.obs.trace import Tracer, render_why, trace_records
from repro.semantics import Evaluator
from repro.semantics.backend import BeliefBackend
from repro.semantics.compiler import CompiledSystem, compiled_for
from repro.semantics.goodvectors import GoodRunVector
from repro.soundness import GeneratorConfig, generate_system
from repro.terms import Believes, Key, Nonce, Prim, Principal, Vocabulary
from repro.terms.ops import transform

from tests.strategies import (
    KEY_PARAM,
    KEYS,
    NONCES,
    PRINCIPALS,
    PROPS,
    VOCAB,
    formulas,
    principals,
)
from repro.terms.messages import encrypted, group

A, B, S = PRINCIPALS
Kab, Kas, Kbs = KEYS
Na, Nb, Ts = NONCES


@pytest.fixture(scope="module")
def system():
    return generate_system(GeneratorConfig(seed=3, runs=2, steps_per_run=10))


@pytest.fixture(scope="module")
def samples(system):
    rng = random.Random(7)
    return (
        sample_formulas(rng, system, 6),
        sample_points(rng, system, 3),
    )


class TestOracleOnHonestCompiler:
    def test_clean_by_default(self, system, samples):
        formulas_, points = samples
        assert check_compiled_differential(system, formulas_, points) == []

    def test_clean_under_pattern_hide_and_goodruns(self, system, samples):
        formulas_, points = samples
        principal = system.principals()[0]
        goodruns = GoodRunVector.of({principal: [system.runs[0].name]})
        assert (
            check_compiled_differential(
                system, formulas_, points, goodruns=goodruns, pattern_hide=True
            )
            == []
        )


class TestOracleCatchesPlantedBugs:
    """The acceptance demand on the safety net: corrupt the compiler,
    and the differential oracle must light up."""

    def test_inverted_bitset_is_caught(self, system, samples, monkeypatch):
        formulas_, points = samples
        assert check_compiled_differential(system, formulas_, points) == []
        honest = CompiledSystem.truth_bits

        def inverted(self, formula):
            bits = honest(self, formula)
            if bits is None:
                return None
            return bits ^ self.full_mask

        monkeypatch.setattr(CompiledSystem, "truth_bits", inverted)
        failures = check_compiled_differential(system, formulas_, points)
        assert failures
        assert {f.oracle for f in failures} == {"compiled_vs_interpreted"}

    def test_dropped_vacuous_belief_is_caught(self, system, monkeypatch):
        """A subtler plant: a belief clause that skips empty possibility
        sets.  The interpreter calls belief *vacuously true* there; a
        compiler that requires a non-empty set diverges exactly on the
        all-runs-bad good-run vector."""
        principal = system.principals()[0]
        goodruns = GoodRunVector.of({principal: frozenset()})
        belief = Believes(principal, Prim(system.vocabulary.proposition("p0")))
        points = tuple(system.points())[:4]

        def buggy(groups, body):
            bits = 0
            for members, possible in groups:
                if possible and possible & body == possible:
                    bits |= members
            return bits

        monkeypatch.setattr(BeliefBackend, "belief_clause", staticmethod(buggy))
        # Drop any honestly-compiled (memoized) nodes for this system.
        _context.current().compiled_systems.clear()
        failures = check_compiled_differential(
            system, [belief], points, goodruns=goodruns
        )
        assert failures
        assert {f.oracle for f in failures} == {"compiled_vs_interpreted"}
        # Sanity: the honest engines agree (and say vacuously-true).
        monkeypatch.undo()
        _context.current().compiled_systems.clear()
        assert (
            check_compiled_differential(
                system, [belief], points, goodruns=goodruns
            )
            == []
        )
        assert compiled_for(system, goodruns).evaluate(belief, *points[0])


# ---------------------------------------------------------------------------
# Property: compiled == interpreted on random formulas
# ---------------------------------------------------------------------------


def _property_system():
    """Two runs A cannot tell apart (B and S can): belief is nontrivial,
    and every run binds ``KEY_PARAM`` so parameterized formulas ground."""
    keysets = {A: [Kab, Kas], B: [Kab, Kbs], S: [Kas, Kbs]}
    params = {KEY_PARAM: Kab}

    def build(name, s_plaintext):
        builder = RunBuilder([A, B, S], keysets=keysets)
        builder.send(A, encrypted(Na, Kab, A), B)
        builder.receive(B)
        builder.mark_epoch()
        builder.send(B, group(Nb, Na), A)
        builder.receive(A)
        if s_plaintext:
            builder.send(S, Nb, B)
        else:
            builder.send(S, encrypted(Nb, Kbs, S), B)
        builder.receive(B)
        return builder.build(name, params=params)

    runs = [build("r1", False), build("r2", True)]
    interp = Interpretation.from_run_table(
        {PROPS[0]: ["r1"], PROPS[1]: ["r1", "r2"]}
    )
    return system_of(runs, interp, VOCAB)


_PROPERTY_SYSTEM = _property_system()
_POINTS = tuple(_PROPERTY_SYSTEM.points())
_INTERPRETED = Evaluator(_PROPERTY_SYSTEM)
_COMPILED = CompiledSystem(_PROPERTY_SYSTEM)


def _outcome(engine, formula, run, k):
    try:
        return (engine.evaluate(formula, run, k), None)
    except SemanticsError as error:
        return (None, str(error))


def _parameterize(formula):
    """Abstract the key constant ``Kab`` to the run-bound parameter."""
    return transform(
        formula, lambda node: KEY_PARAM if node == Kab else None
    )


_formula_cases = st.one_of(
    formulas(),
    # Guaranteed-nested beliefs: the possibility-group machinery must
    # agree under re-entry, not just at top level.
    st.tuples(principals, principals, formulas()).map(
        lambda t: Believes(t[0], Believes(t[1], t[2]))
    ),
)


class TestCompiledMatchesInterpreted:
    @settings(max_examples=80, deadline=None)
    @given(formula=_formula_cases, abstract=st.booleans())
    def test_agree_at_every_point(self, formula, abstract):
        if abstract:
            # Non-ground twin: both engines must take the Section 8
            # substitution path and land on the same verdicts.
            formula = _parameterize(formula)
        for run, k in _POINTS:
            assert _outcome(_COMPILED, formula, run, k) == _outcome(
                _INTERPRETED, formula, run, k
            ), f"{formula} @ ({run.name}, {k})"

    def test_unbound_parameter_errors_match(self):
        # A parameter no run assigns: both engines must raise, equally.
        from repro.terms import Sort
        from repro.terms.formulas import Has

        probe = VOCAB.parameter("KPunbound", Sort.KEY)
        needy = Has(A, probe)
        run, k = _POINTS[0]
        assert _outcome(_COMPILED, needy, run, k) == _outcome(
            _INTERPRETED, needy, run, k
        )
        with pytest.raises(SemanticsError):
            _COMPILED.evaluate(needy, run, k)


# ---------------------------------------------------------------------------
# Point classes: exactness where values do not grow or recur per run
# ---------------------------------------------------------------------------


def _point_class_system():
    """Three runs built to stress the per-principal point-class tables.

    * A loses ``Kab`` at time 3 of r2 (a hand edit of the states:
      no action removes a key), so A's key set *and* seen set shrink;
    * r1 and r3 share their first steps, so equal seen sets recur in
      different runs as distinct objects;
    * the environment relays a message and says a formula, so ``Env``
      is a principal worth asking about;
    * B sends at time 0, where ``said`` holds and ``says`` does not.
    """
    from repro.model.runs import ENVIRONMENT, Run
    from repro.model.states import LocalState
    from repro.terms import Has, Sees

    claim = Has(A, Kab)

    def build(name, tail):
        builder = RunBuilder([A, B, S], keysets={A: [Kab], B: [Kab, Kbs],
                                                 S: [Kbs]})
        builder.send(A, encrypted(Na, Kab, A), B)
        builder.receive(B)
        builder.send(B, encrypted(group(Nb, Na), Kab, B), A)
        builder.mark_epoch()  # B's send happened at time 0: said, not says
        builder.receive(A)
        if tail == "relay":
            builder.send(S, group(Nb, claim), ENVIRONMENT)
            builder.receive(ENVIRONMENT)
            builder.send(ENVIRONMENT, group(Ts, Sees(B, Na)), A)
            builder.receive(A)
        else:
            builder.send(S, group(Ts, claim), B)
            builder.receive(B)
            builder.idle()
        return builder.build(name)

    def drop_key(run, principal, key, from_k):
        states = list(run.states)
        for k in run.times:
            if k >= from_k:
                index = k - run.start_time
                local = states[index].local(principal)
                states[index] = states[index].with_local(
                    principal,
                    LocalState(local.history, local.keys - {key}, local.data),
                )
        return Run(run.name, tuple(states), run.start_time, run.params,
                   run.environment)

    runs = [build("r1", "relay"), drop_key(build("r2", "relay"), A, Kab, 3),
            build("r3", "direct")]
    interpretation = Interpretation.from_run_table({PROPS[0]: ["r1", "r3"]})
    vocabulary = Vocabulary().merge(VOCAB)
    vocabulary.principal(ENVIRONMENT.name)
    return system_of(runs, interpretation, vocabulary), claim


def _point_class_formulas(claim):
    from repro.model.runs import ENVIRONMENT
    from repro.terms import Controls, Has, Said, Says, Sees, SharedKey

    everyone = (A, B, S, ENVIRONMENT)
    messages = (Na, Nb, Ts, encrypted(Na, Kab, A),
                encrypted(group(Nb, Na), Kab, B), group(Nb, Na), claim)
    bodies = (claim, Sees(B, Na), Prim(PROPS[0]))
    out = []
    for principal in everyone:
        out += [Sees(principal, message) for message in messages]
        out += [Has(principal, key) for key in KEYS]
        out += [Says(principal, message) for message in messages]
        out += [Said(principal, message) for message in messages]
        out += [Controls(principal, body) for body in bodies]
        out += [Believes(principal, body) for body in bodies]
        out += [Believes(principal, Sees(A, Nb)),
                Believes(principal, Believes(B, Has(A, Kab)))]
    out += [SharedKey(left, key, right)
            for left in everyone for right in everyone for key in KEYS]
    return out


class TestPointClassesExact:
    @pytest.mark.parametrize("pattern_hide", [False, True])
    @pytest.mark.parametrize("with_goodruns", [False, True])
    def test_compiled_equals_interpreted_everywhere(
        self, pattern_hide, with_goodruns
    ):
        system, claim = _point_class_system()
        goodruns = (
            GoodRunVector.of({A: ["r1", "r3"], B: ["r2"]})
            if with_goodruns else None
        )
        interpreter = Evaluator(system, goodruns, pattern_hide=pattern_hide)
        compiled = CompiledSystem(system, goodruns, pattern_hide=pattern_hide)
        formulas_ = _point_class_formulas(claim)
        for formula in formulas_:
            assert compiled.can_compile(formula), formula
            for run, k in system.points():
                assert compiled.evaluate(formula, run, k) == (
                    interpreter.evaluate(formula, run, k)
                ), f"{formula} @ ({run.name}, {k})"

    def test_the_system_exercises_every_property(self):
        from repro.model.runs import ENVIRONMENT
        from repro.terms import Controls, Has, Sees

        system, claim = _point_class_system()
        compiled = CompiledSystem(system)
        r2 = system.run("r2")
        index = compiled.point_index
        has = compiled.truth_bits(Has(A, Kab))
        # The lost key: held at r2's time 2, gone from time 3 on, and
        # with it what A could read.
        assert (has >> index[("r2", 2)]) & 1
        assert not (has >> index[("r2", 3)]) & 1
        assert not (has >> index[("r2", r2.end_time)]) & 1
        sees = compiled.truth_bits(Sees(A, Na))
        assert (sees >> index[("r2", 2)]) & 1
        assert not (sees >> index[("r2", 3)]) & 1
        # Equal seen sets recur across runs and share one class.
        masks = [mask for seen, mask in compiled._seen_classes(B)]
        runs_of = [
            {run.name for i, (run, _k) in enumerate(compiled.points)
             if (mask >> i) & 1}
            for mask in masks
        ]
        assert any(len(names) > 1 for names in runs_of)
        # The environment says the formula it relays, and S's claim
        # about A's key fails exactly where A dropped it.
        assert compiled.truth_bits(Sees(ENVIRONMENT, claim))
        controls = compiled.truth_bits(Controls(S, claim))
        assert controls & compiled.run_mask("r1")
        assert not controls & compiled.run_mask("r2")

    def test_dropped_seen_class_is_caught(self, monkeypatch):
        system, claim = _point_class_system()
        formulas_ = _point_class_formulas(claim)
        points = tuple(system.points())
        with _context.use(_context.fresh("dropped-seen-class")):
            assert check_compiled_differential(system, formulas_, points) == []
        honest = CompiledSystem._seen_classes

        def dropped(self, principal):
            classes = honest(self, principal)
            largest = max(classes, key=lambda pair: len(pair[0]))
            return tuple(pair for pair in classes if pair is not largest)

        monkeypatch.setattr(CompiledSystem, "_seen_classes", dropped)
        with _context.use(_context.fresh("dropped-seen-class")):
            failures = check_compiled_differential(system, formulas_, points)
        assert failures
        assert {f.oracle for f in failures} == {"compiled_vs_interpreted"}
        assert all(" sees " in f.formula for f in failures)


# ---------------------------------------------------------------------------
# Tracer parity: golden why-false tree
# ---------------------------------------------------------------------------


def _two_run_belief_system():
    """The golden scenario of ``test_obs_trace``: two runs A cannot tell
    apart, ``p`` true only in the first, so ``A believes p`` is false."""
    TA = Principal("A")
    TB = Principal("B")
    K = Key("K")
    N = Nonce("N")
    vocab = Vocabulary()
    vocab.principal("A")
    vocab.principal("B")
    vocab.key("K")
    vocab.nonce("N")

    def build(name):
        builder = RunBuilder([TA, TB], keysets={TA: [K], TB: [K]})
        builder.send(TA, N, TB)
        builder.receive(TB)
        return builder.build(name)

    runs = [build("r1"), build("r2")]
    prop = vocab.proposition("p")
    interp = Interpretation.from_run_table({prop: ["r1"]})
    return system_of(runs, interp, vocab), runs, TA, Prim(prop)


class TestTracerParity:
    def test_golden_why_false_tree_identical_under_both_engines(self):
        system, runs, who, p = _two_run_belief_system()
        belief = Believes(who, p)

        interpreted_tracer = Tracer()
        interpreted_verdict = Evaluator(
            system, tracer=interpreted_tracer
        ).evaluate(belief, runs[0], 0)

        compiled_tracer = Tracer()
        compiled_verdict = CompiledSystem(system).evaluate_traced(
            belief, runs[0], 0, compiled_tracer
        )

        assert interpreted_verdict is False
        assert compiled_verdict is False

        interpreted_root = interpreted_tracer.roots[0]
        compiled_root = compiled_tracer.roots[0]
        interpreted_render = render_why(interpreted_root)
        assert interpreted_render == render_why(compiled_root)
        assert list(trace_records(interpreted_root, schema="X")) == list(
            trace_records(compiled_root, schema="X")
        )
        # And it is the golden tree, not merely an identical pair.
        first = interpreted_render.splitlines()[0]
        assert first.startswith("✗ Believes: A believes p  @(r1, 0)")
        assert "possible_points=" in first

    def test_traced_verdicts_match_untraced_compiled(self):
        system, runs, who, p = _two_run_belief_system()
        compiled = CompiledSystem(system)
        for formula in (p, Believes(who, p)):
            for run in runs:
                for k in run.times:
                    traced = compiled.evaluate_traced(
                        formula, run, k, Tracer()
                    )
                    assert traced == compiled.evaluate(formula, run, k)


class TestCompiledCacheKeying:
    """The per-context compiled cache must never alias dead systems.

    The cache used to key on ``id(system)``; after an entry's system
    died (eviction elsewhere, gc) CPython readily hands the same
    address to a new object, so a lookup could return a compilation of
    a *previous* system.  Keys now use ``System.serial`` — a monotonic
    in-process token that is never reused — with an identity check on
    hit for the one remaining collision channel (unpickled systems keep
    their origin serial).
    """

    def test_serials_unique_and_monotonic_across_equal_systems(self):
        import gc

        systems = [
            generate_system(GeneratorConfig(seed=31, runs=2, steps_per_run=6))
            for _ in range(3)
        ]
        serials = [s.serial for s in systems]
        assert len(set(serials)) == len(serials)
        assert serials == sorted(serials)
        # Serials survive their system's death: a fresh system never
        # reuses one, even when it lands on a recycled address.
        dead_serial = systems[0].serial
        del systems
        gc.collect()
        fresh = generate_system(
            GeneratorConfig(seed=31, runs=2, steps_per_run=6)
        )
        assert fresh.serial != dead_serial

    def test_id_reuse_after_death_yields_fresh_compilation(self):
        import gc

        with _context.scoped("id-reuse"):
            # Churn create/compile/die cycles; address reuse is common
            # here.  Under id() keying a recycled address aliased the
            # dead entry; under serial keying every lookup must bind
            # the live object.
            for _ in range(10):
                system = generate_system(
                    GeneratorConfig(seed=32, runs=2, steps_per_run=6)
                )
                compiled = compiled_for(system, None)
                assert compiled.system is system
                del system, compiled
                gc.collect()

    def test_serial_collision_verifies_identity_on_hit(self):
        from repro import perf

        with _context.scoped("serial-collision"):
            a = generate_system(
                GeneratorConfig(seed=33, runs=2, steps_per_run=6)
            )
            b = generate_system(
                GeneratorConfig(seed=34, runs=2, steps_per_run=6)
            )
            compiled_a = compiled_for(a, None)
            # Simulate the cross-process channel: an unpickled system
            # arriving with a serial some local system already holds.
            object.__setattr__(b, "serial", a.serial)
            before = perf.counters.get("compiled_eval.serial_collision", 0)
            compiled_b = compiled_for(b, None)
            assert compiled_b is not compiled_a
            assert compiled_b.system is b
            assert (
                perf.counters["compiled_eval.serial_collision"] == before + 1
            )
            # The colliding slot now belongs to the live object.
            assert compiled_for(b, None) is compiled_b

    def test_unpickled_system_keeps_origin_serial(self):
        import pickle

        system = generate_system(
            GeneratorConfig(seed=35, runs=2, steps_per_run=6)
        )
        revived = pickle.loads(pickle.dumps(system))
        # This is why serial-keyed caches still verify identity on hit:
        # dataclass pickling restores fields without __post_init__, so
        # a shipped system collides with its origin's serial space.
        assert revived.serial == system.serial


# ---------------------------------------------------------------------------
# One compilation, many good-run vectors
# ---------------------------------------------------------------------------


def _vector_system():
    """Three runs A cannot tell apart, with a belief said and a
    principal that is not everywhere.

    * B says the formula ``A believes q`` (after time 0) in r1 only, so
      ``B controls A believes q`` turns on A's good runs;
    * S has local state in r1 and r2 but not in r3, so beliefs of S
      cannot be compiled and fall back to the interpreter;
    * ``p`` holds in r1, ``q`` in r1 and r2.
    """
    p, q = PROPS
    runs = []
    for name, members in (("r1", (A, B, S)), ("r2", (A, B, S)),
                          ("r3", (A, B))):
        keysets = {A: [Kab], B: [Kab, Kbs], S: [Kbs]}
        builder = RunBuilder(
            members, keysets={m: keysets[m] for m in members}
        )
        builder.send(A, encrypted(Na, Kab, A), B)
        builder.receive(B)
        builder.mark_epoch()
        if name == "r1":
            builder.send(B, group(Nb, Believes(A, Prim(q))), A)
        else:
            builder.send(B, Nb, A)
        builder.receive(A)
        if S in members:
            builder.send(S, encrypted(Ts, Kbs, S), B)
            builder.receive(B)
        else:
            builder.idle()
            builder.idle()
        runs.append(builder.build(name))
    interpretation = Interpretation.from_run_table(
        {p: ["r1"], q: ["r1", "r2"]}
    )
    return system_of(runs, interpretation, VOCAB)


def _vector_formulas():
    from repro.terms import Controls, ForAll, Has, Not, Or

    p, q = (Prim(prop) for prop in PROPS)
    return {
        "forall": ForAll(KEY_PARAM, Believes(A, Or(Has(B, KEY_PARAM), q))),
        "controls": Controls(B, Believes(A, q)),
        "negation": Not(Believes(A, p)),
        "nested": Believes(B, Believes(A, q)),
        "non-uniform": Believes(A, Believes(S, q)),
    }


#: Interleaved queries: each vector comes back after others were asked.
_VECTORS = (
    None,
    GoodRunVector.of({A: ["r1"]}),
    GoodRunVector.of({A: ["r2", "r3"], B: ["r1"]}),
    None,
    GoodRunVector.of({A: []}),
    GoodRunVector.of({A: ["r1"]}),
    None,
    # Every run named: as unrestricted as None for A.
    GoodRunVector.of({A: ["r1", "r2", "r3"], B: ["r2"]}),
)


class TestOneCompilationManyVectors:
    @pytest.mark.parametrize("backend", ["belief", "epistemic"])
    def test_interleaved_vectors_match_fresh_interpreters(self, backend):
        from repro.semantics.backend import get_backend

        system = _vector_system()
        formulas_ = _vector_formulas()
        with _context.use(_context.fresh("many-vectors")):
            resolved = get_backend(backend)
            verdicts = {name: set() for name in formulas_}
            for vector in _VECTORS:
                compiled = resolved.compile(system, vector)
                interpreter = resolved.interpreter(system, vector)
                for name, formula in formulas_.items():
                    expected = [
                        _outcome(interpreter, formula, run, k)
                        for run, k in system.points()
                    ]
                    assert [
                        _outcome(compiled, formula, run, k)
                        for run, k in system.points()
                    ] == expected, (backend, name, vector)
                    verdicts[name].add(tuple(expected))
            counters = _context.current().counters
            assert counters["compiled_eval.system_miss"] == 1
        # Every case compiles except the non-uniform principal's, and
        # the vector moves the verdicts of each.
        compiled = compiled_for(system)
        for name, formula in formulas_.items():
            assert compiled.can_compile(formula) is (name != "non-uniform")
            assert len(verdicts[name]) > 1, name

    def test_memo_that_ignores_the_vector_is_caught(self, monkeypatch):
        """The planted bug: belief bitsets memoized under the formula
        alone.  Asked at None, then at a restricting vector, the stale
        top-vector bitset comes back and the oracle flags it."""
        system = _vector_system()
        formulas_ = list(_vector_formulas().values())
        points = tuple(system.points())
        monkeypatch.setattr(
            CompiledSystem, "_memo_key", lambda self, formula: formula
        )
        with _context.use(_context.fresh("coarse-memo")):
            failures = [
                failure
                for vector in (None, GoodRunVector.of({A: ["r1"]}), None)
                for failure in check_compiled_differential(
                    system, formulas_, points, goodruns=vector
                )
            ]
        assert failures
        assert {f.oracle for f in failures} == {"compiled_vs_interpreted"}


# ---------------------------------------------------------------------------
# Allocation: the memo retains ints, not per-subformula closures
# ---------------------------------------------------------------------------


class TestRetainedObjects:
    def test_sweep_retains_no_functions_or_cells_per_subformula(self):
        """A compiled sweep keeps one int (or ``None``) per memoized
        subformula.  Live ``function``/``cell`` counts must grow by a
        small constant, however many subformulas were compiled — a GC
        heap that grew with them would be walked by every full
        collection."""
        from collections import Counter

        from repro.soundness import sweep_system

        def live() -> Counter:
            gc.collect()
            return Counter(type(o).__name__ for o in gc.get_objects())

        warm = generate_system(GeneratorConfig(seed=3, runs=2, steps_per_run=8))
        swept = generate_system(GeneratorConfig(seed=4, runs=3, steps_per_run=14))
        with _context.use(_context.fresh("retained-objects")):
            # Warm imports and module-level caches first.
            sweep_system(warm, max_instances_per_schema=5)
            before = live()
            report = sweep_system(swept)
            after = live()
            compiled = compiled_for(swept)
            memoized = compiled.cache_stats()["bitsets"]
        assert report.total_instances > 1000
        assert memoized > 1000
        for kind in ("function", "cell"):
            assert after[kind] - before[kind] <= 50, (kind, memoized)
