"""Good-runs construction oracles: fuzzing the Theorem 2/3 pipeline.

The iterative construction (:mod:`repro.goodruns.construction`) is a
semantic fixpoint, and its contract decomposes into mechanically
checkable invariants:

* **support** (Theorem 2) — the constructed vector supports every
  assumption at every time-0 point.  The theorem carries an unstated
  premise (see ``tests/test_theorem2_property.py``): assumption bodies
  must be *run-constant* — true at every point of a run or at none —
  because belief quantifies over all times of the possible runs while
  the construction filters at time 0 only.  Failures whose body is not
  run-constant relative to the constructed vector are therefore
  theorem-premise violations, not implementation bugs, and are
  filtered out (the sampler only emits run-constant bodies, so this
  filter is only load-bearing for nested beliefs, whose inner belief
  truth legitimately varies with time).
* **monotonicity** — stages shrink pointwise: ``G^j ⊆ G^{j-1}``.
* **idempotence** — the constructed vector is a fixpoint of one more
  application of *all* strata (:func:`repro.goodruns.construction.
  refine_once`).  This holds unconditionally under I1: belief-free
  bodies are vector-independent and beliefs sit in monotone positions,
  so everything that survived the staged filters survives the replay
  against the final (smaller) vector.
* **engine agreement** — the worklist and naive engines produce
  byte-identical stage tuples, under the belief and the epistemic
  backend alike (the naive engine evaluates through the backend's
  interpreter, so this compares the bitset engine with the reference).
* **optimality** (Theorem 3) — on small systems with depth-1
  run-constant assumptions (where I2 is vacuous and the theorem's
  premises hold), the constructed vector equals the brute-force
  maximum of all supporting vectors.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.errors import ReproError
from repro.goodruns.assumptions import InitialAssumptions
from repro.goodruns.construction import (
    ConstructionResult,
    construct_good_runs,
    refine_once,
    unsupported_assumptions,
)
from repro.goodruns.optimality import optimality_report
from repro.model.system import System
from repro.semantics.compiler import CompiledSystem, compiled_for
from repro.terms.atoms import Principal
from repro.terms.formulas import Believes, Formula, Truth
from repro.terms.ops import is_ground

from repro.fuzz.oracles import OracleFailure, _mentions_belief, sample_formulas


def _run_constant(compiled: CompiledSystem, formula: Formula) -> bool:
    """True iff the formula's truth never moves within any single run.

    Decided semantically on the compiled bitset: per run, the formula
    holds at every point or at none.  Unanalyzable formulas are *not*
    run-constant (callers treat them conservatively).
    """
    if not is_ground(formula):
        return False
    bits = compiled.truth_bits(formula)
    if bits is None:
        return False
    for run in compiled.system.runs:
        mask = compiled.run_mask(run.name)
        got = bits & mask
        if got != 0 and got != mask:
            return False
    return True


def sample_assumption_vector(
    rng: random.Random,
    system: System,
    count: int,
) -> InitialAssumptions | None:
    """A random I1-respecting assumption vector over the system.

    Bodies are drawn from the same vocabulary pool as the evaluator
    differentials (:func:`sample_formulas`) and prefiltered to the
    run-constant ones (the Theorem 2 premise); each becomes
    ``P believes body`` for a random principal.  One depth-2 chain
    ``P believes Q believes body`` is added per vector — I2-closed, so
    the optimality gate stays honest — keeping the multi-stage fixpoint
    machinery on the hook.  Returns None when the pool yields nothing
    usable for this workload.
    """
    principals = system.principals()
    if not principals:
        return None
    compiled = compiled_for(system)
    candidates = sample_formulas(rng, system, count * 3)
    bodies = [
        formula
        for formula in dict.fromkeys(candidates)
        if not _mentions_belief(formula) and _run_constant(compiled, formula)
    ]
    if not bodies:
        return None
    assignment: dict[Principal, list[Formula]] = {}
    for body in bodies[:count]:
        principal = rng.choice(principals)
        assignment.setdefault(principal, []).append(
            Believes(principal, body)
        )
    # One nested chain, closed under I2 (the inner belief is also an
    # assumption of its own principal).
    body = rng.choice(bodies)
    outer, inner = rng.choice(principals), rng.choice(principals)
    inner_belief = Believes(inner, body)
    assignment.setdefault(inner, []).append(inner_belief)
    assignment.setdefault(outer, []).append(Believes(outer, inner_belief))
    return InitialAssumptions.of(
        {
            principal: tuple(dict.fromkeys(formulas))
            for principal, formulas in assignment.items()
        }
    )


def deep_assumptions(system: System, depth: int) -> InitialAssumptions:
    """A deterministic multi-depth, I2-closed benchmark vector.

    Builds one belief chain of the given depth per principal (owners
    cycling through the system's principals) and closes it under
    suffixes, so every stratum ``1..depth`` is populated — the
    worklist-vs-naive span benchmark needs stages that all do work.
    Bodies are run-constant pool formulas when available, ``Truth()``
    otherwise.
    """
    from repro.soundness.sweep import pool_from_system

    principals = system.principals()
    compiled = compiled_for(system)
    bodies = [
        formula
        for formula in pool_from_system(system).formulas
        if not _mentions_belief(formula) and _run_constant(compiled, formula)
    ] or [Truth()]
    assignment: dict[Principal, list[Formula]] = {
        principal: [] for principal in principals
    }
    for i, _principal in enumerate(principals):
        chain: Formula = bodies[i % len(bodies)]
        for level in range(1, depth + 1):
            owner = principals[(i + level) % len(principals)]
            chain = Believes(owner, chain)
            assignment[owner].append(chain)
    return InitialAssumptions.of(
        {
            principal: tuple(dict.fromkeys(formulas))
            for principal, formulas in assignment.items()
            if formulas
        }
    )


def _search_space(system: System) -> int:
    """Candidate-vector count of the brute-force optimality search."""
    return (2 ** len(system.runs)) ** len(system.principals())


def _vectors_equal(a, b, system: System) -> bool:
    return a.leq(b, system) and b.leq(a, system)


def check_goodruns_construction(
    system: System,
    assumptions: InitialAssumptions,
    pattern_hide: bool = False,
    optimality_cap: int = 4096,
    construct: Callable[..., ConstructionResult] | None = None,
) -> list[OracleFailure]:
    """Run the construction and check every invariant it promises.

    ``construct`` overrides the construction under test (the planted-bug
    tests inject a deliberately broken one); None means the module-level
    :func:`construct_good_runs` — resolved at call time, so
    monkeypatching this module's global works too.
    """
    default_engine = construct is None
    if construct is None:
        construct = construct_good_runs
    failures: list[OracleFailure] = []
    result = construct(system, assumptions, pattern_hide=pattern_hide)

    # Theorem 2: support, filtered through the run-constancy premise.
    support_compiled = compiled_for(
        system, result.vector, pattern_hide=pattern_hide
    )
    for principal, formula, run_name in unsupported_assumptions(
        system, result.vector, assumptions, pattern_hide
    ):
        assert isinstance(formula, Believes)
        if not _run_constant(support_compiled, formula.body):
            continue
        failures.append(
            OracleFailure(
                "goodruns_support",
                f"constructed vector does not support {principal}'s "
                f"assumption at ({run_name}, 0); vector "
                f"{result.vector.describe()}",
                run_name=run_name,
                formula=str(formula),
                time=0,
            )
        )

    # Stagewise monotonicity: G^j ⊆ G^{j-1} pointwise.
    for j in range(1, len(result.stages)):
        if not result.stages[j].leq(result.stages[j - 1], system):
            failures.append(
                OracleFailure(
                    "goodruns_monotone",
                    f"stage {j} is not contained in stage {j - 1}: "
                    f"{result.stages[j].describe()} vs "
                    f"{result.stages[j - 1].describe()}",
                )
            )
            break

    # Fixpoint idempotence: one more application of all strata is a no-op.
    try:
        refined = refine_once(
            system, result.vector, assumptions, pattern_hide
        )
    except ReproError as error:
        refined = None
        failures.append(
            OracleFailure(
                "goodruns_idempotent",
                f"re-applying the strata at the fixpoint raised {error}",
            )
        )
    if refined is not None and not _vectors_equal(
        refined, result.vector, system
    ):
        failures.append(
            OracleFailure(
                "goodruns_idempotent",
                "re-applying the strata moved the constructed vector: "
                f"{result.vector.describe()} -> {refined.describe()}",
            )
        )

    # Engine differential: worklist and naive stages are byte-identical,
    # under each backend (the invariants above are the paper's, so they
    # stay belief-only).
    if default_engine:
        for backend in ("belief", "epistemic"):
            worklist = result if backend == "belief" else construct_good_runs(
                system, assumptions, pattern_hide=pattern_hide,
                backend=backend,
            )
            naive = construct_good_runs(
                system, assumptions, pattern_hide=pattern_hide,
                engine="naive", backend=backend,
            )
            if naive.stages != worklist.stages:
                failures.append(
                    OracleFailure(
                        "goodruns_engines",
                        f"{backend} worklist stages diverge from the naive "
                        f"loop: {[s.describe() for s in worklist.stages]} vs "
                        f"{[s.describe() for s in naive.stages]}",
                    )
                )

    # Theorem 3 (brute force): only where its premises provably hold —
    # depth ≤ 1 (I2 vacuous, bodies belief-free and run-constant by the
    # support filter above) on small-enough search spaces.
    if (
        assumptions.max_depth <= 1
        and assumptions.satisfies_i2()
        and _search_space(system) <= optimality_cap
        and all(
            _run_constant(support_compiled, formula.body)
            for _p, formula in assumptions.all_formulas()
            if isinstance(formula, Believes)
        )
    ):
        report = optimality_report(system, assumptions, pattern_hide)
        if report.maximum is None:
            failures.append(
                OracleFailure(
                    "goodruns_optimal",
                    "no maximum supporting vector exists although I1+I2 "
                    f"hold ({len(report.supporting)} supporting vectors)",
                )
            )
        elif not report.is_optimum(result.vector, system):
            failures.append(
                OracleFailure(
                    "goodruns_optimal",
                    "constructed vector is not the brute-force maximum: "
                    f"constructed {result.vector.describe()}, maximum "
                    f"{report.maximum.describe()}",
                )
            )
    return failures


def describe_assumptions(assumptions: InitialAssumptions) -> list[str]:
    """A compact script of an assumption vector for the JSON report."""
    lines = [f"assumptions: {len(list(assumptions.all_formulas()))} formula(s)"]
    for principal, formula in assumptions.all_formulas():
        lines.append(f"  {principal}: {formula}")
    return lines
