"""Optimality of supporting vectors (Section 7, Theorem 3).

A vector G supporting I is *optimum* if it is the maximum (under
pointwise inclusion) of all vectors supporting I.  Relative to an
optimum vector a principal "initially believes only its initial beliefs
and all beliefs that necessarily follow from them".

On finite systems the question is decidable by brute force: enumerate
every assignment of run subsets to principals, keep the supporting
ones, and look for a maximum.  The search space is
``(2^|runs|)^|principals|``, so this is only for the small systems used
in the paper's examples — the coin-toss counterexample (Theorem 3's
necessity) has two runs and three principals: 64 candidate vectors.

The enumeration compiles the system **once** per ``(system,
pattern_hide)``: every candidate vector queries that one compilation
(:meth:`~repro.semantics.compiler.CompiledSystem.at`), so belief-free
subformulas and hidden-view classes are shared across all
``(2^|runs|)^|principals|`` support checks instead of being recompiled
per candidate.  Formulas the compiled path cannot answer fall back to
the interpreter at the candidate vector, with identical verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import AssumptionError
from repro.goodruns.assumptions import InitialAssumptions
from repro.goodruns.construction import _validate_assumptions
from repro.model.system import System
from repro.semantics.compiler import CompiledSystem, compiled_for
from repro.semantics.goodvectors import GoodRunVector
from repro.terms.ops import is_ground

#: Enumeration guard: refuse blow-ups beyond this many candidate vectors.
MAX_CANDIDATES = 1 << 20


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the exhaustive supporting-vector search."""

    supporting: tuple[GoodRunVector, ...]
    maximum: GoodRunVector | None

    @property
    def has_optimum(self) -> bool:
        return self.maximum is not None

    def is_optimum(self, vector: GoodRunVector, system: System) -> bool:
        """Is the given vector the maximum of all supporting vectors?"""
        if self.maximum is None:
            return False
        return self.maximum.leq(vector, system) and vector.leq(
            self.maximum, system
        )


def _time0_mask(compiled: CompiledSystem) -> int | None:
    """The mask of every run's time-0 point (None if a run has none —
    the per-run path then raises the interpreter's error)."""
    mask = 0
    for run in compiled.system.runs:
        index = compiled.point_index.get((run.name, 0))
        if index is None:
            return None
        mask |= 1 << index
    return mask


def _vector_supports(
    compiled: CompiledSystem,
    vector: GoodRunVector,
    assumptions: InitialAssumptions,
) -> bool:
    """One candidate's support check against the shared compilation."""
    engine = compiled.at(vector)
    time0 = _time0_mask(compiled)
    for _principal, formula in assumptions.all_formulas():
        bits = (
            engine.truth_bits(formula)
            if time0 is not None and is_ground(formula) else None
        )
        if bits is None:
            if not all(
                engine.evaluate(formula, run, 0)
                for run in engine.system.runs
            ):
                return False
        elif bits & time0 != time0:
            return False
    return True


def enumerate_supporting_vectors(
    system: System,
    assumptions: InitialAssumptions,
    pattern_hide: bool = False,
) -> tuple[GoodRunVector, ...]:
    """All vectors supporting I, by brute-force enumeration."""
    _validate_assumptions(system, assumptions)
    principals = system.principals()
    run_names = sorted(run.name for run in system.runs)
    subsets = [
        frozenset(combo)
        for size in range(len(run_names) + 1)
        for combo in itertools.combinations(run_names, size)
    ]
    total = len(subsets) ** len(principals)
    if total > MAX_CANDIDATES:
        raise AssumptionError(
            f"optimality search space too large ({total} candidate vectors); "
            "use a smaller system"
        )
    compiled = compiled_for(system, None, pattern_hide)
    supporting = []
    for choice in itertools.product(subsets, repeat=len(principals)):
        vector = GoodRunVector.of(dict(zip(principals, choice)))
        if _vector_supports(compiled, vector, assumptions):
            supporting.append(vector)
    return tuple(supporting)


def optimality_report(
    system: System,
    assumptions: InitialAssumptions,
    pattern_hide: bool = False,
) -> OptimalityReport:
    """Search for the maximum supporting vector (None if there is none).

    The maximum, when it exists, equals the pointwise union of all
    supporting vectors — but only if that union itself supports I, which
    is exactly what fails in the coin-toss counterexample.
    """
    supporting = enumerate_supporting_vectors(system, assumptions, pattern_hide)
    if not supporting:
        return OptimalityReport((), None)
    principals = system.principals()
    union = {
        principal: frozenset().union(
            *(vector.good_runs(principal) or frozenset() for vector in supporting)
        )
        for principal in principals
    }
    candidate = GoodRunVector.of(union)
    for vector in supporting:
        if not vector.leq(candidate, system):  # pragma: no cover - impossible
            return OptimalityReport(supporting, None)
    compiled = compiled_for(system, None, pattern_hide)
    if _vector_supports(compiled, candidate, assumptions):
        return OptimalityReport(supporting, candidate)
    return OptimalityReport(supporting, None)
