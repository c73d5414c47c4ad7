"""The ``epistemic`` backend: belief as guarded defensible knowledge.

Halpern–van der Meyden–Pucella's program ("An Epistemic Foundation for
Authentication Logics") reads BAN-style belief as a *knowledge-based*
notion over the same runs-and-systems models: instead of the paper's
primitive good-run vector clause, ``P believes φ`` is defined from the
knowledge operator ``K_P`` (truth at every hidden-view-indistinguishable
point) plus the principal's operating assumption α — here, "the current
run is one of P's good runs".  This module implements that reading as a
second :class:`~repro.semantics.backend.SemanticsBackend`, sharing the
hiding kernels, the dense-bitset compiler, and every non-belief clause
with the default ``belief`` backend, so the two differ in exactly one
clause and nothing else.

**The truth definition.**  Following the *guarded* Shoham–Moses form
already exhibited in :mod:`repro.goodruns.defensible`::

    B_P(φ, α)  =  K_P(α ⊃ φ)  ∧  (K_P ¬α ⊃ K_P φ)

with α(r) = "r ∈ G_P".  Operationally, at a point (r, k):

* let ``possible`` be every point of the system indistinguishable from
  (r, k) under P's hidden view (runs where P has local state);
* let ``good_possible = possible ∩ {points of P's good runs}`` — this
  is exactly the paper's possibility set;
* if ``good_possible`` is non-empty, require φ at each of its points —
  this is ``K_P(α ⊃ φ)``, which coincides with the paper's belief
  clause;
* if ``good_possible`` is empty, P *knows* its assumptions are violated
  (``K_P ¬α``); the guard then demands full knowledge: φ at **every**
  point of ``possible``.

**The containment theorem.**  Where the paper's belief clause is
vacuously true (empty possibility set — "an agent that knows its
assumptions are violated believes everything", the property Shoham and
Moses call rather strange), the guarded clause demands knowledge.
Everywhere else the two clauses are pointwise identical.  Hence at
every point and for every body φ::

    epistemic ⊨ (r,k) P believes φ   ⟹   belief ⊨ (r,k) P believes φ

i.e. the defensible-knowledge beliefs are *contained in* the paper's
beliefs — holding a belief under the epistemic backend is the stronger
claim.  The implication lifts from the ``Believes`` clause to every
formula in which belief occurs only positively (no ``Believes`` under
an odd number of negations — :func:`repro.terms.ops.has_belief_under_negation`
is the syntactic check), because all other clauses are shared and the
connectives are monotone in positive positions.  Belief-free formulas
agree exactly.  The ``cross_backend`` fuzz oracle
(:mod:`repro.fuzz.oracles`) holds campaigns to precisely this map:
*belief-true/epistemic-false* is an expected, theorem-consistent
disagreement; *epistemic-true/belief-false* on a belief-positive
formula is a counterexample.

**Engineering shape.**  :class:`EpistemicEvaluator` subclasses the
interpreter and overrides only ``_believes`` (plus a second possibility
index over *all* runs for the knowledge guard).  The bitset engine is
the shared :class:`~repro.semantics.compiler.CompiledSystem`;
:meth:`EpistemicBackend.belief_clause` is the guarded clause over the
compiler's per-view-class ``(members, possible)`` pairs.  Under the
compiler's uniform-principal gate ``members`` is the knowledge set and
``possible``, its points in good runs, the α-subset, so the guarded
clause is *still one subset test per view class*.  The good-run vector is a per-query input there, exactly as
for belief, so this backend runs the sweep's ``truth_bits`` fast path
and the worklist good-runs construction unchanged.
"""

from __future__ import annotations

from repro.errors import SemanticsError
from repro.model.runs import Run
from repro.model.system import Point, System
from repro.semantics.backend import SemanticsBackend
from repro.semantics.compiler import CompiledSystem, compiled_for
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.semantics.hide import HiddenView
from repro.terms.atoms import Principal
from repro.terms.formulas import Formula


class EpistemicEvaluator(Evaluator):
    """The interpreter with belief read as guarded defensible knowledge.

    Everything except the ``Believes`` clause — hiding, seeing, saying,
    freshness, key goodness, quantification, memoization, tracing — is
    inherited byte-for-byte from :class:`Evaluator`.  The override
    keeps a second possibility index over *all* runs (the knowledge
    relation) beside the inherited good-runs index.
    """

    def __init__(
        self,
        system: System,
        goodruns: GoodRunVector | None = None,
        pattern_hide: bool = False,
        tracer=None,
    ) -> None:
        super().__init__(
            system, goodruns, pattern_hide=pattern_hide, tracer=tracer
        )
        self._knowledge: dict[Principal, dict[HiddenView, list[Point]]] = {}

    def clear_memos(self) -> None:
        super().clear_memos()
        self._knowledge.clear()

    # -- the knowledge relation ------------------------------------------------

    def _knowledge_index(
        self, principal: Principal
    ) -> dict[HiddenView, list[Point]]:
        """Bucket *every* run's points by hidden view (the K_P relation)."""
        cached = self._knowledge.get(principal)
        if cached is None:
            cached = {}
            for run in self.system.runs:
                if (
                    principal != run.environment
                    and not run.is_system_principal(principal)
                ):
                    continue
                for k in run.times:
                    view = self._hidden_view(principal, run, k)
                    cached.setdefault(view, []).append((run, k))
            self._knowledge[principal] = cached
        return cached

    def knowledge_points(
        self, principal: Principal, run: Run, k: int
    ) -> tuple[Point, ...]:
        """The points (r', k') with (r, k) ~_P (r', k'), all runs."""
        if principal != run.environment and not run.is_system_principal(
            principal
        ):
            raise SemanticsError(
                f"{principal} has no local state in run {run.name!r}"
            )
        view = self._hidden_view(principal, run, k)
        return tuple(self._knowledge_index(principal).get(view, ()))

    # -- the guarded belief clause ----------------------------------------------

    def _believes(
        self, principal: Principal, body: Formula, run: Run, k: int
    ) -> bool:
        """B_P(φ, α) = K_P(α ⊃ φ) ∧ (K_P ¬α ⊃ K_P φ), α = "run is good".

        The inherited ``possible_points`` *is* the α-satisfying subset
        of the knowledge set; when it is non-empty the guard is moot
        and the clause coincides with the paper's.  When it is empty
        the paper's clause is vacuous and the guard demands knowledge.
        """
        good_possible = self.possible_points(principal, run, k)
        if good_possible:
            for other_run, other_k in good_possible:
                if not self._eval(body, other_run, other_k):
                    return False
            return True
        for other_run, other_k in self.knowledge_points(principal, run, k):
            if not self._eval(body, other_run, other_k):
                return False
        return True


class EpistemicBackend(SemanticsBackend):
    """Registry packaging of the epistemic semantics."""

    name = "epistemic"
    supports_tracing = True

    def compile(
        self,
        system: System,
        goodruns: GoodRunVector | None = None,
        pattern_hide: bool = False,
    ) -> CompiledSystem:
        return compiled_for(system, goodruns, pattern_hide, backend=self)

    def interpreter(
        self,
        system: System,
        goodruns: GoodRunVector | None = None,
        pattern_hide: bool = False,
        tracer=None,
    ) -> EpistemicEvaluator:
        return EpistemicEvaluator(
            system, goodruns, pattern_hide=pattern_hide, tracer=tracer
        )

    @staticmethod
    def belief_clause(groups: tuple[tuple[int, int], ...], body: int) -> int:
        """``members`` of a view class is P's knowledge set,
        ``possible`` its good-run (α) subset."""
        bits = 0
        for members, possible in groups:
            # Non-empty α-subset: K_P(α ⊃ φ), identical to belief.
            # Empty: the guard K_P¬α ⊃ K_Pφ bites — subset-test the
            # whole view class (the knowledge set) instead.
            target = possible or members
            if target & body == target:
                bits |= members
        return bits
