"""The truth definition ``(r, k) |= φ`` (Section 6).

:class:`Evaluator` transcribes the paper's semantic clauses over a
fixed :class:`~repro.model.system.System` and an optional
:class:`~repro.semantics.goodvectors.GoodRunVector` parameterizing
belief.  Parameters are resolved per Section 8: "to compute the truth
of a formula at a point (r, k), we first replace the parameters with
their values in the run r".

The evaluator is the library's ground truth: the soundness harness
audits both derivation engines against it.
"""

from __future__ import annotations

from typing import Iterator, TYPE_CHECKING

from repro import context as _context
from repro import perf

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs.trace import Tracer
from repro.errors import SemanticsError
from repro.model.runs import Run
from repro.model.submsgs import said_submsgs, seen_submsgs_all
from repro.model.system import Point, System
from repro.semantics.goodvectors import GoodRunVector
from repro.semantics.hide import HiddenView, hidden_local_view
from repro.terms.atoms import Principal, PrivateKey, PublicKey
from repro.terms.base import Message
from repro.terms.formulas import (
    And,
    Believes,
    Controls,
    ForAll,
    Formula,
    Fresh,
    Has,
    Iff,
    Implies,
    Not,
    Or,
    Prim,
    PublicKeyOf,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
    Truth,
)
from repro.terms.messages import Combined, Encrypted
from repro.terms.ops import free_parameters, is_ground, submessages_of_all, substitute

#: Live evaluators register with the *current engine context*
#: (``ctx.evaluators``, a WeakSet) so their per-instance memo tables
#: participate in the cache registry (``perf.clear_caches``/
#: ``cache_sizes``) like every other memoization layer — per session,
#: not per process.  Weak references: registration must not keep
#: finished evaluators (and their systems) alive.


def _clear_evaluator_memos() -> None:
    for evaluator in list(_context.current().evaluators):
        evaluator.clear_memos()


perf.register_cache(
    "eval_memo",
    _clear_evaluator_memos,
    lambda: sum(
        len(evaluator._memo)
        for evaluator in list(_context.current().evaluators)
    ),
)


class Evaluator:
    """Evaluates formulas at points of a system.

    Args:
        system: the system (runs + interpretation + vocabulary).
        goodruns: the vector parameterizing belief; ``None`` (and any
            principal missing from the vector) means every run is good,
            i.e. belief degenerates to hidden-state knowledge.
        pattern_hide: use the pattern variant of ``hide`` that preserves
            ciphertext identity (see :mod:`repro.semantics.hide`).
        tracer: an optional :class:`repro.obs.trace.Tracer` recording
            the evaluation tree of every ``evaluate`` call.  ``None``
            (the default) keeps the hot path at one attribute check.
    """

    def __init__(
        self,
        system: System,
        goodruns: GoodRunVector | None = None,
        pattern_hide: bool = False,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.system = system
        self.goodruns = goodruns or GoodRunVector()
        self.pattern_hide = pattern_hide
        self.tracer = tracer
        self._memo: dict[tuple[Formula, str, int], bool] = {}
        self._hidden: dict[tuple[Principal, str, int], HiddenView] = {}
        self._possible: dict[Principal, dict[HiddenView, list[Point]]] = {}
        self._said: dict[tuple[Principal, str], tuple[tuple[int, frozenset], ...]] = {}
        self._seen: dict[tuple[Principal, str, int], frozenset] = {}
        self._past: dict[str, frozenset] = {}
        _context.current().evaluators.add(self)

    # -- public API -------------------------------------------------------------

    def clear_memos(self) -> None:
        """Empty every per-instance memo table (the ``eval_memo`` layer's
        clearer, also used by :meth:`EngineContext.clear_session_caches`)."""
        self._memo.clear()
        self._hidden.clear()
        self._possible.clear()
        self._said.clear()
        self._seen.clear()
        self._past.clear()

    def cache_stats(self) -> dict[str, int]:
        """Sizes of this evaluator's internal memo tables.

        Hit/miss counts live in :data:`repro.perf.counters` under
        ``eval_memo.hit``/``eval_memo.miss`` — the one canonical
        accounting, shared with every other memoization layer (the
        evaluator registers its memos with ``perf`` like the rest; see
        :func:`repro.perf.snapshot`).
        """
        return {
            "memo_entries": len(self._memo),
            "hidden_views": len(self._hidden),
            "possible_indexes": len(self._possible),
            "said_entries": len(self._said),
            "seen_sets": len(self._seen),
            "past_submsg_sets": len(self._past),
        }

    def evaluate(self, formula: Formula, run: Run, k: int) -> bool:
        """``(r, k) |= φ`` after substituting the run's parameter values."""
        if not isinstance(formula, Formula):
            raise SemanticsError(f"cannot evaluate non-formula {formula!r}")
        # Ground formulas — the common case in the soundness sweep — skip
        # the substitution machinery entirely; ``is_ground`` is an O(1)
        # memoized attribute of the interned term, not a term walk.
        if not is_ground(formula):
            parameters = free_parameters(formula)
            assignment = {
                parameter: run.param_map[parameter]
                for parameter in parameters
                if parameter in run.param_map
            }
            formula = substitute(formula, assignment)  # type: ignore[assignment]
            left_over = free_parameters(formula)
            if left_over:
                missing = ", ".join(sorted(p.name for p in left_over))
                raise SemanticsError(
                    f"run {run.name!r} assigns no value to parameter(s) {missing}"
                )
        if not run.has_time(k):
            raise SemanticsError(f"time {k} outside run {run.name!r}")
        return self._eval(formula, run, k)

    def holds(self, formula: Formula, point: Point) -> bool:
        run, k = point
        return self.evaluate(formula, run, k)

    # -- the truth definition ------------------------------------------------------

    def _eval(self, formula: Formula, run: Run, k: int) -> bool:
        if self.tracer is not None:
            return self._eval_traced(formula, run, k)
        key = (formula, run.name, k)
        cached = self._memo.get(key)
        if cached is not None:
            perf.count("eval_memo.hit")
            return cached
        perf.count("eval_memo.miss")
        value = self._eval_uncached(formula, run, k)
        self._memo[key] = value
        return value

    def _eval_traced(self, formula: Formula, run: Run, k: int) -> bool:
        """The ``_eval`` body with the explanation tracer on the hook."""
        tracer = self.tracer
        node = tracer.enter(formula, run.name, k)
        try:
            key = (formula, run.name, k)
            cached = self._memo.get(key)
            if cached is not None:
                perf.count("eval_memo.hit")
                value, was_cached = cached, True
            else:
                perf.count("eval_memo.miss")
                value = self._eval_uncached(formula, run, k)
                self._memo[key] = value
                was_cached = False
            # Belief nodes carry their possibility-set size even when
            # the memo answered — the count is what makes a "why-false"
            # tree auditable, and the index lookup is O(1) once warm.
            if type(formula) is Believes and isinstance(
                formula.principal, Principal
            ):
                try:
                    points = self.possible_points(formula.principal, run, k)
                except SemanticsError:
                    pass
                else:
                    node.attrs["possible_points"] = len(points)
                    node.attrs["hidden_view_width"] = len(
                        self._hidden_view(formula.principal, run, k)
                    )
            tracer.exit(node, value, was_cached)
            return value
        except BaseException:
            tracer.abandon(node)
            raise

    def _eval_uncached(self, formula: Formula, run: Run, k: int) -> bool:
        match formula:
            case Truth():
                return True
            case Prim(atom):
                return self.system.interpretation.holds(atom, run, k)
            case Not(body):
                return not self._eval(body, run, k)
            case And(left, right):
                return self._eval(left, run, k) and self._eval(right, run, k)
            case Or(left, right):
                return self._eval(left, run, k) or self._eval(right, run, k)
            case Implies(antecedent, consequent):
                return (not self._eval(antecedent, run, k)) or self._eval(
                    consequent, run, k
                )
            case Iff(left, right):
                return self._eval(left, run, k) == self._eval(right, run, k)
            case Sees(principal, message):
                return message in self._seen_set(_principal(principal), run, k)
            case Said(principal, message):
                return self._said_holds(_principal(principal), message, run, k,
                                        present_only=False)
            case Says(principal, message):
                return self._said_holds(_principal(principal), message, run, k,
                                        present_only=True)
            case Controls(principal, body):
                return self._controls(_principal(principal), body, run)
            case Fresh(message):
                return message not in self._past_submsgs(run)
            case Has(principal, key):
                return key in run.keyset(_principal(principal), k)
            case SharedKey(left, key, right):
                return self._shared_key(_principal(left), key,
                                        _principal(right), run)
            case PublicKeyOf(principal, key):
                return self._public_key_of(_principal(principal), key, run)
            case SharedSecret(left, secret, right):
                return self._shared_secret(_principal(left), secret,
                                           _principal(right), run)
            case Believes(principal, body):
                return self._believes(_principal(principal), body, run, k)
            case ForAll(variable, body):
                constants = self.system.vocabulary.constants(variable.value_sort)
                if self.tracer is not None:
                    self.tracer.annotate(domain=len(constants))
                return all(
                    self._eval(substitute(body, {variable: constant}), run, k)
                    for constant in constants
                )
            case _:
                raise SemanticsError(f"cannot evaluate {formula!r}")

    # -- seeing ----------------------------------------------------------------

    def _seen_set(self, principal: Principal, run: Run, k: int) -> frozenset:
        """All X with (r, k) |= principal sees X."""
        key = (principal, run.name, k)
        cached = self._seen.get(key)
        if cached is None:
            keys = run.keyset(principal, k)
            received = run.received_messages(principal, k)
            cached = seen_submsgs_all(keys, received)
            self._seen[key] = cached
        return cached

    # -- saying ----------------------------------------------------------------

    def _said_entries(
        self, principal: Principal, run: Run
    ) -> tuple[tuple[int, frozenset], ...]:
        """(send time, said_submsgs) for every send the principal performed.

        ``said_submsgs`` is computed with the key set and received set
        the principal had *at the time of the send* — acquiring a key
        later never extends what was said (Section 6).
        """
        key = (principal, run.name)
        cached = self._said.get(key)
        if cached is None:
            entries = []
            environment = principal == run.environment
            previous = None
            for k, state in zip(run.times, run.states):
                local = state.env if environment else state.local_map.get(principal)
                if local is not None and local is previous:
                    # Same state object as one step earlier: nothing
                    # was performed at k.
                    continue
                previous = local
                sends = run.sends_performed_at(principal, k)
                if not sends:
                    continue
                keys = run.keyset(principal, k)
                received = run.received_messages(principal, k)
                for send in sends:
                    entries.append(
                        (k, said_submsgs(keys, received, send.message))
                    )
            cached = tuple(entries)
            self._said[key] = cached
        return cached

    def _said_holds(
        self,
        principal: Principal,
        message: Message,
        run: Run,
        k: int,
        present_only: bool,
    ) -> bool:
        for sent_at, components in self._said_entries(principal, run):
            if sent_at > k:
                continue
            if present_only and sent_at <= 0:
                continue
            if message in components:
                return True
        return False

    # -- jurisdiction --------------------------------------------------------------

    def _controls(self, principal: Principal, body: Formula, run: Run) -> bool:
        """P controls φ: at every k' >= 0, P says φ implies φ.

        Independent of the evaluation time k within the epoch, exactly
        as the paper notes.
        """
        for k_prime in run.times:
            if k_prime < 0:
                continue
            if self._said_holds(principal, body, run, k_prime, present_only=True):
                if not self._eval(body, run, k_prime):
                    return False
        return True

    # -- freshness -------------------------------------------------------------------

    def _past_submsgs(self, run: Run) -> frozenset:
        """Submessages of every message sent by time 0 in the run."""
        cached = self._past.get(run.name)
        if cached is None:
            cached = submessages_of_all(run.messages_sent_by(0))
            self._past[run.name] = cached
        return cached

    # -- shared keys and secrets --------------------------------------------------------

    def _shared_key(
        self, left: Principal, key: Message, right: Principal, run: Run
    ) -> bool:
        """P <-K-> Q: only P and Q ever *encrypt* with K.

        For every other principal R and every ciphertext under K that R
        said, R must have seen that ciphertext (it relayed a copy rather
        than encrypting).  The quantification is over *all* times of the
        run, so "a good key for one pair in one epoch cannot be a good
        key for another pair in another epoch".
        """
        for principal in run.all_principals:
            if principal == left or principal == right:
                continue
            for sent_at, components in self._said_entries(principal, run):
                seen = self._seen_set(principal, run, sent_at)
                for component in components:
                    if isinstance(component, Encrypted) and component.key == key:
                        if component not in seen:
                            return False
        return True

    def _public_key_of(self, owner: Principal, key, run: Run) -> bool:
        """pk(P, K): only P ever *signs* with the private partner K⁻¹.

        The public-key analogue of the shared-key clause: any other
        principal that said a K⁻¹-ciphertext (a signature) must have
        seen it — it relayed a copy rather than signing.
        """
        if not isinstance(key, PublicKey):
            raise SemanticsError(
                f"pk(...) needs a PublicKey constant, got {key!r}"
            )
        private = key.partner
        for principal in run.all_principals:
            if principal == owner:
                continue
            for sent_at, components in self._said_entries(principal, run):
                seen = self._seen_set(principal, run, sent_at)
                for component in components:
                    if (
                        isinstance(component, Encrypted)
                        and component.key == private
                        and component not in seen
                    ):
                        return False
        return True

    def _shared_secret(
        self, left: Principal, secret: Message, right: Principal, run: Run
    ) -> bool:
        """P <-X-> Q (secret): only P and Q ever *combine* with X."""
        for principal in run.all_principals:
            if principal == left or principal == right:
                continue
            for sent_at, components in self._said_entries(principal, run):
                seen = self._seen_set(principal, run, sent_at)
                for component in components:
                    if isinstance(component, Combined) and component.secret == secret:
                        if component not in seen:
                            return False
        return True

    # -- belief -----------------------------------------------------------------------------

    def _hidden_view(self, principal: Principal, run: Run, k: int) -> HiddenView:
        key = (principal, run.name, k)
        cached = self._hidden.get(key)
        if cached is None:
            cached = hidden_local_view(run, principal, k, self.pattern_hide)
            self._hidden[key] = cached
        return cached

    def _possible_index(
        self, principal: Principal
    ) -> dict[HiddenView, list[Point]]:
        """Bucket the points of the principal's good runs by hidden view."""
        cached = self._possible.get(principal)
        if cached is None:
            cached = {}
            good = self.goodruns.good_runs(principal)
            for run in self.system.runs:
                if good is not None and run.name not in good:
                    continue
                if (
                    principal != run.environment
                    and not run.is_system_principal(principal)
                ):
                    continue
                for k in run.times:
                    view = self._hidden_view(principal, run, k)
                    cached.setdefault(view, []).append((run, k))
            self._possible[principal] = cached
        return cached

    def possible_points(
        self, principal: Principal, run: Run, k: int
    ) -> tuple[Point, ...]:
        """The points (r', k') with (r, k) ~_P (r', k')."""
        if principal != run.environment and not run.is_system_principal(principal):
            raise SemanticsError(
                f"{principal} has no local state in run {run.name!r}"
            )
        view = self._hidden_view(principal, run, k)
        return tuple(self._possible_index(principal).get(view, ()))

    def _believes(
        self, principal: Principal, body: Formula, run: Run, k: int
    ) -> bool:
        """P believes φ: φ holds at every point P considers possible —
        the indistinguishable (after hiding) points of P's good runs."""
        for other_run, other_k in self.possible_points(principal, run, k):
            if not self._eval(body, other_run, other_k):
                return False
        return True

    # -- convenience ------------------------------------------------------------------------

    def points(self) -> Iterator[Point]:
        return self.system.points()


def _principal(term: Message) -> Principal:
    if isinstance(term, Principal):
        return term
    raise SemanticsError(
        f"principal position holds non-constant {term!r}; "
        "substitute parameters before evaluation"
    )
