"""Compiled evaluation: the truth definition as one memoized table.

The recursive :class:`~repro.semantics.evaluator.Evaluator` re-matches
the same formula ASTs structurally at every point — for sweep-shaped
workloads (many instances × every point of the system) more than half
the work is dispatch and memo-key hashing.  The paper's truth
definition maps a formula to the set of points where it holds; this
module computes that map per ``(system, pattern_hide, backend)`` as
**one memo**, ``formula → bitset``, whose unit of evaluation is the
*whole system*:

* Points are numbered into dense ints (``system.points()`` order), so
  a truth value over the system is a single Python-int **bitset** —
  bit ``i`` is the verdict at point ``i``.
* Connectives become direct bitwise ops on those ints (``&``, ``|``,
  ``^``) — no per-point re-dispatch, no per-point memo lookups.
* ``P sees X``, ``P has K`` and P's hidden view depend on P's local
  state alone (Sections 5-6), so each principal gets **point-class
  tables**, built once on first use: its points grouped by local-state
  object, then by equal key set, equal seen set and equal hidden view.
  ``Sees``/``Has`` run one membership test per class and OR the masks
  of the classes that pass — no per-point work.  Nothing assumes the
  sets grow with time: a principal that drops a key simply lands in a
  different class.
* ``Said``/``Says`` are one lookup in a per-principal table mapping
  every component the principal ever said to its points; ``P controls
  φ`` is derived from the ``P says φ`` bitset (a run satisfies it iff
  ``says & ~φ`` has no bit in the run).  ``Fresh`` and the key-goodness
  clauses are run-level facts; the latter read a per-run table of who
  *made* (said without having seen) each ciphertext or combination.
* ``Believes`` reads the hidden-view classes: every view class is a
  ``(members, possible)`` bitset pair, ``possible`` being the members in
  the principal's good runs, and the belief check collapses to one
  subset test per class (the paper's clause: ``possible ⊆ body``) — the
  per-(formula, viewclass) sharing the interpreter's per-point loop
  could never amortize.  That test is the backend seam,
  :meth:`~repro.semantics.backend.SemanticsBackend.belief_clause`.
* ``ForAll`` expands over the vocabulary.

One recursive walk fills the memo: each ground subformula's bitset is
computed once, keyed by the *interned* formula, so schema instances
sharing subformulas share their bitsets, and nothing but an int (or
``None``) is retained per subformula.

**The good-run vector is a query input, not a compile key.**  Only the
belief clause reads it (Section 6), so one compilation serves every
vector: :meth:`CompiledSystem.at` hands out a handle bound to a vector
that shares every table and the memo.  A bitset is memoized under the
formula plus the good-run masks the handle gives the principals whose
beliefs the formula evaluates — through ``Controls`` bodies and
``ForAll`` expansions too — and under the formula alone when the handle
restricts none of them.  So belief-free bitsets serve every vector, the
top vector (the sweep's) never builds a signature, and the Section 7
construction, which re-asks belief bodies at each stage ``G^j``,
recomputes only what a shrinking good set can move.

**Fidelity.**  The compiler is a fast path, not a second semantics:
anything it cannot compute with byte-identical behaviour — a formula
mentioning a principal without local state in some run (where the
interpreter's error behaviour is point- and order-dependent), an
unknown connective, a malformed ``pk(...)`` — is memoized as ``None``
and falls back to the backend's interpreter at the handle's vector.
Tracing always takes the interpreter
(:meth:`CompiledSystem.evaluate_traced`): trace fidelity is cheaper to
inherit than to re-emit.  The ``compiled_vs_interpreted`` fuzz oracle
(:mod:`repro.fuzz.oracles`) holds the two engines byte-identical
across campaigns.

Compiled state is session-owned: :func:`compiled_for` caches one
``CompiledSystem`` per ``(system, pattern_hide, backend)`` on the
current :class:`~repro.context.EngineContext` (``ctx.compiled_systems``), and
the ``compiled_eval`` perf layer reports compile-cache hits/misses and
registers with ``perf.clear_caches``/``cache_sizes`` like every other
memoization layer.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable, Mapping
from types import MappingProxyType
from typing import Callable

from repro import context as _context
from repro import perf
from repro.errors import SemanticsError
from repro.model.runs import Run
from repro.model.system import Point, System
from repro.semantics.backend import SemanticsBackend, get_backend
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.terms.atoms import Principal, PublicKey
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
from repro.terms.ops import free_parameters, is_ground, substitute

#: Belief groups of one principal: ``(members, possible)`` bit pairs,
#: one per hidden-view class.
BeliefGroups = tuple[tuple[int, int], ...]

#: Point classes of one principal: ``(value, mask)`` pairs, one per
#: distinct value (a key set, a seen set, a hidden view), where ``mask``
#: holds every point at which the principal's state has that value.
PointClasses = tuple[tuple[object, int], ...]

#: Memo sentinel: distinguishes "absent" from "cached as uncompilable".
_MISSING = object()


def _clear_compiled() -> None:
    _context.current().compiled_systems.clear()


def _compiled_size() -> int:
    return sum(
        len(compiled._bits)
        for compiled in _context.current().compiled_systems.values()
    )


perf.register_cache("compiled_eval", _clear_compiled, _compiled_size)


class CompiledSystem:
    """One ``(system, pattern_hide, backend)`` compilation, queried
    relative to one good-run vector.

    Presents the same ``evaluate(formula, run, k)`` / ``holds(formula,
    point)`` surface as :class:`Evaluator`, so the hot loops (soundness
    sweep, engine-replay audit, good-runs support checks) adopt it
    without restructuring.  Obtain instances through
    :func:`compiled_for` (or a backend's ``compile``), which caches the
    compilation on the current engine context, and :meth:`at` for
    further vectors.

    The backend enters in two places only: its
    :meth:`~repro.semantics.backend.SemanticsBackend.belief_clause` and
    its interpreter (fallback and tracing); every other clause is
    shared.
    """

    def __init__(
        self,
        system: System,
        goodruns: GoodRunVector | None = None,
        pattern_hide: bool = False,
        backend: SemanticsBackend | None = None,
    ) -> None:
        self.system = system
        self.pattern_hide = pattern_hide
        self.backend = backend if backend is not None else get_backend()
        #: Dense point numbering, in ``system.points()`` order.
        self.points: tuple[Point, ...] = tuple(system.points())
        self.point_index: dict[tuple[str, int], int] = {
            (run.name, k): i for i, (run, k) in enumerate(self.points)
        }
        #: All-points mask: the truth vector of ``Truth()``.
        self.full_mask: int = (1 << len(self.points)) - 1
        #: Per-run masks (``Fresh``/key-goodness are run-level facts).
        self._run_masks: dict[str, int] = {}
        for i, (run, _k) in enumerate(self.points):
            self._run_masks[run.name] = (
                self._run_masks.get(run.name, 0) | (1 << i)
            )
        #: Truth bitsets keyed by :meth:`_memo_key`; ``None`` marks a
        #: formula the compiled path cannot answer faithfully.
        self._bits: dict[object, int | None] = {}
        #: Belief subjects per formula (see :meth:`_belief_deps`).
        self._deps: dict[Formula, tuple[Message, ...]] = {}
        #: Memo hits and misses of the walk in progress (see
        #: :meth:`_flush_counts`).
        self._hits = 0
        self._misses = 0
        #: Principal uniformity (state in every run), keyed by principal.
        self._uniform: dict[Principal, bool] = {}
        #: Point-class tables per (kind, principal): ``"state"`` holds a
        #: representative point per local-state object, ``"keys"``,
        #: ``"seen"`` and ``"views"`` merge those by equal value.
        self._classes: dict[tuple[str, Principal], PointClasses] = {}
        #: Belief groups per (principal, good-run mask) (see
        #: :meth:`_belief_groups`).
        self._groups: dict[tuple[Principal, int | None], BeliefGroups] = {}
        #: ``(said, says)`` masks per principal (see :meth:`_said_masks`).
        self._said_tables: dict[
            Principal, tuple[dict[Message, int], dict[Message, int]]
        ] = {}
        #: Component makers per run name (see :meth:`_makers`).
        self._run_makers: dict[str, dict[tuple, set[Principal]]] = {}
        self._bind(goodruns)
        #: The interpreter whose memoized ``_seen_set``/
        #: ``_said_entries``/``_past_submsgs``/``_hidden_view`` kernels
        #: build the tables, which keeps them byte-identical to the
        #: interpreted semantics by construction.  The kernels do not
        #: read the vector.
        self._kernel: Evaluator = self.interpreter

    # -- public API -----------------------------------------------------------

    def at(self, goodruns: GoodRunVector | None) -> CompiledSystem:
        """This compilation queried relative to ``goodruns``.

        The handle is a shallow copy: it shares every table and the
        memo with this one, so nothing is recompiled; only the vector
        and the fallback interpreter are its own.
        """
        if (goodruns or GoodRunVector()) == self.goodruns:
            return self
        handle = copy.copy(self)
        handle._bind(goodruns)
        return handle

    def _bind(self, goodruns: GoodRunVector | None) -> None:
        """Make ``goodruns`` this handle's vector."""
        self.goodruns = goodruns or GoodRunVector()
        #: Good-run point masks of the principals the vector restricts
        #: (a principal whose good runs cover the system is left out).
        self._masks: dict[Message, int] = {}
        for principal, names in self.goodruns.entries:
            mask = 0
            for name in names:
                # Names outside the system contribute no points, exactly
                # as in the interpreter's possibility filter.
                mask |= self._run_masks.get(name, 0)
            if mask != self.full_mask:
                self._masks[principal] = mask
        #: This handle's fallback interpreter (built on first use).
        self._interpreter: Evaluator | None = None

    @property
    def interpreter(self) -> Evaluator:
        """The backend's interpreter at this handle's vector: the
        fallback for whatever the compiled path leaves uncomputed."""
        if self._interpreter is None:
            self._interpreter = self.backend.interpreter(
                self.system, self.goodruns, pattern_hide=self.pattern_hide
            )
        return self._interpreter

    def evaluate(self, formula: Formula, run: Run, k: int) -> bool:
        """``(r, k) |= φ`` — same contract as :meth:`Evaluator.evaluate`."""
        if not isinstance(formula, Formula):
            raise SemanticsError(f"cannot evaluate non-formula {formula!r}")
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
        index = self.point_index.get((run.name, k))
        if index is None:
            # A point outside the compiled system (foreign run): the
            # interpreter handles it with its per-point machinery.
            perf.count("compiled_eval.fallback")
            return self.interpreter._eval(formula, run, k)
        bits = self.truth_bits(formula)
        if bits is None:
            return self.interpreter._eval(formula, run, k)
        return bool((bits >> index) & 1)

    def holds(self, formula: Formula, point: Point) -> bool:
        run, k = point
        return self.evaluate(formula, run, k)

    def evaluate_traced(self, formula: Formula, run: Run, k: int, tracer) -> bool:
        """Evaluate with an explanation tracer attached.

        Tracing runs through a fresh interpreter at this handle's
        vector: the trace records are identical to the interpreted
        engine's by construction (cheaper than teaching every compiled
        clause to emit them).
        """
        traced = self.backend.interpreter(
            self.system, self.goodruns,
            pattern_hide=self.pattern_hide, tracer=tracer,
        )
        return traced.evaluate(formula, run, k)

    def truth_bits(self, formula: Formula) -> int | None:
        """The formula's whole-system truth bitset, or ``None`` when the
        formula cannot be compiled faithfully (caller should fall back).

        The formula must be ground (callers go through
        :meth:`evaluate`, which substitutes parameters first).
        """
        key = self._memo_key(formula) if self._masks else formula
        bits = self._bits.get(key, _MISSING)
        if bits is _MISSING:
            try:
                bits = self._compute(formula, key)
            finally:
                self._flush_counts()
            if bits is None:
                # Journal only the *first* verdict per memo key: the
                # flight recorder wants "this shape fell back", not one
                # event per point of a hot loop.
                from repro.obs import journal

                journal.record(
                    "fallback", engine="compiled",
                    formula=str(formula)[:160],
                )
        elif bits is not None:
            perf.count("compiled_eval.hit")
            return bits
        if bits is None:
            perf.count("compiled_eval.fallback")
        return bits

    def run_mask(self, name: str) -> int:
        """The point mask of one run (0 for a name not in the system)."""
        return self._run_masks.get(name, 0)

    def can_compile(self, formula: Formula) -> bool:
        """Whether :meth:`truth_bits` can answer for this formula."""
        try:
            return self._lookup(formula) is not None
        finally:
            self._flush_counts()

    def cache_stats(self) -> dict[str, int]:
        """Sizes of this compilation's internal tables."""
        return {
            "bitsets": sum(bits is not None for bits in self._bits.values()),
            "uncompilable": sum(bits is None for bits in self._bits.values()),
            "points": len(self.points),
        }

    # -- the memo -------------------------------------------------------------

    def _lookup(self, formula: Formula) -> int | None:
        """A subformula's bitset, computed on first use."""
        key = self._memo_key(formula) if self._masks else formula
        bits = self._bits.get(key, _MISSING)
        if bits is _MISSING:
            return self._compute(formula, key)
        if bits is not None:
            self._hits += 1
        return bits

    def _compute(self, formula: Formula, key: object) -> int | None:
        """Compute and memoize one formula's bitset (``None``: the
        compiled path cannot reproduce the interpreter exactly)."""
        clause = _CLAUSES.get(type(formula))
        bits = None if clause is None else clause(self, formula)
        self._bits[key] = bits
        if bits is not None:
            self._misses += 1
        return bits

    def _memo_key(self, formula: Formula) -> object:
        """The formula plus the good-run masks this handle gives the
        principals whose beliefs the formula's walk evaluates — or the
        formula alone when the handle restricts none of them, so an
        unrestricted query shares its bitsets with every other.

        Only called on a handle that restricts some principal: on the
        top vector the formula is its own key.
        """
        masks = self._masks
        signature = tuple(
            masks.get(subject) for subject in self._belief_deps(formula)
        )
        if signature.count(None) == len(signature):
            return formula
        return (formula, signature)

    def _belief_deps(self, formula: Formula) -> tuple[Message, ...]:
        """The subjects of every ``Believes`` the formula's walk
        evaluates — through ``Controls`` bodies and ``ForAll``
        expansions, but not into messages (a belief quoted in a message
        is only ever matched, never evaluated).  Memoized, so the order
        of the subjects, which :meth:`_memo_key` relies on, is fixed."""
        children = _SUBFORMULAS.get(type(formula))
        if children is None:
            return ()
        deps = self._deps.get(formula)
        if deps is None:
            subjects: set[Message] = set()
            for child in children(self, formula):
                subjects.update(self._belief_deps(child))
            if isinstance(formula, Believes):
                subjects.add(formula.principal)
            deps = tuple(subjects)
            self._deps[formula] = deps
        return deps

    def _flush_counts(self) -> None:
        """Move the memo hits and misses of one recursive walk into the
        ``compiled_eval`` counters (one update per walk, not per node)."""
        if self._hits:
            perf.count("compiled_eval.hit", self._hits)
            self._hits = 0
        if self._misses:
            perf.count("compiled_eval.miss", self._misses)
            self._misses = 0

    def _uniform_principal(self, term: Message) -> bool:
        """True iff ``term`` is a principal with local state in every run
        (so no point of the system can raise on a state lookup)."""
        if not isinstance(term, Principal):
            return False
        cached = self._uniform.get(term)
        if cached is None:
            cached = all(
                term == run.environment or run.is_system_principal(term)
                for run in self.system.runs
            )
            self._uniform[term] = cached
        return cached

    # -- connectives ----------------------------------------------------------

    def _not(self, formula: Not) -> int | None:
        body = self._lookup(formula.body)
        return None if body is None else self.full_mask ^ body

    def _and(self, formula: And) -> int | None:
        left = self._lookup(formula.left)
        if left is None:
            return None
        right = self._lookup(formula.right)
        return None if right is None else left & right

    def _or(self, formula: Or) -> int | None:
        left = self._lookup(formula.left)
        if left is None:
            return None
        right = self._lookup(formula.right)
        return None if right is None else left | right

    def _implies(self, formula: Implies) -> int | None:
        left = self._lookup(formula.antecedent)
        if left is None:
            return None
        right = self._lookup(formula.consequent)
        return None if right is None else (self.full_mask ^ left) | right

    def _iff(self, formula: Iff) -> int | None:
        left = self._lookup(formula.left)
        if left is None:
            return None
        right = self._lookup(formula.right)
        return None if right is None else self.full_mask ^ (left ^ right)

    # -- leaf clauses ---------------------------------------------------------

    def _prim(self, formula: Prim) -> int:
        holds = self.system.interpretation.holds
        atom = formula.atom
        bits = 0
        for i, (run, k) in enumerate(self.points):
            if holds(atom, run, k):
                bits |= 1 << i
        return bits

    def _sees(self, formula: Sees) -> int | None:
        principal = formula.principal
        if not self._uniform_principal(principal):
            return None
        message = formula.message
        bits = 0
        for seen, mask in self._seen_classes(principal):
            if message in seen:
                bits |= mask
        return bits

    def _said(self, formula: Said | Says) -> int | None:
        principal = formula.principal
        if not self._uniform_principal(principal):
            return None
        said, says = self._said_masks(principal)
        table = says if isinstance(formula, Says) else said
        return table.get(formula.message, 0)

    def _controls(self, formula: Controls) -> int | None:
        """A run satisfies ``P controls φ`` iff no point of it has
        ``P says φ`` without φ.  ``Says`` bits are zero before the first
        send in the epoch, so testing every point of the run is testing
        every ``k' >= 0``, as the interpreter does."""
        principal = formula.principal
        if not self._uniform_principal(principal):
            return None
        body_bits = self._lookup(formula.body)
        if body_bits is None:
            return None
        says_bits = self._lookup(Says(principal, formula.body))
        unjustified = says_bits & ~body_bits
        bits = 0
        for mask in self._run_masks.values():
            if not unjustified & mask:
                bits |= mask
        return bits

    def _fresh(self, formula: Fresh) -> int:
        message = formula.message
        past = self._kernel._past_submsgs
        bits = 0
        for run in self.system.runs:
            if message not in past(run):
                bits |= self._run_masks[run.name]
        return bits

    def _has(self, formula: Has) -> int | None:
        principal = formula.principal
        if not self._uniform_principal(principal):
            return None
        key = formula.key
        bits = 0
        for keys, mask in self._key_classes(principal):
            if key in keys:
                bits |= mask
        return bits

    def _shared_key(self, formula: SharedKey) -> int | None:
        if not (isinstance(formula.left, Principal)
                and isinstance(formula.right, Principal)):
            return None
        return self._goodness(
            formula.left, formula.right, (Encrypted, formula.key)
        )

    def _public_key_of(self, formula: PublicKeyOf) -> int | None:
        if not (isinstance(formula.principal, Principal)
                and isinstance(formula.key, PublicKey)):
            return None
        return self._goodness(
            formula.principal, formula.principal,
            (Encrypted, formula.key.partner),
        )

    def _shared_secret(self, formula: SharedSecret) -> int | None:
        if not (isinstance(formula.left, Principal)
                and isinstance(formula.right, Principal)):
            return None
        return self._goodness(
            formula.left, formula.right, (Combined, formula.secret)
        )

    def _goodness(self, left: Message, right: Message, tag: tuple) -> int:
        """Shared shape of the F5/F6/pk clauses: a run-level quantifier
        over every *other* principal's sends — any matching component
        said by a third party must have been seen (relayed, not made)."""
        bits = 0
        for run in self.system.runs:
            makers = self._makers(run).get(tag, ())
            if all(maker == left or maker == right for maker in makers):
                bits |= self._run_masks[run.name]
        return bits

    # -- per-principal and per-run tables -------------------------------------

    def _said_masks(
        self, principal: Principal
    ) -> tuple[dict[Message, int], dict[Message, int]]:
        """``(said, says)``: for every component the principal ever said,
        the points at which ``P said X`` (resp. ``P says X``) holds — each
        send holds from its time to the end of its run, and ``says``
        counts only sends after time 0."""
        cached = self._said_tables.get(principal)
        if cached is None:
            said: dict[Message, int] = {}
            says: dict[Message, int] = {}
            said_entries = self._kernel._said_entries
            for run in self.system.runs:
                run_mask = self._run_masks[run.name]
                for sent_at, components in said_entries(principal, run):
                    first = self.point_index[(run.name, sent_at)]
                    later = run_mask >> first << first
                    for component in components:
                        said[component] = said.get(component, 0) | later
                        if sent_at > 0:
                            says[component] = says.get(component, 0) | later
            cached = (said, says)
            self._said_tables[principal] = cached
        return cached

    def _makers(self, run: Run) -> dict[tuple, set[Principal]]:
        """Who *made* a component in one run — said it without having
        seen it — keyed ``(Encrypted, key)`` for ciphertexts and
        ``(Combined, secret)`` for combinations."""
        cached = self._run_makers.get(run.name)
        if cached is None:
            said_entries = self._kernel._said_entries
            seen_set = self._kernel._seen_set
            cached = {}
            for principal in run.all_principals:
                for sent_at, components in said_entries(principal, run):
                    seen = None
                    for component in components:
                        if isinstance(component, Encrypted):
                            tag = (Encrypted, component.key)
                        elif isinstance(component, Combined):
                            tag = (Combined, component.secret)
                        else:
                            continue
                        if seen is None:
                            seen = seen_set(principal, run, sent_at)
                        if component not in seen:
                            cached.setdefault(tag, set()).add(principal)
            self._run_makers[run.name] = cached
        return cached

    # -- point classes --------------------------------------------------------

    def _state_classes(self, principal: Principal) -> PointClasses:
        """The principal's points grouped by local-state object: one
        ``(representative point, mask)`` pair per distinct state.

        A key set, a seen set and a hidden view are functions of the
        principal's local state alone (the environment's state, in a run
        where the principal is the environment), so one representative
        decides every member.  Grouping is by identity: an idle
        principal carries one state object from step to step, and equal
        states held as distinct objects cost a duplicate class, never a
        wrong bit.
        """
        cached = self._classes.get(("state", principal))
        if cached is None:
            classes: dict[int, list] = {}
            i = 0
            for run in self.system.runs:
                environment = principal == run.environment
                for k, state in zip(run.times, run.states):
                    local = state.env if environment else state.local(principal)
                    entry = classes.get(id(local))
                    if entry is None:
                        classes[id(local)] = [(run, k), 1 << i]
                    else:
                        entry[1] |= 1 << i
                    i += 1
            cached = tuple((point, mask) for point, mask in classes.values())
            self._classes[("state", principal)] = cached
        return cached

    def _classes_by(
        self,
        kind: str,
        principal: Principal,
        value_of: Callable[[Principal, Run, int], object],
    ) -> PointClasses:
        """Merge the principal's state classes by equal ``value_of``."""
        cached = self._classes.get((kind, principal))
        if cached is None:
            masks: dict[object, int] = {}
            for (run, k), mask in self._state_classes(principal):
                value = value_of(principal, run, k)
                masks[value] = masks.get(value, 0) | mask
            cached = tuple(masks.items())
            self._classes[(kind, principal)] = cached
        return cached

    def _key_classes(self, principal: Principal) -> PointClasses:
        """``(key set, mask)`` pairs of the principal."""
        return self._classes_by("keys", principal, _keyset)

    def _seen_classes(self, principal: Principal) -> PointClasses:
        """``(seen set, mask)`` pairs of the principal."""
        return self._classes_by("seen", principal, self._kernel._seen_set)

    # -- belief ---------------------------------------------------------------

    def _belief_groups(
        self, principal: Principal, good: int | None
    ) -> BeliefGroups:
        """``(members, possible)`` bitset pairs, one per hidden-view class
        of the principal, under the good-run mask ``good`` (``None``:
        every run is good).

        ``members`` are the points that share the view — and what the
        principal considers possible there before the good-run
        restriction, since the compiled path only answers for
        principals with state in every run.  ``possible`` are the
        members in good runs.  An empty possibility set is kept: the
        backend decides what belief means there.
        """
        key = (principal, good)
        cached = self._groups.get(key)
        if cached is None:
            views = self._classes_by(
                "views", principal, self._kernel._hidden_view
            )
            cached = tuple(
                (members, members if good is None else members & good)
                for _view, members in views
            )
            self._groups[key] = cached
        return cached

    def _believes(self, formula: Believes) -> int | None:
        principal = formula.principal
        if not self._uniform_principal(principal):
            return None
        body_bits = self._lookup(formula.body)
        if body_bits is None:
            return None
        groups = self._belief_groups(principal, self._masks.get(principal))
        return self.backend.belief_clause(groups, body_bits)

    # -- quantification -------------------------------------------------------

    def _expansions(self, formula: ForAll) -> Iterable[Formula]:
        """The quantifier's body at every vocabulary constant."""
        for constant in self.system.vocabulary.constants(
            formula.variable.value_sort
        ):
            yield substitute(formula.body, {formula.variable: constant})

    def _forall(self, formula: ForAll) -> int | None:
        # Every expansion is computed, even past an all-zero prefix: one
        # unsupported expansion makes the whole quantifier unsupported.
        bits = self.full_mask
        for expansion in self._expansions(formula):
            expansion_bits = self._lookup(expansion)
            if expansion_bits is None:
                return None
            bits &= expansion_bits
        return bits


#: One clause per formula class (read-only); a class not listed is left
#: to the interpreter.
_CLAUSES: Mapping[type, Callable[[CompiledSystem, Formula], int | None]] = (
    MappingProxyType({
        Truth: lambda compiled, _formula: compiled.full_mask,
        Prim: CompiledSystem._prim,
        Not: CompiledSystem._not,
        And: CompiledSystem._and,
        Or: CompiledSystem._or,
        Implies: CompiledSystem._implies,
        Iff: CompiledSystem._iff,
        Sees: CompiledSystem._sees,
        Said: CompiledSystem._said,
        Says: CompiledSystem._said,
        Controls: CompiledSystem._controls,
        Fresh: CompiledSystem._fresh,
        Has: CompiledSystem._has,
        SharedKey: CompiledSystem._shared_key,
        PublicKeyOf: CompiledSystem._public_key_of,
        SharedSecret: CompiledSystem._shared_secret,
        Believes: CompiledSystem._believes,
        ForAll: CompiledSystem._forall,
    })
)

#: The subformulas each clause evaluates, for the classes whose bitset
#: can read a belief (read-only); every other class is belief-free.
_SUBFORMULAS: Mapping[
    type, Callable[[CompiledSystem, Formula], Iterable[Formula]]
] = MappingProxyType({
    Not: lambda _compiled, formula: (formula.body,),
    And: lambda _compiled, formula: (formula.left, formula.right),
    Or: lambda _compiled, formula: (formula.left, formula.right),
    Implies: lambda _compiled, formula: (
        formula.antecedent, formula.consequent,
    ),
    Iff: lambda _compiled, formula: (formula.left, formula.right),
    Controls: lambda _compiled, formula: (formula.body,),
    Believes: lambda _compiled, formula: (formula.body,),
    ForAll: CompiledSystem._expansions,
})


def _keyset(principal: Principal, run: Run, k: int) -> frozenset:
    return run.keyset(principal, k)


def compiled_for(
    system: System,
    goodruns: GoodRunVector | None = None,
    pattern_hide: bool = False,
    backend: SemanticsBackend | None = None,
) -> CompiledSystem:
    """The session's compilation of a system, as a handle at ``goodruns``.

    One compilation per ``(system, pattern_hide, backend)`` is cached
    on the current context; ``backend`` defaults to the context's
    default backend, and every vector is served by :meth:`CompiledSystem.at`
    on the same compilation.

    The cache key holds the system's process-unique monotonic
    :attr:`~repro.model.system.System.serial` — **not** ``id()``.  The
    cache's wholesale-clear eviction drops its strong references, after
    which a garbage-collected system's ``id()`` can be recycled for a
    brand-new system; an id-based key would then silently alias the
    stale compilation.  Serials never recur within a process.  They
    *can* recur across processes (an unpickled system keeps its origin
    serial, and the receiving process mints its own), so a hit is
    additionally verified by identity; a collision recompiles and
    overwrites, counted under ``compiled_eval.serial_collision``.  The
    backend is keyed by name and verified by identity too, so a backend
    shadowed in the registry never reuses its predecessor's compilation.
    ``perf.clear_caches()`` / ``EngineContext.clear_session_caches()``
    empty the cache (the ``compiled_eval`` layer).
    """
    if backend is None:
        backend = get_backend()
    ctx = _context.current()
    key = (system.serial, pattern_hide, backend.name)
    compiled = ctx.compiled_systems.get(key)
    if compiled is not None:
        if compiled.system is system and compiled.backend is backend:
            perf.count("compiled_eval.system_hit")
            return compiled.at(goodruns)
        if compiled.system is not system:
            perf.count("compiled_eval.serial_collision")
    perf.count("compiled_eval.system_miss")
    compiled = CompiledSystem(
        system, pattern_hide=pattern_hide, backend=backend
    )
    ctx.compiled_systems[key] = compiled
    from repro.obs import journal

    journal.record(
        "compile", backend=backend.name, runs=len(system.runs),
        points=len(compiled.point_index), pattern_hide=pattern_hide,
    )
    return compiled.at(goodruns)
