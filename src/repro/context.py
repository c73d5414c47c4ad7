"""Engine contexts: explicit ownership of every piece of session state.

Historically each stateful layer of the library was a process-global
singleton — the term intern table (:mod:`repro.terms.intern`), the
``hide`` and ``seen_submsgs`` memo dicts (:mod:`repro.semantics.hide`,
:mod:`repro.model.submsgs`), the perf counter table
(:mod:`repro.perf`), the span buffer (:mod:`repro.obs.spans`), and the
registry of live evaluator memos (:mod:`repro.semantics.evaluator`).
Two concurrent workloads in one process therefore bled counters, spans,
and cache contents into each other, and the fuzzer's cold-cache oracle
had to snapshot/restore the intern table by hand.

An :class:`EngineContext` *owns* all of that state instead.  Exactly
one context is *current* at any moment (a :mod:`contextvars` variable,
so the notion is async- and thread-correct); every layer resolves its
table through :func:`current` at use time.  A process-default context
(:data:`DEFAULT`) preserves the old behaviour for every existing call
site: code that never mentions contexts still shares one set of tables
per process, exactly as before.

The theory-level analogue is Halpern–van der Meyden–Pucella's point
about the Abadi–Tuttle semantics: the interpretation must be
relativized to an explicit context rather than left ambient.  Here the
"interpretation" is the engine's mutable state, and the payoffs are
operational:

* **Isolation** — two sweeps or fuzz campaigns under separate contexts
  share no counters, spans, or cache entries (``--isolated`` on the
  CLI; per-shard contexts in the parallel sweep).
* **Memory bounds** — an ephemeral context is dropped wholesale when
  its workload ends, and the context-owned memos carry an entry cap
  with wholesale-clear eviction (``<layer>.evict`` counters), so a
  long-lived serving process cannot accumulate unbounded state.
* **Honest, bounded telemetry** — each context owns one bounded
  :class:`~repro.obs.store.TelemetryStore`; a worker shard runs in a
  fresh context and ships its whole store home as one ``delta()``,
  which the parent ``absorb()``s.  No mark/delta bookkeeping against a
  shared table, and no absorber grows with the work it has absorbed.

Cross-context terms stay correct by construction: canonical instances
are per-context, but term ``__eq__``/``__hash__`` fall back to
structural comparison for non-canonical instances
(:mod:`repro.terms.base`), and pickling rebuilds terms through their
constructors, re-interning them into the *receiving* context's table.
The structural-op memos of :mod:`repro.terms.ops` (``_submsgs``,
``_free_params``, ``_size``, ``_depth``) live on the interned nodes
themselves and are context-independent structural facts; they are owned
transitively — they die with the context whose intern table kept their
node alive.

The module sits at the very bottom of the import stack (it imports only
the stdlib and the import-free :mod:`repro.obs.store`) so every layer
can depend on it.
"""

from __future__ import annotations

import contextvars
import threading
import weakref
from typing import Any

from repro.obs.store import TelemetryStore

#: Default entry cap for each context-owned memo dict.  On overflow the
#: memo is cleared wholesale (O(1) amortized, no LRU bookkeeping on the
#: hot path) and an ``<layer>.evict`` counter is incremented.
DEFAULT_MEMO_CAP = 1 << 17

_NAME_LOCK = threading.Lock()
_NAME_COUNTER = [0]


def _next_name(prefix: str) -> str:
    with _NAME_LOCK:
        _NAME_COUNTER[0] += 1
        return f"{prefix}-{_NAME_COUNTER[0]}"


class BoundedMemo(dict):
    """A memo dict with an entry cap and wholesale-clear eviction.

    The pre-context memos (``_HIDE_MEMO``, ``_SEEN_MEMO``) held strong
    references to terms forever, defeating the weak intern table in
    long-lived processes.  A bounded memo clears itself completely when
    it would exceed ``cap`` — crude, but O(1), allocation-free on the
    hot path, and exactly the right trade for memos whose entries are
    cheap to recompute.  Evictions are counted in the current context's
    counters under ``<layer>.evict``.
    """

    __slots__ = ("layer", "cap")

    def __init__(self, layer: str, cap: int = DEFAULT_MEMO_CAP) -> None:
        super().__init__()
        self.layer = layer
        self.cap = cap

    def __setitem__(self, key: Any, value: Any) -> None:
        if len(self) >= self.cap and key not in self:
            ctx = current()
            counters = ctx.counters
            event = self.layer + ".evict"
            counters[event] = counters.get(event, 0) + 1
            ctx.journal.record(
                "cache_evict", corr=ctx.corr_id,
                layer=self.layer, entries=len(self), cap=self.cap,
            )
            self.clear()
        super().__setitem__(key, value)

    def __reduce__(self):  # pragma: no cover - memos are never shipped
        raise TypeError("BoundedMemo is context-owned state; do not pickle it")


class EngineContext:
    """One session's worth of engine state.

    Owns, per instance:

    * ``intern_table`` — the weak canonical-term table
      (:mod:`repro.terms.intern` resolves it via :func:`current`);
    * ``hide_memo`` / ``seen_memo`` — the semantic-kernel memos, entry
      capped (:class:`BoundedMemo`);
    * ``telemetry`` — the context's one bounded
      :class:`~repro.obs.store.TelemetryStore`.  Its parts are exposed
      directly for the hot paths: ``counters`` (the flat perf counter
      table ``repro.perf`` reads and writes), ``cache_peaks``,
      ``spans`` (span aggregates plus the raw-span ring), ``journal``
      (the flight-recorder ring) and ``metrics`` (labeled
      instruments);
    * ``corr_id`` — the session's correlation ID (stamped onto journal
      events and span attributes; the per-request ID a serving layer
      threads through shards and ephemeral contexts);
    * ``evaluators`` — the weak registry of live
      :class:`~repro.semantics.evaluator.Evaluator` instances, so
      ``perf.clear_caches()``/``cache_sizes()`` can reach their
      per-instance truth memos.

    Contexts are cheap: creating one allocates a handful of empty
    containers, which is what makes per-shard and per-iteration
    ephemeral contexts viable.
    """

    __slots__ = (
        "name",
        "memo_cap",
        "corr_id",
        "intern_table",
        "hide_memo",
        "seen_memo",
        "telemetry",
        "counters",
        "cache_peaks",
        "spans",
        "journal",
        "metrics",
        "evaluators",
        "compiled_systems",
        "_backends",
        "__weakref__",
    )

    def __init__(self, name: str | None = None,
                 memo_cap: int = DEFAULT_MEMO_CAP,
                 corr_id: str | None = None) -> None:
        self.name = name if name is not None else _next_name("ctx")
        self.memo_cap = memo_cap
        self.corr_id = corr_id
        self.intern_table: "weakref.WeakValueDictionary[tuple, Any]" = (
            weakref.WeakValueDictionary()
        )
        self.hide_memo = BoundedMemo("hide", memo_cap)
        self.seen_memo = BoundedMemo("seen_submsgs", memo_cap)
        store = self.telemetry = TelemetryStore()
        self.counters = store.counters
        self.cache_peaks = store.cache_peaks
        self.spans = store.spans
        self.journal = store.journal
        self.metrics = store.metrics
        self.evaluators: "weakref.WeakSet" = weakref.WeakSet()
        # Compiled-system cache (repro.semantics.compiler): holds systems
        # strongly, so the cap is deliberately small — a session works a
        # handful of systems at a time, not thousands.
        self.compiled_systems = BoundedMemo("compiled_systems", min(memo_cap, 256))
        self._backends = None

    @property
    def backends(self):
        """The context's semantics-backend registry (built on first use).

        Context-owned for the same reason as every other registry: two
        workloads in one process must be able to register experimental
        backends without seeing each other's, and a module-level
        registry would be exactly the mutable global state the
        ``lint_globals`` check bans.  The built-in backends (``belief``,
        ``epistemic``) are registered when the registry is first built.
        """
        registry = self._backends
        if registry is None:
            from repro.semantics.backend import default_registry

            registry = default_registry()
            self._backends = registry
        return registry

    # -- telemetry transport ---------------------------------------------------

    def absorb_context(self, other: "EngineContext") -> None:
        """Absorb everything observable about ``other`` (its whole store).

        Cache contents are deliberately *not* merged: they are private
        to their context.  Only the telemetry flows upward.
        """
        self.telemetry.absorb(other.telemetry.delta())

    # -- bookkeeping -----------------------------------------------------------

    def clear_session_caches(self) -> None:
        """Empty this context's caches (intern table, memos, evaluator
        memos) without touching counters or spans."""
        self.intern_table.clear()
        self.hide_memo.clear()
        self.seen_memo.clear()
        self.compiled_systems.clear()
        for evaluator in list(self.evaluators):
            evaluator.clear_memos()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EngineContext {self.name!r}: intern={len(self.intern_table)} "
            f"hide={len(self.hide_memo)} seen={len(self.seen_memo)} "
            f"counters={len(self.counters)}>"
        )


#: The process-default context: what every call site uses unless a
#: narrower context has been entered with :func:`use`.  Mirrors the
#: pre-context behaviour of one shared table-set per process.
DEFAULT = EngineContext(name="default")

_CURRENT: contextvars.ContextVar[EngineContext] = contextvars.ContextVar(
    "repro_engine_context", default=DEFAULT
)


def current() -> EngineContext:
    """The context all stateful layers resolve against, right now."""
    return _CURRENT.get()


def fresh(name: str | None = None,
          memo_cap: int = DEFAULT_MEMO_CAP,
          corr_id: str | None = None) -> EngineContext:
    """A new, empty context (does not enter it; pair with :func:`use`).

    The new context *inherits the creator's correlation ID* unless an
    explicit ``corr_id`` is given: ephemeral shard/iteration contexts
    stay attributable to the request that spawned them, which is how
    one correlation ID survives the delta-shipping transport.

    Inheritance is right for *shards of one request* and wrong for
    *sibling requests*: two requests fanned out from one parent would
    share the parent's ID and their telemetry would be unattributable.
    Anything serving concurrent requests (``repro.serve`` stamps
    ``journal.new_corr_id()`` per accepted request) must pass an
    explicit per-request ``corr_id`` here or via :func:`scoped`.
    """
    if corr_id is None:
        corr_id = current().corr_id
    return EngineContext(name=name, memo_cap=memo_cap, corr_id=corr_id)


class use:
    """Context manager making ``ctx`` the current engine context.

    Re-entrant and nestable; restores the previous context on exit,
    even across exceptions.  Usable from any thread or task — the
    current context is a :class:`contextvars.ContextVar`, so each
    thread/task tracks its own stack.

    ::

        shard = context.fresh("shard-3")
        with context.use(shard):
            ...                      # every cache/counter/span is shard's
        parent.absorb_context(shard)  # ship the telemetry home
    """

    __slots__ = ("ctx", "_token")

    def __init__(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self._token: contextvars.Token | None = None

    def __enter__(self) -> EngineContext:
        self._token = _CURRENT.set(self.ctx)
        return self.ctx

    def __exit__(self, *exc: object) -> None:
        assert self._token is not None
        _CURRENT.reset(self._token)
        self._token = None


def scoped(name: str | None = None, memo_cap: int = DEFAULT_MEMO_CAP,
           corr_id: str | None = None) -> use:
    """``use(fresh(...))`` in one call: enter a brand-new context.

    Pass ``corr_id`` when the scope is one *request among siblings*
    (concurrent tasks fanned out from one parent): without it the new
    context inherits the parent's correlation ID, which is the shard
    contract, not the request contract.
    """
    return use(fresh(name, memo_cap, corr_id=corr_id))
