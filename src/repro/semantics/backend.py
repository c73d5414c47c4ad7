"""Pluggable semantics backends: one seam, many truth definitions.

The paper's belief semantics (Section 6) is one point in a family.
Halpern–van der Meyden–Pucella ("An Epistemic Foundation for
Authentication Logics") recast BAN-style belief as knowledge-based
semantics over the same runs-and-systems models, and the Shoham–Moses
*defensible knowledge* connection is already implemented in
:mod:`repro.goodruns.defensible`.  Before this module every consumer —
interpreter, compiler, sweep, audit, good-runs construction, fuzz
oracles, serve daemon — was hard-wired to the single belief evaluator.

:class:`SemanticsBackend` is the seam.  A truth definition in this
family differs from the paper's in the ``P believes φ`` clause only, so
a backend contributes exactly that clause in two shapes:

* :meth:`SemanticsBackend.interpreter` — a per-point recursive
  evaluator with the :class:`~repro.semantics.evaluator.Evaluator`
  surface, optionally carrying an explanation tracer (the reference
  the fuzz oracles compare against);
* :meth:`SemanticsBackend.belief_clause` — the clause in the bitset
  engine: given the principal's hidden-view classes, each with its
  points in good runs, and the body's truth bitset, the points where
  the belief holds.

:meth:`SemanticsBackend.compile` returns the one bitset engine,
:class:`~repro.semantics.compiler.CompiledSystem`, built once per
``(system, pattern_hide, backend)`` with this backend's clause and
handed out at the requested good-run vector; every vector — the
Section 7 construction's stages included — queries that one
compilation.  ``supports_tracing`` says whether the interpreter can
attach a :class:`repro.obs.trace.Tracer` and emit why-false trees.

The registry is **context-owned** (``EngineContext.backends``, built
lazily like ``ctx.metrics``): no module-level mutable registry, per the
``tools/lint_globals.py`` discipline.  Duplicate registration is a
conflict (:class:`~repro.errors.EngineError`) unless ``replace=True``
is passed explicitly — which is also the sanctioned hook for tests that
plant a buggy backend to prove the ``cross_backend`` fuzz oracle
catches it.

The known theoretical relationship between the built-ins — every
formula true under the ``epistemic`` backend's defensible-knowledge
reading is true under the paper's ``belief`` reading, for
belief-positive formulas — is documented and enforced in
:mod:`repro.semantics.epistemic` and checked campaign-wide by the
``cross_backend`` oracle in :mod:`repro.fuzz.oracles`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import context as _context
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import System
    from repro.obs.trace import Tracer
    from repro.semantics.compiler import CompiledSystem
    from repro.semantics.evaluator import Evaluator
    from repro.semantics.goodvectors import GoodRunVector

#: The backend every knob defaults to: the paper's belief semantics.
DEFAULT_BACKEND = "belief"


class SemanticsBackend:
    """One truth definition, packaged for every consumer in the stack.

    Subclasses set ``name`` and ``supports_tracing`` as class
    attributes and implement :meth:`compile`, :meth:`interpreter` and
    :meth:`belief_clause`.  The interpreter and the belief clause must
    agree, which the ``compiled_vs_interpreted`` fuzz oracle checks per
    backend.
    """

    #: Registry key; also what CLIs/wire schemas accept.
    name: str = "abstract"
    #: Whether :meth:`interpreter` honours a ``tracer`` argument.
    supports_tracing: bool = False

    def compile(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
    ) -> "CompiledSystem":
        """The bitset engine under this backend, at ``goodruns``
        (one context-cached compilation serves every vector)."""
        raise NotImplementedError

    def interpreter(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
        tracer: "Tracer | None" = None,
    ) -> "Evaluator":
        """A fresh per-point recursive evaluator for this backend."""
        raise NotImplementedError

    def belief_clause(
        self, groups: tuple[tuple[int, int], ...], body: int
    ) -> int:
        """The points where ``P believes φ`` holds: the union of the
        ``members`` of P's hidden-view classes that believe φ.

        ``groups`` holds one ``(members, possible)`` bitset pair per
        class: ``members`` are the points sharing the view (what P
        considers possible there before the good-run restriction),
        ``possible`` those of them in P's good runs under the queried
        vector.  ``body`` are the points where φ holds.  A class decides
        as a whole because its points share their possible points.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class BeliefBackend(SemanticsBackend):
    """The paper's semantics: the default, and the reference engine.

    ``interpreter`` is the recursive
    :class:`~repro.semantics.evaluator.Evaluator`; ``compile`` is
    :func:`repro.semantics.compiler.compiled_for` with this backend.
    """

    name = "belief"
    supports_tracing = True

    def compile(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
    ) -> "CompiledSystem":
        from repro.semantics.compiler import compiled_for

        return compiled_for(system, goodruns, pattern_hide, backend=self)

    def interpreter(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
        tracer: "Tracer | None" = None,
    ) -> "Evaluator":
        from repro.semantics.evaluator import Evaluator

        return Evaluator(
            system, goodruns, pattern_hide=pattern_hide, tracer=tracer
        )

    @staticmethod
    def belief_clause(groups: tuple[tuple[int, int], ...], body: int) -> int:
        """The paper's clause: φ holds at every possible point,
        vacuously when there are none."""
        bits = 0
        for members, possible in groups:
            if possible & body == possible:
                bits |= members
        return bits


class BackendRegistry:
    """Name → backend table, owned by one :class:`EngineContext`.

    Obtain the current session's registry through
    ``context.current().backends`` (or the :func:`get_backend` /
    :func:`backend_names` helpers); never hold one at module level.
    """

    __slots__ = ("_backends",)

    def __init__(self) -> None:
        self._backends: dict[str, SemanticsBackend] = {}

    def register(
        self, backend: SemanticsBackend, replace: bool = False
    ) -> SemanticsBackend:
        """Add a backend under its ``name``.

        Duplicate names are a conflict (:class:`EngineError`) unless
        ``replace=True`` — the explicit opt-in for tests that shadow a
        built-in (e.g. planting a buggy ``epistemic`` in a fresh
        context to prove the cross-backend oracle catches it).
        """
        name = backend.name
        if not name or not isinstance(name, str):
            raise EngineError(
                f"semantics backend {backend!r} has no usable name"
            )
        if not replace and name in self._backends:
            raise EngineError(
                f"semantics backend {name!r} is already registered in this "
                "context (pass replace=True to shadow it deliberately)"
            )
        self._backends[name] = backend
        return backend

    def get(self, name: str) -> SemanticsBackend:
        """The backend registered under ``name``.

        Unknown names raise :class:`EngineError` listing the known
        backends — a :class:`~repro.errors.ReproError` subclass, so the
        serve layer maps it to a clean 400 rather than a 500.
        """
        backend = self._backends.get(name)
        if backend is None:
            known = ", ".join(sorted(self._backends)) or "none"
            raise EngineError(
                f"unknown semantics backend {name!r} (known backends: {known})"
            )
        return backend

    def names(self) -> tuple[str, ...]:
        """The registered backend names, sorted."""
        return tuple(sorted(self._backends))

    def __contains__(self, name: object) -> bool:
        return name in self._backends

    def __len__(self) -> int:
        return len(self._backends)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BackendRegistry {sorted(self._backends)}>"


def default_registry() -> BackendRegistry:
    """A fresh registry holding the built-in backends.

    Called (lazily, once per context) by ``EngineContext.backends``;
    the import of the epistemic backend is local so the context module
    stays at the bottom of the import stack.
    """
    from repro.semantics.epistemic import EpistemicBackend

    registry = BackendRegistry()
    registry.register(BeliefBackend())
    registry.register(EpistemicBackend())
    return registry


def get_backend(name: str = DEFAULT_BACKEND) -> SemanticsBackend:
    """Resolve a backend name against the current context's registry."""
    return _context.current().backends.get(name)


def backend_names() -> tuple[str, ...]:
    """The current context's registered backend names."""
    return _context.current().backends.names()
