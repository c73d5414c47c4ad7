#!/usr/bin/env python3
"""AST lint: no new module-level mutable containers in ``src/repro``.

PR 5 moved every piece of per-session engine state — intern table,
semantic-kernel memos, perf counters, span buffer, evaluator registry —
onto :class:`repro.context.EngineContext`; all telemetry — counters,
span aggregates and ring, journal, labeled metrics — now lives in the
context's one ``TelemetryStore`` (``repro.obs.store``), with no
module-level instances.  This lint keeps
it that way: a module-level assignment whose value is a mutable
container
(``{}``, ``[]``, ``set()``, ``dict()``, ``defaultdict(...)``,
``weakref.WeakValueDictionary()``, ...) is rejected unless it is on the
explicit allowlist below.

Allowlisted globals fall into two honest categories:

* **import-time registries** — populated once while modules import and
  read-only afterwards (axiom/mutator registries, the perf cache
  registry, the CLI's protocol table);
* **context machinery itself** — the bookkeeping ``repro.context``
  needs to hand out per-session state.

Anything else — in particular a cache or memo keyed on workload data —
belongs on the ``EngineContext``.

Run directly (``python tools/lint_globals.py``) or via the pytest
wrapper (``tests/test_lint_globals.py``); both fail on any violation,
and also on allowlist entries that no longer exist (so the list cannot
rot).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: ``"module_path:name"`` pairs permitted to be module-level mutable
#: containers.  Keep this list *short* and justified.
ALLOWLIST: frozenset[str] = frozenset(
    {
        # -- context machinery (the owner of all session state) ------------
        "repro/context.py:_NAME_COUNTER",
        # -- import-time registries, read-only after import -----------------
        "repro/perf.py:_cache_clearers",
        "repro/perf.py:_cache_sizers",
        "repro/terms/intern.py:_FIELD_NAMES",  # per-class metadata
        "repro/terms/parser.py:_SORT_NAMES",  # keyword table
        "repro/logic/axioms.py:AXIOMS",
        "repro/logic/certify.py:_PROJECTION_RULES",  # rule-name constants
        "repro/logic/certify.py:_MIXED_PREFIX_RULES",
        "repro/fuzz/mutators.py:MUTATORS",
        "repro/fuzz/proof_mutators.py:PROOF_MUTATORS",
        "repro/__main__.py:_PROTOCOLS",
        "repro/serve/http.py:_REASONS",  # status -> reason phrase constants
        "repro/serve/requests.py:_SYSTEM_KNOBS",  # wire-schema bounds
    }
)

#: Call targets that build mutable containers.
MUTABLE_CALLS = {
    "dict",
    "list",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "ChainMap",
    "WeakValueDictionary",
    "WeakKeyDictionary",
    "WeakSet",
}

#: Literal node types that denote mutable containers.
MUTABLE_LITERALS = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
)


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in MUTABLE_CALLS:
            return True
        # ``set(...)``-style conversions of comprehensions count too;
        # anything else (class constructors, factory functions) does
        # not — objects with internal state are the business of their
        # own module's design review, not this lint.
        return False
    return False


def _module_level_targets(module: ast.Module):
    """Yield ``(name, value, lineno)`` for every top-level assignment.

    Dunder names (``__all__`` and friends) are module metadata, not
    engine state, and are skipped.
    """
    for stmt in module.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, stmt.value, stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name) and not stmt.target.id.startswith("__"):
                yield stmt.target.id, stmt.value, stmt.lineno


def check(src_root: Path | None = None) -> tuple[list[str], set[str]]:
    """Scan ``src/repro`` and return (violations, used allowlist keys)."""
    if src_root is None:
        src_root = Path(__file__).resolve().parent.parent / "src"
    root = src_root
    used: set[str] = set()
    violations: list[str] = []
    for path in sorted((root / "repro").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, value, lineno in _module_level_targets(tree):
            if not _is_mutable_value(value):
                continue
            key = f"{rel}:{name}"
            if key in ALLOWLIST:
                used.add(key)
                continue
            violations.append(
                f"{rel}:{lineno}: module-level mutable container {name!r} — "
                "per-session state belongs on repro.context.EngineContext "
                "(or add to tools/lint_globals.py ALLOWLIST with a reason)"
            )
    return violations, used


def main() -> int:
    violations, used = check()
    stale = sorted(ALLOWLIST - used)
    for message in violations:
        print(message, file=sys.stderr)
    for key in stale:
        print(
            f"stale allowlist entry {key!r}: no such module-level mutable "
            "container (remove it from tools/lint_globals.py)",
            file=sys.stderr,
        )
    if violations or stale:
        return 1
    print(
        f"lint_globals: clean ({len(used)} allowlisted registries, "
        "no stray module-level mutable state)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
