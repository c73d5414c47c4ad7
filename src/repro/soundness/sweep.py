"""The empirical Theorem 1: sweep every axiom over generated systems.

For each axiom schema, instantiate it over a pool drawn from a system's
actual traffic (plus synthesized structure) and evaluate every instance
at every point of the system.  Theorem 1 predicts zero violations; the
sweep reports per-schema counts, and classifies any A11 violation by
whether the ciphertext body was *transparent* to the principal — the
nesting subtlety discussed in EXPERIMENTS.md.

Principal positions are instantiated with *system* principals only: the
model restricts the environment's behaviour less than system
principals' (WF4/WF5), and formulas in protocol analyses talk about
system principals.
"""

from __future__ import annotations

import itertools
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro import context, perf
from repro.logic.axioms import AXIOMS, InstancePool, Schema
from repro.obs import journal, metrics, spans
from repro.logic.rules import transparent
from repro.model.actions import Send
from repro.model.system import System
from repro.semantics.backend import DEFAULT_BACKEND, get_backend
from repro.semantics.compiler import CompiledSystem
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.terms.atoms import Key, Nonce, Principal, PrimitiveProposition, Sort
from repro.terms.base import Message
from repro.terms.formulas import (
    Believes,
    Formula,
    Fresh,
    Has,
    Implies,
    And,
    Prim,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
)
from repro.terms.messages import Encrypted, combined, encrypted, forwarded, group
from repro.terms.ops import is_ground, walk


def pool_from_system(
    system: System,
    synthesize: bool = True,
    max_messages: int = 60,
    max_formulas: int = 12,
) -> InstancePool:
    """Build an instantiation pool from a system's traffic.

    Messages are the sub-closure of everything actually sent, topped up
    (when ``synthesize`` is set) with fresh ciphertexts, combinations,
    forwardings, and groups over the vocabulary, so that schemas over
    shapes nobody happened to send still get instances.
    """
    principals = tuple(system.principals())
    keys = tuple(system.vocabulary.constants(Sort.KEY))
    nonces = tuple(system.vocabulary.constants(Sort.NONCE))

    seen: dict[Message, None] = {}
    for run in system.runs:
        for _who, action in run.state(run.end_time).env.history:
            if isinstance(action, Send):
                for node in walk(action.message):
                    seen.setdefault(node, None)
    messages = list(seen)

    if synthesize and principals and keys:
        base: tuple[Message, ...] = tuple(nonces[:2]) or (keys[0],)
        p, q = principals[0], principals[-1]
        k = keys[0]
        for x in base:
            inner = encrypted(x, k, p)
            messages.extend(
                [
                    inner,
                    encrypted(inner, keys[-1], q),
                    combined(x, base[-1], p),
                    forwarded(x),
                    forwarded(inner),
                    group(x, inner),
                    group(x, base[-1], inner),
                ]
            )
    messages = list(dict.fromkeys(messages))[:max_messages]

    formulas: list[Formula] = []
    props = tuple(system.vocabulary.constants(Sort.PROPOSITION))
    for prop in props[:1]:
        assert isinstance(prop, PrimitiveProposition)
        formulas.append(Prim(prop))
    if principals and keys:
        formulas.append(SharedKey(principals[0], keys[0], principals[-1]))
        formulas.append(Has(principals[0], keys[0]))
    if nonces:
        formulas.append(Fresh(nonces[0]))
        if principals:
            formulas.append(Said(principals[0], nonces[0]))
            formulas.append(Says(principals[-1], nonces[0]))
            formulas.append(Sees(principals[0], nonces[0]))
    if principals and len(formulas) >= 2:
        formulas.append(Believes(principals[0], formulas[0]))
        formulas.append(Implies(formulas[0], formulas[1]))
    if principals and keys:
        from repro.terms.atoms import Parameter
        from repro.terms.formulas import ForAll

        x = Parameter("x", Sort.KEY)
        formulas.append(ForAll(x, Has(principals[0], x)))
    formulas = list(dict.fromkeys(formulas))[:max_formulas]

    return InstancePool(
        principals=principals,
        keys=keys,
        messages=tuple(messages),
        formulas=tuple(formulas),
        secrets=tuple(nonces[:2]),
    )


@dataclass(frozen=True)
class ViolationRecord:
    schema: str
    instance: Formula
    run_name: str
    time: int
    transparent_body: bool | None = None

    def __str__(self) -> str:
        extra = ""
        if self.transparent_body is not None:
            extra = (
                " [transparent body]"
                if self.transparent_body
                else " [opaque body — the A11 nesting subtlety]"
            )
        return f"{self.schema} at ({self.run_name}, {self.time}): {self.instance}{extra}"


@dataclass
class SchemaReport:
    schema: str
    instances: int = 0
    points_checked: int = 0
    violations: list[ViolationRecord] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return not self.violations

    @property
    def essential_violations(self) -> list[ViolationRecord]:
        """Violations not explained by the documented A11 nesting caveat."""
        return [
            v for v in self.violations if v.transparent_body is not False
        ]


@dataclass
class SweepReport:
    """Aggregated outcome of one soundness sweep."""

    per_schema: dict[str, SchemaReport] = field(default_factory=dict)

    def schema_report(self, name: str) -> SchemaReport:
        return self.per_schema.setdefault(name, SchemaReport(name))

    @property
    def total_instances(self) -> int:
        return sum(r.instances for r in self.per_schema.values())

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.per_schema.values())

    @property
    def essential_violations(self) -> list[ViolationRecord]:
        out: list[ViolationRecord] = []
        for report in self.per_schema.values():
            out.extend(report.essential_violations)
        return out

    def merge(self, other: "SweepReport") -> None:
        for name, report in other.per_schema.items():
            mine = self.schema_report(name)
            mine.instances += report.instances
            mine.points_checked += report.points_checked
            mine.violations.extend(report.violations)

    def render(self) -> str:
        header = f"{'schema':<6} {'instances':>9} {'points':>10} {'violations':>11}"
        lines = [header, "-" * len(header)]
        for name in sorted(self.per_schema):
            report = self.per_schema[name]
            lines.append(
                f"{name:<6} {report.instances:>9} {report.points_checked:>10} "
                f"{len(report.violations):>11}"
            )
        lines.append(
            f"TOTAL: {self.total_instances} instances, "
            f"{self.total_violations} violations "
            f"({len(self.essential_violations)} outside the A11 caveat)"
        )
        return "\n".join(lines)


#: One shared default for how many instances of each schema to check.
#: (``sweep_system`` and ``sweep_systems`` historically disagreed,
#: 400 vs 200; everything now goes through this constant.)
DEFAULT_MAX_INSTANCES_PER_SCHEMA = 400

#: Default cap on recorded (not counted) violations per schema.
DEFAULT_MAX_VIOLATIONS_PER_SCHEMA = 25

#: Which evaluation engine the sweep drives.  ``"compiled"`` routes
#: ground instances through :func:`repro.semantics.compiler.compiled_for`
#: (whole-system bitsets, one subset test per instance); any instance
#: the compiler declines falls back to the interpreter per point, so
#: verdicts, point counts, and violation records are identical to
#: ``"interpreted"`` — the ``compiled_vs_interpreted`` fuzz oracle holds
#: the two byte-identical.
DEFAULT_ENGINE = "compiled"

_ENGINES = ("compiled", "interpreted")


def _resolve_engine(
    system: System,
    goodruns: GoodRunVector | None,
    pattern_hide: bool,
    engine: str,
    backend: str = DEFAULT_BACKEND,
):
    """The sweep's evaluation engine: one registry lookup per sweep.

    ``backend`` names a :class:`~repro.semantics.backend.SemanticsBackend`
    in the current context's registry (unknown names raise
    :class:`~repro.errors.EngineError`); ``engine`` picks its compiled
    or interpreted shape.  Resolution happens once here — never on the
    per-instance hot loop.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown sweep engine {engine!r} (use one of {_ENGINES})")
    resolved = get_backend(backend)
    if engine == "compiled":
        return resolved.compile(system, goodruns, pattern_hide=pattern_hide)
    return resolved.interpreter(system, goodruns, pattern_hide=pattern_hide)


def sweep_system(
    system: System,
    schemas: tuple[Schema, ...] | None = None,
    goodruns: GoodRunVector | None = None,
    max_instances_per_schema: int = DEFAULT_MAX_INSTANCES_PER_SCHEMA,
    pattern_hide: bool = False,
    max_violations_per_schema: int = DEFAULT_MAX_VIOLATIONS_PER_SCHEMA,
    workers: int = 1,
    engine: str = DEFAULT_ENGINE,
    backend: str = DEFAULT_BACKEND,
) -> SweepReport:
    """Model-check every schema instance at every point of one system.

    With ``workers > 1`` the schemas are sharded across a process pool
    (each worker evaluates a contiguous slice of the schema list over
    the whole system); the merged report is identical to the in-process
    one.  Falls back to the in-process path when the system cannot be
    shipped to workers (e.g. a closure-based interpretation).
    """
    resolved = tuple(schemas) if schemas is not None else tuple(AXIOMS.values())
    if workers > 1:
        report = _sweep_parallel(
            (system,), resolved, goodruns, max_instances_per_schema,
            pattern_hide, max_violations_per_schema, workers, engine,
            backend,
        )
        if report is not None:
            return report
    return _sweep_in_process(
        system, resolved, goodruns, max_instances_per_schema,
        pattern_hide, max_violations_per_schema, engine, backend,
    )


def _sweep_in_process(
    system: System,
    schemas: tuple[Schema, ...],
    goodruns: GoodRunVector | None,
    max_instances_per_schema: int,
    pattern_hide: bool,
    max_violations_per_schema: int,
    engine: str = DEFAULT_ENGINE,
    backend: str = DEFAULT_BACKEND,
) -> SweepReport:
    evaluator = _resolve_engine(system, goodruns, pattern_hide, engine, backend)
    compiled = evaluator if isinstance(evaluator, CompiledSystem) else None
    pool = pool_from_system(system)
    report = SweepReport()
    points = tuple(system.points())
    # Labeled instruments (context-owned, so shard registries merge
    # home losslessly); incremented once per schema, off the hot loop.
    registry = metrics.registry()
    instances_metric = registry.counter(
        "sweep_instances", "Schema instances checked by the sweep.",
        labels=("schema", "engine"),
    )
    violations_metric = registry.counter(
        "sweep_violations", "Axiom violations found by the sweep.",
        labels=("schema", "engine"),
    )
    for schema in schemas:
        schema_report = report.schema_report(schema.name)
        instances = itertools.islice(
            schema.instances(pool), max_instances_per_schema
        )
        with spans.span("sweep.schema", schema=schema.name,
                        engine=engine) as attrs:
            for instance in instances:
                schema_report.instances += 1
                bits = None
                if compiled is not None and is_ground(instance):
                    bits = compiled.truth_bits(instance)
                if bits is not None:
                    # Whole-system verdict in one subset test; violation
                    # records (capped, in point order) match the
                    # point-by-point loop exactly.
                    schema_report.points_checked += len(points)
                    if bits != compiled.full_mask:
                        room = (
                            max_violations_per_schema
                            - len(schema_report.violations)
                        )
                        if room > 0:
                            for i, (run, k) in enumerate(points):
                                if (bits >> i) & 1:
                                    continue
                                schema_report.violations.append(
                                    _record(schema.name, instance, run.name,
                                            k, evaluator, run, k)
                                )
                                room -= 1
                                if room == 0:
                                    break
                    continue
                for run, k in points:
                    schema_report.points_checked += 1
                    if evaluator.evaluate(instance, run, k):
                        continue
                    if len(schema_report.violations) < max_violations_per_schema:
                        schema_report.violations.append(
                            _record(schema.name, instance, run.name, k,
                                    evaluator, run, k)
                        )
            attrs["instances"] = schema_report.instances
            attrs["points"] = schema_report.points_checked
        instances_metric.labels(schema=schema.name, engine=engine).inc(
            schema_report.instances
        )
        if schema_report.violations:
            violations_metric.labels(schema=schema.name, engine=engine).inc(
                len(schema_report.violations)
            )
    perf.observe_cache_peaks()
    return report


def _record(
    name: str,
    instance: Formula,
    run_name: str,
    time: int,
    evaluator: Evaluator,
    run,
    k,
) -> ViolationRecord:
    transparent_body: bool | None = None
    if name == "A11":
        # instance is (Sees(P, c) & Has(P, K)) -> Believes(P, Sees(P, c))
        assert isinstance(instance, Implies)
        antecedent = instance.antecedent
        assert isinstance(antecedent, And)
        sees = antecedent.left
        assert isinstance(sees, Sees)
        cipher = sees.message
        assert isinstance(cipher, Encrypted)
        principal = sees.principal
        assert isinstance(principal, Principal)
        keys = run.keyset(principal, k)
        transparent_body = transparent(cipher, frozenset(keys))
    return ViolationRecord(name, instance, run_name, time, transparent_body)


def sweep_systems(
    systems: Iterable[System],
    schemas: tuple[Schema, ...] | None = None,
    goodruns: GoodRunVector | None = None,
    max_instances_per_schema: int = DEFAULT_MAX_INSTANCES_PER_SCHEMA,
    pattern_hide: bool = False,
    max_violations_per_schema: int = DEFAULT_MAX_VIOLATIONS_PER_SCHEMA,
    workers: int = 1,
    engine: str = DEFAULT_ENGINE,
    backend: str = DEFAULT_BACKEND,
) -> SweepReport:
    """Merge sweeps over several systems (the E3 experiment driver).

    All knobs — including ``goodruns`` and ``max_violations_per_schema``
    — are forwarded to every per-system sweep.  With ``workers > 1``
    the (system × schema-slice) shards run on a process pool; reports
    are merged in deterministic shard order, so the result (and its
    render) is identical to ``workers=1``.
    """
    systems = tuple(systems)
    resolved = tuple(schemas) if schemas is not None else tuple(AXIOMS.values())
    if workers > 1:
        report = _sweep_parallel(
            systems, resolved, goodruns, max_instances_per_schema,
            pattern_hide, max_violations_per_schema, workers, engine,
            backend,
        )
        if report is not None:
            return report
    total = SweepReport()
    for system in systems:
        total.merge(
            _sweep_in_process(
                system, resolved, goodruns, max_instances_per_schema,
                pattern_hide, max_violations_per_schema, engine, backend,
            )
        )
    return total


# ---------------------------------------------------------------------------
# Parallel sharding
# ---------------------------------------------------------------------------


def _schema_names(schemas: Sequence[Schema]) -> tuple[str, ...] | None:
    """Map schemas to registry names, or None if any is unregistered.

    Workers re-resolve schemas from :data:`repro.logic.axioms.AXIOMS` by
    name, because a ``Schema`` carries arbitrary callables that may not
    survive pickling; a custom schema object outside the registry simply
    keeps the sweep on the in-process path.
    """
    names = []
    for schema in schemas:
        if AXIOMS.get(schema.name) is not schema:
            return None
        names.append(schema.name)
    return tuple(names)


def _slice_names(
    names: tuple[str, ...], slices: int
) -> tuple[tuple[str, ...], ...]:
    """Split the schema list into at most ``slices`` contiguous groups."""
    slices = max(1, min(slices, len(names)))
    quotient, remainder = divmod(len(names), slices)
    out = []
    start = 0
    for index in range(slices):
        width = quotient + (1 if index < remainder else 0)
        out.append(names[start:start + width])
        start += width
    return tuple(out)


def _sweep_shard(
    system: System,
    schema_names: tuple[str, ...],
    goodruns: GoodRunVector | None,
    max_instances_per_schema: int,
    pattern_hide: bool,
    max_violations_per_schema: int,
    engine: str = DEFAULT_ENGINE,
    backend: str = DEFAULT_BACKEND,
    corr_id: str | None = None,
) -> tuple[SweepReport, dict[str, Any]]:
    """Worker entry point: one system, one contiguous slice of schemas.

    The shard runs under an **ephemeral engine context**: its caches and
    telemetry store are born empty and die with the shard, so
    executor-process reuse cannot bleed one shard's state into the
    next, and the shard's whole store *is* the delta to ship home.  The
    parent's correlation ID rides along, so every journal event and
    span the shard records stays attributable to the request that
    spawned the pool.

    Returns the shard report and the store's ``delta()`` — counters,
    cache high-water marks, span aggregates and samples, journal events
    and labeled instruments — which the parent absorbs
    (``BENCH_sweep.json`` would otherwise under-report hits/misses,
    lose per-schema timings, and show ``eval_memo: 0`` for parallel
    runs whose evaluators die with their shard).
    """
    shard_ctx = context.fresh(f"sweep-shard:{schema_names[0]}",
                              corr_id=corr_id)
    with context.use(shard_ctx):
        schemas = tuple(AXIOMS[name] for name in schema_names)
        report = _sweep_in_process(
            system, schemas, goodruns, max_instances_per_schema,
            pattern_hide, max_violations_per_schema, engine, backend,
        )
    return report, shard_ctx.telemetry.delta()


def _sweep_parallel(
    systems: tuple[System, ...],
    schemas: tuple[Schema, ...],
    goodruns: GoodRunVector | None,
    max_instances_per_schema: int,
    pattern_hide: bool,
    max_violations_per_schema: int,
    workers: int,
    engine: str = DEFAULT_ENGINE,
    backend: str = DEFAULT_BACKEND,
) -> SweepReport | None:
    """Shard (system × schema slice) over a process pool.

    Returns None when the workload cannot be parallelized safely — the
    schemas are unregistered, the systems do not pickle, or the platform
    refuses to *spawn* workers — in which case the caller falls back to
    the in-process sweep.  A worker that crashes **mid-shard** (its
    exception arrives through ``future.result()``, after the pool
    spawned fine) is a different animal: the original exception is
    re-raised to the caller, and no shard telemetry is merged.  The two
    used to share one ``except`` clause, so an ``OSError`` raised by a
    poisoned shard triggered the in-process fallback *after* earlier
    shards' counters and spans had already been folded in — a silent
    partial merge double-counted by the fallback's own run.  All shard
    results are therefore collected before anything merges: the merge
    is all-or-nothing.
    """
    names = _schema_names(schemas)
    if not systems or names is None or not names:
        return None
    try:
        pickle.dumps((systems, goodruns))
    except Exception:
        return None
    slices = _slice_names(names, max(1, workers // len(systems)))
    shards = [
        (system, group) for system in systems for group in slices
    ]
    corr_id = context.current().corr_id
    with spans.span("sweep.pool", shards=len(shards),
                    workers=min(workers, len(shards))):
        try:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(shards)))
        except (OSError, PermissionError):
            # No subprocess support on this platform/sandbox.
            return None
        try:
            try:
                futures = [
                    pool.submit(
                        _sweep_shard, system, group, goodruns,
                        max_instances_per_schema, pattern_hide,
                        max_violations_per_schema, engine, backend, corr_id,
                    )
                    for system, group in shards
                ]
            except (OSError, PermissionError):
                # The platform refused to fork/spawn the worker
                # processes at submission time: fall back in-process.
                # (Nothing has merged; shard contexts die unobserved.)
                return None
            perf.count("sweep.parallel_shards", len(shards))
            # Collect every shard before merging any: a crash in shard
            # k must not leave shards 0..k-1's telemetry behind.
            results = [future.result() for future in futures]
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    total = SweepReport()
    # Merge in submission order: (system, schema-slice) order matches
    # the sequential sweep, so totals, violation lists, and renders are
    # identical to workers=1.
    store = context.current().telemetry
    for index, (report, delta) in enumerate(results):
        total.merge(report)
        store.absorb(delta)
        journal.record(
            "shard_merge", shard=index,
            schemas=",".join(shards[index][1]),
            events=len(delta["journal"]["items"]),
            counters=len(delta["counters"]),
            spans=len(delta["spans"]["items"]),
        )
    return total
