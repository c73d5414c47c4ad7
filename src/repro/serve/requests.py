"""Analysis requests: the daemon's wire schema, validated and executed.

One request names a *model* (a registered protocol, or a generated
system spec), an optional *assumption vector*, and a *query* (a formula
to evaluate semantically, or a protocol goal to derive).  Execution
runs entirely inside whatever :class:`~repro.context.EngineContext` is
current — the daemon decides the context (one per batch, correlation ID
per request); this module only knows how to turn a validated request
into a verdict document.

Two request kinds:

``{"kind": "system", ...}``
    Build a generated system (:func:`repro.soundness.generate_system`
    seeded from the spec), optionally construct a good-run vector from
    the assumption map (Section 7 construction), and evaluate the query
    formula through the compiled engine at one point or at every point.
    ``"trace": true`` attaches the why-false proof tree
    (:mod:`repro.obs.trace`) of the first failing point.

``{"kind": "protocol", ...}``
    Run a registered protocol's idealized annotation in the BAN or
    reformulated logic, report a goal's (or all goals') derivation
    status, and with ``"certify": true`` compile the goal into a
    checked Hilbert proof (:func:`repro.logic.certify.certify`).

All schema violations raise :class:`RequestError`, which the daemon
maps to a 400 — engine errors (:class:`repro.errors.ReproError`) are
mapped the same way, so a bad formula never takes a worker down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import ProofError, ReproError

#: Cap on the failing points echoed back in a whole-system verdict.
MAX_FAILURES_LISTED = 10

#: Generated-system spec knobs a request may override, with bounds that
#: keep one request from holding a worker for minutes.
_SYSTEM_KNOBS = {
    "seed": (0, 1 << 31),
    "runs": (1, 8),
    "steps": (1, 40),
    "principals": (2, 6),
}

_LOGICS = ("at", "ban")


class RequestError(ValueError):
    """The request payload does not satisfy the wire schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _int_field(payload: Mapping[str, Any], name: str, default: int,
               bounds: tuple[int, int]) -> int:
    value = payload.get(name, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name!r} must be an integer")
    low, high = bounds
    _require(low <= value <= high,
             f"{name!r} must be within [{low}, {high}], got {value}")
    return value


@dataclass(frozen=True)
class AnalysisRequest:
    """One validated analysis request.

    ``system_key`` is the batching key: requests with equal keys are
    evaluated against the *same* interned :class:`System` (or the same
    cached protocol report), so a batch shares one warm
    ``compiled_systems`` entry.
    """

    kind: str
    # -- system requests ------------------------------------------------------
    seed: int = 0
    runs: int = 3
    steps: int = 14
    principals: int = 3
    formula: str | None = None
    assumptions: tuple[tuple[str, tuple[str, ...]], ...] = ()
    point: tuple[str, int] | None = None
    pattern_hide: bool = False
    trace: bool = False
    #: Semantics backend the verdict is computed under.  Part of the
    #: batching key: the compiled caches are keyed per backend, so a
    #: batch only shares warm state when the backend matches too.
    backend: str = "belief"
    # -- protocol requests ----------------------------------------------------
    protocol: str | None = None
    logic: str = "at"
    goal: str | None = None
    certify: bool = False
    # -- test hooks (honoured only when the daemon enables them) --------------
    delay_s: float = 0.0

    @property
    def system_key(self) -> tuple:
        if self.kind == "protocol":
            return ("protocol", self.protocol, self.logic)
        return ("system", self.seed, self.runs, self.steps,
                self.principals, self.backend)


def parse_request(payload: Any,
                  default_backend: str = "belief") -> AnalysisRequest:
    """Validate a decoded JSON payload into an :class:`AnalysisRequest`.

    ``default_backend`` is the daemon's configured backend; a request
    may override it with the ``backend`` field.  Only the field's
    *shape* is checked here — whether the name resolves is decided at
    execution time against the batch context's registry, whose
    :class:`~repro.errors.EngineError` the daemon maps to a 400.
    """
    _require(isinstance(payload, Mapping), "request body must be a JSON object")
    kind = payload.get("kind", "system")
    _require(kind in ("system", "protocol"),
             f"'kind' must be 'system' or 'protocol', got {kind!r}")

    delay = payload.get("delay_s", 0.0)
    _require(isinstance(delay, (int, float)) and not isinstance(delay, bool)
             and 0.0 <= float(delay) <= 60.0,
             "'delay_s' must be a number within [0, 60]")

    if kind == "protocol":
        protocol = payload.get("protocol")
        _require(isinstance(protocol, str) and bool(protocol),
                 "'protocol' must name a registered protocol")
        logic = payload.get("logic", "at")
        _require(logic in _LOGICS, f"'logic' must be one of {_LOGICS}")
        goal = payload.get("goal")
        _require(goal is None or isinstance(goal, str),
                 "'goal' must be a goal label string")
        certify = payload.get("certify", False)
        _require(isinstance(certify, bool), "'certify' must be a boolean")
        _require(not certify or goal is not None,
                 "'certify' requires a 'goal' to certify")
        return AnalysisRequest(
            kind="protocol", protocol=protocol, logic=logic, goal=goal,
            certify=certify, delay_s=float(delay),
        )

    formula = payload.get("formula")
    _require(isinstance(formula, str) and bool(formula),
             "'formula' is required for system requests")
    seed = _int_field(payload, "seed", 0, _SYSTEM_KNOBS["seed"])
    runs = _int_field(payload, "runs", 3, _SYSTEM_KNOBS["runs"])
    steps = _int_field(payload, "steps", 14, _SYSTEM_KNOBS["steps"])
    principals = _int_field(payload, "principals", 3,
                            _SYSTEM_KNOBS["principals"])

    raw_assumptions = payload.get("assumptions", {})
    _require(isinstance(raw_assumptions, Mapping),
             "'assumptions' must map principal names to formula lists")
    assumptions = []
    for name in sorted(raw_assumptions):
        formulas = raw_assumptions[name]
        _require(isinstance(name, str) and bool(name),
                 "assumption keys must be principal names")
        _require(isinstance(formulas, (list, tuple)) and all(
            isinstance(f, str) for f in formulas),
            f"assumptions for {name!r} must be a list of formula strings")
        assumptions.append((name, tuple(formulas)))

    point = payload.get("point")
    parsed_point: tuple[str, int] | None = None
    if point is not None:
        _require(isinstance(point, Mapping) and isinstance(point.get("run"), str)
                 and isinstance(point.get("time"), int),
                 "'point' must be {\"run\": name, \"time\": k}")
        parsed_point = (point["run"], point["time"])

    pattern_hide = payload.get("pattern_hide", False)
    trace = payload.get("trace", False)
    _require(isinstance(pattern_hide, bool), "'pattern_hide' must be a boolean")
    _require(isinstance(trace, bool), "'trace' must be a boolean")
    backend = payload.get("backend", default_backend)
    _require(isinstance(backend, str) and bool(backend),
             "'backend' must be a semantics backend name")

    return AnalysisRequest(
        kind="system", seed=seed, runs=runs, steps=steps,
        principals=principals, formula=formula,
        assumptions=tuple(assumptions), point=parsed_point,
        pattern_hide=pattern_hide, trace=trace, backend=backend,
        delay_s=float(delay),
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute(
    request: AnalysisRequest,
    system_for: Callable[[AnalysisRequest], Any],
    report_for: Callable[[str, str], Any],
) -> dict[str, Any]:
    """Run one request in the current engine context; returns the verdict
    document (no telemetry — the daemon slices that per request).

    ``system_for`` / ``report_for`` are the daemon's interned-model
    providers: equal ``system_key``s must yield the *same* objects, so
    batched requests share compiled state.
    """
    if request.kind == "protocol":
        return _execute_protocol(request, report_for)
    return _execute_system(request, system_for)


def _execute_protocol(request: AnalysisRequest, report_for) -> dict[str, Any]:
    report = report_for(request.protocol, request.logic)
    goals = {result.goal.label: result for result in report.goal_results}
    if request.goal is None:
        return {
            "kind": "protocol",
            "protocol": request.protocol,
            "logic": request.logic,
            "goals": {
                label: {"achieved": result.achieved,
                        "expected": result.goal.expected}
                for label, result in goals.items()
            },
            "all_as_expected": report.all_as_expected,
        }
    result = goals.get(request.goal)
    if result is None:
        raise RequestError(
            f"no goal labelled {request.goal!r} in {request.protocol!r} "
            f"(have: {', '.join(sorted(goals))})"
        )
    document: dict[str, Any] = {
        "kind": "protocol",
        "protocol": request.protocol,
        "logic": request.logic,
        "goal": request.goal,
        "verdict": result.achieved,
        "expected": result.goal.expected,
    }
    if request.certify:
        if not result.achieved:
            document["certificate"] = {
                "error": f"goal {request.goal!r} was not derived; "
                         "nothing to certify"
            }
        else:
            from repro.logic.certify import certify as _certify

            try:
                proof = _certify(report.derivation, result.goal.formula)
                proof.check()
            except ProofError as exc:  # pragma: no cover - defensive
                document["certificate"] = {"error": str(exc)}
            else:
                document["certificate"] = {
                    "steps": len(proof.steps),
                    "premises": len(proof.premises),
                    "checked": True,
                    "pretty": proof.pretty(),
                }
    return document


def _execute_system(request: AnalysisRequest, system_for) -> dict[str, Any]:
    from repro.semantics.backend import get_backend
    from repro.terms.ops import is_ground
    from repro.terms.parser import parse_formula

    backend = get_backend(request.backend)  # EngineError -> 400
    system = system_for(request)
    formula = parse_formula(request.formula, system.vocabulary)
    vector = _build_vector(request, system)
    compiled = backend.compile(system, vector,
                               pattern_hide=request.pattern_hide)
    points = list(system.points())

    document: dict[str, Any] = {
        "kind": "system",
        "seed": request.seed,
        "formula": str(formula),
        "backend": backend.name,
        "points": len(points),
    }
    if request.point is not None:
        run_name, k = request.point
        run = system.run(run_name)  # ModelError -> 400 via ReproError
        verdict = compiled.evaluate(formula, run, k)
        document["point"] = {"run": run_name, "time": k}
        document["verdict"] = verdict
        failing = [] if verdict else [(run, k)]
    else:
        # One whole-system bitset when the formula compiles; the
        # per-point loop only for what the compiled engine leaves to the
        # interpreter (and for parameters, which resolve per run).
        bits = compiled.truth_bits(formula) if is_ground(formula) else None
        if bits is None:
            failing = [
                (run, k) for run, k in points
                if not compiled.evaluate(formula, run, k)
            ]
        else:
            failing = [
                point for i, point in enumerate(compiled.points)
                if not (bits >> i) & 1
            ]
        document["verdict"] = not failing
        document["failures"] = len(failing)
        document["failing_points"] = [
            {"run": run.name, "time": k}
            for run, k in failing[:MAX_FAILURES_LISTED]
        ]
    if request.assumptions:
        document["good_runs"] = {
            principal.name: sorted(names)
            for principal, names in vector.entries
        }
    if request.trace and failing:
        from repro.obs.trace import render_why, trace_evaluation

        run, k = failing[0]
        _verdict, root = trace_evaluation(
            system, formula, run, k,
            goodruns=vector, pattern_hide=request.pattern_hide,
            backend=request.backend,
        )
        document["why_false"] = render_why(root)
    return document


def _build_vector(request: AnalysisRequest, system):
    """The good-run vector of the request's assumption map (or None).

    Assumption formulas are taken as belief *bodies*: ``{"P1": ["p0"]}``
    asserts ``P1 believes p0``.  A formula already of the form
    ``P believes ...`` for the same principal is kept as-is, so clients
    can write either surface form.  The construction runs under the
    request's backend and hide variant, the verdict's own, so the two
    share one compilation of the system.
    """
    if not request.assumptions:
        return None
    from repro.goodruns import InitialAssumptions, construct_good_runs
    from repro.terms.atoms import Principal
    from repro.terms.formulas import Believes
    from repro.terms.parser import parse_formula

    assignment = {}
    for name, texts in request.assumptions:
        principal = Principal(name)
        formulas = []
        for text in texts:
            formula = parse_formula(text, system.vocabulary)
            if not (isinstance(formula, Believes)
                    and formula.principal == principal):
                formula = Believes(principal, formula)
            formulas.append(formula)
        assignment[principal] = tuple(formulas)
    assumptions = InitialAssumptions.of(assignment)
    return construct_good_runs(
        system, assumptions, pattern_hide=request.pattern_hide,
        backend=request.backend,
    ).vector


def describe_error(exc: Exception) -> str:
    """A client-safe one-line description of a request failure."""
    if isinstance(exc, (RequestError, ReproError)):
        return f"{type(exc).__name__}: {exc}"
    return f"internal error ({type(exc).__name__}): {exc}"
