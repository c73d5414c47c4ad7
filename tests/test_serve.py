"""The analysis daemon: round trips, batching, backpressure, drain.

The ISSUE 9 serving contract as tests:

* a request round-trips to a verdict with why-false trace and a
  checked Hilbert certificate;
* same-system requests batch into one engine context and *share* its
  compiled system (nonzero ``compiled_eval`` hit rate across a batch);
* a request exceeding the per-request timeout gets 408 and poisons
  nothing else;
* a full admission queue rejects fast with 429 instead of buffering;
* graceful shutdown drains in-flight work and merges every batch
  context's telemetry into the daemon root losslessly;
* every response carries a unique correlation ID and a telemetry
  slice scoped to that request.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import AnalysisDaemon, ServeConfig
from repro.serve import client

SMALL_SYSTEM = {
    "kind": "system",
    "seed": 9,
    "runs": 2,
    "steps": 8,
    "formula": "P1 believes p0",
}


async def _post(payload, host, port, timeout=120.0):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None, lambda: client.post_json(host, port, "/analyze", payload,
                                       timeout=timeout)
    )


async def _get(path, host, port):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None, lambda: client.get(host, port, path)
    )


def _serve_test(config):
    """Decorator-free harness: run ``body(daemon, host, port)`` under a
    live daemon, always shutting it down."""

    def runner(body):
        async def main():
            daemon = AnalysisDaemon(config)
            host, port = await daemon.start()
            try:
                await body(daemon, host, port)
            finally:
                await daemon.shutdown(drain=True)
            return daemon

        return asyncio.run(main())

    return runner


class TestRoundTrip:
    def test_system_verdict_with_trace(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _post(dict(SMALL_SYSTEM, trace=True),
                                       host, port)
            assert status == 200
            assert body["verdict"] is False
            assert body["failures"] > 0
            assert body["failing_points"]
            assert body["why_false"].lstrip().startswith("✗")
            assert body["corr_id"].startswith("req-")
            telemetry = body["telemetry"]
            assert telemetry["corr_id"] == body["corr_id"]
            assert any(
                event.startswith("compiled_eval.")
                for event in telemetry["counters"]
            )
            assert "serve.request" in telemetry["spans"]

    def test_protocol_goal_with_certificate(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _post(
                {"kind": "protocol", "protocol": "wide-mouth-frog",
                 "logic": "at", "goal": "B-key", "certify": True},
                host, port,
            )
            assert status == 200
            assert body["verdict"] is True
            certificate = body["certificate"]
            assert certificate["checked"] is True
            assert certificate["steps"] > 0
            assert certificate["premises"] > 0
            assert "B believes" in certificate["pretty"]

    def test_schema_violations_get_400(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            for payload, fragment in (
                ({"kind": "system"}, "formula"),
                ({"kind": "protocol"}, "protocol"),
                ({"kind": "system", "formula": "((("}, "ParseError"),
                ({"kind": "protocol", "protocol": "no-such"}, "unknown"),
            ):
                status, body = await _post(payload, host, port)
                assert status == 400, body
                assert fragment in body["error"]

    def test_deeply_nested_formulas_get_400(self):
        # Both once raised RecursionError in the parser: a 500.
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            for formula in ("(" * 400 + "p0" + ")" * 400,
                            "P1 believes " * 400 + "p0"):
                status, body = await _post(dict(SMALL_SYSTEM, formula=formula),
                                           host, port)
                assert status == 400, body
                assert "ParseError" in body["error"]
                assert "nesting" in body["error"]

    def test_wide_connective_chains_get_400(self):
        # Both once raised RecursionError in Formula.__str__ and the
        # compiled engine's walk: a 500.  Chains parse in loops, so the
        # parser now bounds the AST height they build.
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            for formula in (" & ".join(["P1 sees N1"] * 400),
                            " | ".join(["p0"] * 1000)):
                status, body = await _post(dict(SMALL_SYSTEM, formula=formula),
                                           host, port)
                assert status == 400, body
                assert "ParseError" in body["error"]
                assert "nesting" in body["error"]

    def test_unknown_endpoint_and_method(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, _body = await _get("/nope", host, port)
            assert status == 404
            status, _body = await _get("/analyze", host, port)
            assert status == 405


class TestBatching:
    def test_same_system_requests_share_compiled_state(self):
        clients = 6

        @_serve_test(ServeConfig(workers=1, max_batch=clients,
                                 debug_delays=True))
        async def daemon(daemon, host, port):
            # The first request holds the single worker briefly so the
            # rest pile up in the queue and drain as one same-system
            # batch sharing one engine context.
            first = _post(dict(SMALL_SYSTEM, delay_s=0.4), host, port)
            rest = [
                _post(SMALL_SYSTEM, host, port) for _ in range(clients - 1)
            ]
            responses = await asyncio.gather(first, *rest)
            assert all(status == 200 for status, _ in responses)
            corr_ids = [body["corr_id"] for _, body in responses]
            assert len(set(corr_ids)) == clients

        counters = daemon.root.counters
        assert counters["serve.accepted"] == clients
        # Batching happened (fewer batches than requests) ...
        assert counters["serve.batches"] < clients
        assert counters.get("serve.batched_requests", 0) > 0
        # ... and paid off: later batch members hit the compiled system
        # (and formula bitsets) their batch-mate compiled.
        assert counters.get("compiled_eval.system_hit", 0) > 0
        assert counters.get("compiled_eval.hit", 0) > 0


class TestBackpressure:
    def test_timeout_returns_408_and_recovers(self):
        @_serve_test(ServeConfig(workers=1, request_timeout_s=0.2,
                                 debug_delays=True))
        async def daemon(daemon, host, port):
            status, body = await _post(
                dict(SMALL_SYSTEM, seed=10, delay_s=1.0), host, port)
            assert status == 408
            assert "corr_id" in body
            # Let the abandoned executor thread finish its sleep so the
            # follow-up request is not queued behind it.
            await asyncio.sleep(1.0)
            # The worker and its successor context are healthy.
            status, body = await _post(dict(SMALL_SYSTEM, seed=11),
                                       host, port)
            assert status == 200

        assert daemon.root.counters["serve.timeouts"] == 1
        assert daemon.root.counters["serve.context_abandoned"] == 1

    def test_full_queue_rejects_with_429(self):
        @_serve_test(ServeConfig(workers=1, queue_size=1,
                                 debug_delays=True))
        async def daemon(daemon, host, port):
            # Occupy the only worker, then fill the queue's one slot.
            busy = asyncio.ensure_future(
                _post(dict(SMALL_SYSTEM, seed=12, delay_s=1.0), host, port))
            await asyncio.sleep(0.3)  # worker has dequeued the busy job
            queued = asyncio.ensure_future(
                _post(dict(SMALL_SYSTEM, seed=12), host, port))
            await asyncio.sleep(0.2)  # it is sitting in the queue
            status, body = await _post(dict(SMALL_SYSTEM, seed=12),
                                       host, port)
            assert status == 429
            assert "queue full" in body["error"]
            # The rejection was immediate, nothing buffered: both
            # admitted requests still complete.
            assert (await busy)[0] == 200
            assert (await queued)[0] == 200

        assert daemon.root.counters["serve.rejected"] == 1


class TestGracefulShutdown:
    def test_drain_completes_work_and_merges_telemetry(self):
        responses = []

        @_serve_test(ServeConfig(workers=1, max_batch=4,
                                 debug_delays=True))
        async def daemon(daemon, host, port):
            pending = [
                asyncio.ensure_future(_post(
                    dict(SMALL_SYSTEM, delay_s=0.3 if i == 0 else 0.0),
                    host, port))
                for i in range(4)
            ]
            await asyncio.sleep(0.15)  # all admitted, first in flight
            status, body = await _get("/healthz", host, port)
            assert status == 200
            loop = asyncio.get_running_loop()
            status, body = await loop.run_in_executor(
                None, lambda: client.post_json(host, port, "/shutdown", {}))
            assert status == 200 and body["draining"] is True
            responses.extend(await asyncio.gather(*pending))
            await daemon.serve_until_shutdown()

        # Every admitted request completed despite the shutdown.
        assert [status for status, _ in responses] == [200] * 4

        # Lossless merge: the per-response telemetry slices are exactly
        # the evaluator work the root context absorbed from the batch
        # contexts — counter by counter.
        absorbed = {
            event: count
            for event, count in daemon.root.counters.items()
            if event.startswith("compiled_eval.")
        }
        expected: dict[str, int] = {}
        for _status, body in responses:
            for event, count in body["telemetry"]["counters"].items():
                if event.startswith("compiled_eval."):
                    expected[event] = expected.get(event, 0) + count
        assert absorbed == expected
        assert sum(absorbed.values()) > 0

        # And the journal kept the story, under per-request corr IDs.
        events = daemon.root.journal.snapshot()
        kinds = [event["kind"] for event in events]
        assert "serve_start" in kinds
        assert "serve_stop" in kinds
        assert kinds.count("serve_accept") == 4
        corr_ids = {
            event["corr"] for event in events
            if event["kind"] == "serve_accept"
        }
        assert len(corr_ids) == 4

    def test_shutdown_closes_the_listener(self):
        @_serve_test(ServeConfig(workers=1))
        async def daemon(daemon, host, port):
            await daemon.shutdown(drain=True)
            with pytest.raises(OSError):
                # The listener is closed; new connections fail fast.
                await _post(SMALL_SYSTEM, host, port)


class TestBackends:
    def test_backend_echoed_and_counted(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _post(SMALL_SYSTEM, host, port)
            assert status == 200
            assert body["backend"] == "belief"
            status, body = await _post(
                dict(SMALL_SYSTEM, backend="epistemic"), host, port)
            assert status == 200
            assert body["backend"] == "epistemic"

        assert daemon.root.counters.get("serve.backend.belief", 0) >= 1
        assert daemon.root.counters.get("serve.backend.epistemic", 0) >= 1

    def test_unknown_backends_leave_no_root_counter(self):
        # Unvalidated names must not mint counters: each would stay in
        # /stats and /metrics for the daemon's lifetime.
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            for index in range(30):
                status, _body = await _post(
                    dict(SMALL_SYSTEM, backend=f"bogus-{index}"), host, port)
                assert status == 400
            status, stats = await _get("/stats", host, port)
            assert status == 200
            assert not any("bogus" in name for name in stats["counters"])

        assert not any("bogus" in name for name in daemon.root.counters)

    def test_unknown_backend_is_a_clean_400(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _post(
                dict(SMALL_SYSTEM, backend="nosuch"), host, port)
            assert status == 400, body
            assert "unknown semantics backend 'nosuch'" in body["error"]
            # Malformed shapes are rejected at parse time, before any
            # registry lookup.
            status, body = await _post(
                dict(SMALL_SYSTEM, backend=7), host, port)
            assert status == 400, body
            assert "backend" in body["error"]
            # The daemon is not poisoned.
            status, _body = await _post(SMALL_SYSTEM, host, port)
            assert status == 200

    def test_config_default_backend_applies(self):
        @_serve_test(ServeConfig(default_backend="epistemic"))
        async def daemon(daemon, host, port):
            status, body = await _post(SMALL_SYSTEM, host, port)
            assert status == 200
            assert body["backend"] == "epistemic"
            # An explicit per-request backend still wins.
            status, body = await _post(
                dict(SMALL_SYSTEM, backend="belief"), host, port)
            assert status == 200
            assert body["backend"] == "belief"

    def test_stats_lists_backends(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _get("/stats", host, port)
            assert status == 200
            assert body["backends"] == ["belief", "epistemic"]
            assert body["default_backend"] == "belief"

    def test_backends_share_one_generated_system(self, monkeypatch):
        """The model cache keys on the generator config, not the batch
        key: a belief and an epistemic request for one spec generate the
        system once."""
        from repro.soundness import generators

        calls = []
        honest = generators.generate_system

        def counting(config=None):
            calls.append(config)
            return honest(config)

        monkeypatch.setattr(generators, "generate_system", counting)

        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            for backend in ("belief", "epistemic", "belief"):
                status, body = await _post(
                    dict(SMALL_SYSTEM, backend=backend), host, port)
                assert status == 200, body
            status, stats = await _get("/stats", host, port)
            assert status == 200
            assert stats["cached_systems"] == 1

        assert len(calls) == 1

    @pytest.mark.parametrize("backend, pattern_hide", [
        ("belief", False), ("epistemic", False), ("epistemic", True),
    ])
    def test_assumption_map_request_compiles_once(
        self, backend, pattern_hide
    ):
        """The good-runs construction and the verdict query one
        compilation of the system, and answer as the naive construction
        and the backend's interpreter do."""
        from repro.goodruns import InitialAssumptions, construct_good_runs
        from repro.semantics.backend import get_backend
        from repro.soundness import GeneratorConfig, generate_system
        from repro.terms.atoms import Principal
        from repro.terms.formulas import Believes
        from repro.terms.parser import parse_formula

        payload = dict(
            SMALL_SYSTEM, runs=3, steps=14, backend=backend,
            pattern_hide=pattern_hide, formula="P2 believes (P1 said N1)",
            assumptions={"P1": ["P1 sees N1"], "P2": ["P1 believes p0"]},
        )

        @_serve_test(ServeConfig(workers=1))
        async def daemon(daemon, host, port):
            status, body = await _post(payload, host, port)
            assert status == 200, body
            daemon.answer = body

        assert daemon.root.counters["compiled_eval.system_miss"] == 1
        system = generate_system(GeneratorConfig(
            seed=payload["seed"], runs=3, steps_per_run=14))
        parse = lambda text: parse_formula(text, system.vocabulary)
        vector = construct_good_runs(
            system,
            InitialAssumptions.of({
                Principal(name): tuple(
                    Believes(Principal(name), parse(text)) for text in texts)
                for name, texts in payload["assumptions"].items()
            }),
            pattern_hide=pattern_hide, engine="naive", backend=backend,
        ).vector
        interpreter = get_backend(backend).interpreter(
            system, vector, pattern_hide=pattern_hide)
        failures = sum(
            not interpreter.evaluate(parse(payload["formula"]), run, k)
            for run, k in system.points()
        )
        answer = daemon.answer
        assert answer["good_runs"] == {
            principal.name: sorted(names)
            for principal, names in vector.entries
        }
        assert answer["failures"] == failures
        assert answer["verdict"] is (failures == 0)

    def test_backend_is_part_of_the_batch_key(self):
        """Same generated system under different backends must not share
        warm compiled state: the batch key includes the backend name."""
        from repro.serve.requests import parse_request

        belief = parse_request(dict(SMALL_SYSTEM))
        epistemic = parse_request(dict(SMALL_SYSTEM, backend="epistemic"))
        assert belief.system_key != epistemic.system_key


class TestKeepAliveClient:
    def test_connection_reuse_across_requests(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            loop = asyncio.get_running_loop()

            def exchange():
                with client.ServeClient(host, port, timeout=120.0) as conn:
                    for _ in range(4):
                        status, body = conn.post_json("/analyze",
                                                      SMALL_SYSTEM)
                        assert status == 200
                        assert body["backend"] == "belief"
                    status, stats = conn.get("/stats")
                    assert status == 200
                    assert "backends" in stats
                    return (conn.connections_opened, conn.requests_sent,
                            conn.connections_reused)

            opened, sent, reused = await loop.run_in_executor(None, exchange)
            assert opened == 1
            assert sent == 5
            assert reused == 4


class TestVerdictDocument:
    """The whole-system verdict is read from one truth bitset when the
    formula compiles, and point by point when it does not; either way
    the document is the one a point-by-point interpreter loop gives."""

    @staticmethod
    def _system():
        # S has local state in r1 only, so a formula mentioning S does
        # not compile; ``p`` is false throughout r2, which keeps the
        # interpreter away from S's missing state there.
        from repro.model import Interpretation, RunBuilder, system_of
        from tests.strategies import KEYS, NONCES, PRINCIPALS, PROPS, VOCAB

        a, b, s = PRINCIPALS
        kab = KEYS[0]
        na = NONCES[0]
        runs = []
        for name, members in (("r1", (a, b, s)), ("r2", (a, b))):
            builder = RunBuilder(members, keysets={a: [kab], b: [kab]})
            builder.send(a, na, b)
            builder.receive(b)
            if s in members:
                builder.send(b, na, s)
                builder.receive(s)
            else:
                builder.idle()
                builder.idle()
            runs.append(builder.build(name))
        interpretation = Interpretation.from_run_table({PROPS[0]: ["r1"]})
        return system_of(runs, interpretation, VOCAB)

    def _document(self, system, formula):
        from repro.serve.requests import AnalysisRequest, execute

        request = AnalysisRequest(kind="system", formula=formula)
        return execute(request, lambda _request: system, None)

    def _expected_failures(self, system, formula):
        from repro.semantics import Evaluator
        from repro.terms.parser import parse_formula

        parsed = parse_formula(formula, system.vocabulary)
        evaluator = Evaluator(system)
        return [
            {"run": run.name, "time": k}
            for run, k in system.points()
            if not evaluator.evaluate(parsed, run, k)
        ]

    @pytest.mark.parametrize("formula, compiles", [
        ("B sees Na", True),
        ("A believes B sees Na", True),
        ("p -> S sees Na", False),
    ])
    def test_document_matches_point_by_point_loop(self, formula, compiles):
        from repro import context as _context
        from repro.semantics.compiler import compiled_for
        from repro.serve.requests import MAX_FAILURES_LISTED
        from repro.terms.parser import parse_formula

        system = self._system()
        with _context.use(_context.fresh("verdict-document")):
            parsed = parse_formula(formula, system.vocabulary)
            assert compiled_for(system).can_compile(parsed) is compiles
            document = self._document(system, formula)
        expected = self._expected_failures(system, formula)
        assert expected, "every case has failing points to list"
        assert document["points"] == len(tuple(system.points()))
        assert document["verdict"] is False
        assert document["failures"] == len(expected)
        assert document["failing_points"] == expected[:MAX_FAILURES_LISTED]
