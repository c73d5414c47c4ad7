#!/usr/bin/env python3
"""Load-generate the analysis daemon and record serving latencies.

Boots an in-process :class:`repro.serve.AnalysisDaemon`, drives it with
``--clients`` concurrent threads each issuing ``--requests`` analysis
requests over one keep-alive :class:`repro.serve.ServeClient` apiece
(same generated system, so the daemon's batching has something to
batch), and writes ``BENCH_serve.json``: nearest-rank p50/p95/p99
latency, sustained requests/s, error and 5xx counts, the compiled-cache
hit rate the batch sharing achieved, how many requests rode reused
connections, and the soak figures of the daemon's bounded telemetry —
``/metrics`` scrape latency before and after the load, and the root
context's raw-span ring length against its capacity.  Wired into
``tools/bench_gate.py``
(CI gates the latency percentiles against comparable history)::

    PYTHONPATH=src python tools/bench_serve.py --clients 4 --requests 25
    python tools/bench_gate.py --bench BENCH_serve.json \
        --history BENCH_serve_history.jsonl --keys latency_p95_ms

Exit status 1 if any request errored — a load run that dropped work is
not a benchmark.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import context, perf  # noqa: E402
from repro.obs.runmeta import run_metadata  # noqa: E402
from repro.serve import AnalysisDaemon, ServeConfig, client  # noqa: E402


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, round(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def scrape_ms(host, port, repeats: int = 5) -> float:
    """Best-of-``repeats`` latency of one ``GET /metrics``, in ms."""
    best = float("inf")
    with client.ServeClient(host, port, timeout=120.0) as conn:
        for _ in range(repeats):
            started = time.perf_counter()
            status, _body = conn.get("/metrics")
            if status != 200:
                raise RuntimeError(f"/metrics answered {status}")
            best = min(best, time.perf_counter() - started)
    return round(best * 1000, 3)


def _client_loop(host, port, payload, count, latencies, errors, barrier,
                 reuse):
    conn = client.ServeClient(host, port, timeout=120.0)
    barrier.wait()
    with conn:
        for _ in range(count):
            started = time.perf_counter()
            try:
                status, _body = conn.post_json("/analyze", payload)
            except Exception as exc:  # noqa: BLE001 - any failure is an error
                errors.append(repr(exc))
                continue
            elapsed = time.perf_counter() - started
            if status == 200:
                latencies.append(elapsed)
            else:
                errors.append(status)
        reuse.append((conn.connections_opened, conn.requests_sent,
                      conn.connections_reused))


def run_load(args) -> dict:
    config = ServeConfig(
        workers=args.workers,
        queue_size=max(64, args.clients * 4),
        max_batch=args.max_batch,
    )
    daemon = AnalysisDaemon(config)
    started = threading.Event()
    bound: dict[str, object] = {}
    loop = asyncio.new_event_loop()

    def serve_thread():
        asyncio.set_event_loop(loop)

        async def boot():
            bound["host"], bound["port"] = await daemon.start()
            started.set()
            await daemon.serve_until_shutdown()

        loop.run_until_complete(boot())
        loop.close()

    thread = threading.Thread(target=serve_thread, name="bench-serve-daemon")
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("daemon failed to start within 30s")
    host, port = bound["host"], bound["port"]

    payload = {
        "kind": "system",
        "seed": args.seed,
        "runs": 2,
        "steps": 10,
        "formula": "P1 believes p0",
        "backend": args.backend,
    }
    metrics_start_ms = scrape_ms(host, port)
    latencies: list[float] = []
    errors: list = []
    reuse: list[tuple[int, int, int]] = []
    barrier = threading.Barrier(args.clients + 1)
    clients = [
        threading.Thread(
            target=_client_loop,
            args=(host, port, payload, args.requests, latencies, errors,
                  barrier, reuse),
            name=f"bench-client-{index}",
        )
        for index in range(args.clients)
    ]
    for worker in clients:
        worker.start()
    barrier.wait()
    wall_started = time.perf_counter()
    for worker in clients:
        worker.join()
    wall_s = time.perf_counter() - wall_started
    metrics_end_ms = scrape_ms(host, port)
    ring = daemon.root.spans

    asyncio.run_coroutine_threadsafe(
        daemon.shutdown(drain=True), loop).result(timeout=60)
    thread.join(timeout=60)

    counters = dict(daemon.root.counters)
    hits = counters.get("compiled_eval.hit", 0)
    misses = counters.get("compiled_eval.miss", 0)
    ordered = sorted(latencies)
    completed = len(latencies)
    measurements = {
        "latency_p50_ms": round(percentile(ordered, 0.50) * 1000, 3),
        "latency_p95_ms": round(percentile(ordered, 0.95) * 1000, 3),
        "latency_p99_ms": round(percentile(ordered, 0.99) * 1000, 3),
        "requests_per_s": round(completed / wall_s, 3) if wall_s else 0.0,
        "wall_s": round(wall_s, 6),
        "total_requests": args.clients * args.requests,
        "completed": completed,
        "errors": len(errors),
        "server_errors": sum(1 for e in errors
                             if isinstance(e, int) and e >= 500),
        "compiled_hit_rate": round(hits / (hits + misses), 6)
        if hits + misses else 0.0,
        "batches": counters.get("serve.batches", 0),
        "batched_requests": counters.get("serve.batched_requests", 0),
        "connections_opened": sum(opened for opened, _sent, _r in reuse),
        "connections_reused": sum(r for _opened, _sent, r in reuse),
        "metrics_scrape_start_ms": metrics_start_ms,
        "metrics_scrape_end_ms": metrics_end_ms,
        "span_ring_len": len(ring),
        "span_ring_capacity": ring.capacity,
        "span_ring_dropped": ring.dropped,
    }
    return {
        "daemon": daemon,
        "measurements": measurements,
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client threads (default 4)")
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client (default 25)")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon analysis workers (default 2)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="daemon batching width (default 8)")
    parser.add_argument("--seed", type=int, default=9,
                        help="generated-system seed all clients share")
    parser.add_argument("--backend", default="belief",
                        help="semantics backend every request names "
                             "(default belief)")
    parser.add_argument("--output", default="BENCH_serve.json",
                        help="where to write the benchmark record")
    args = parser.parse_args(argv)

    result = run_load(args)
    measurements = result["measurements"]
    daemon = result["daemon"]

    # The record's perf section is the daemon root's counter table —
    # that is where every batch context's telemetry was absorbed.
    with context.use(daemon.root):
        perf.write_bench_json(
            args.output,
            measurements,
            parameters={
                "systems": args.clients,
                "instances": args.requests,
                "seed": args.seed,
                "workers": args.workers,
                "engine": "serve",
                "backend": args.backend,
            },
            meta=run_metadata(
                command="bench_serve",
                clients=args.clients,
                requests_per_client=args.requests,
                workers=args.workers,
                backend=args.backend,
            ),
        )

    print(f"bench_serve: {measurements['completed']}/"
          f"{measurements['total_requests']} ok in "
          f"{measurements['wall_s']}s "
          f"({measurements['requests_per_s']} req/s), "
          f"p50 {measurements['latency_p50_ms']}ms "
          f"p95 {measurements['latency_p95_ms']}ms "
          f"p99 {measurements['latency_p99_ms']}ms, "
          f"compiled hit rate {measurements['compiled_hit_rate']}, "
          f"{measurements['connections_reused']} requests on reused "
          f"connections ({measurements['connections_opened']} opened), "
          f"/metrics {measurements['metrics_scrape_start_ms']}ms -> "
          f"{measurements['metrics_scrape_end_ms']}ms, span ring "
          f"{measurements['span_ring_len']}/"
          f"{measurements['span_ring_capacity']}")
    if result["errors"]:
        for error in result["errors"][:10]:
            print(f"bench_serve: error: {error!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
