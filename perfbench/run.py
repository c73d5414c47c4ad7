"""The repository benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload sweep,serve_mixed --seed 1
    python3 perfbench/run.py --workload serve_mixed --seed 1 --repeat 5

``--trace 0`` measures the end-to-end metrics with nothing added to the
program.  ``--trace 1`` runs the same workload twice, untraced and then
with the span wrappers of ``tracing.py`` installed, and reports the
per-layer metrics of the traced run plus ``tracing.ratio.<metric>``:
each end-to-end result of the traced run over the untraced one.
``--repeat N`` runs seeds ``seed .. seed+N-1`` and reports each
metric's median and quartiles.

Workload parameters (sizes, request mix, connections, rates, latency
limits) and the table of which layer metric should move which
end-to-end metric live in ``spec.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
The exit status is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Fresh processes per run at least, whatever ``--seconds`` says, so
#: every median has several samples.
MIN_SWEEP_PROCESSES = 3
#: Extra daemon start-ups after each pair of serve blocks, timed for
#: ``setup_s`` alongside the daemon under load, so that its samples are
#: spread over the whole run.
SETUP_PROBES_PER_PAIR = 2
#: Open- and closed-loop phases alternate in pairs of blocks of about
#: this many seconds each, so both phases see the machine's speed
#: averaged over the whole run: on a shared machine it drifts by up to
#: 2x within seconds.
BLOCK_S = 5.0
#: Distinct system requests recomputed by the serve output check.
SERVE_CHECK_SAMPLE = 24


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def workload_spec(workload: str) -> dict:
    return load_json(os.path.join(HERE, "spec.json"))["workloads"][workload]


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, round(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Result:
    """One run: metric values, sample counts and output-check outcome."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = value
        self.samples[name] = samples


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def run_sweep(seed: int, seconds: float, traced: bool) -> tuple[Result, dict]:
    spec = workload_spec("sweep")
    children, traces = [], []
    started = time.monotonic()
    index = 0
    while index < MIN_SWEEP_PROCESSES or time.monotonic() - started < seconds:
        command = [sys.executable, os.path.join(HERE, "sweep_child.py"),
                   "--seed", str(seed), "--index", str(index)]
        if traced:
            trace_out = os.path.join(OUT, f"sweep-{seed}-{index}.json")
            command += ["--trace-out", trace_out]
            traces.append(trace_out)
        spawned = time.monotonic()
        completed = subprocess.run(
            command + ["--spawned-at", repr(spawned)], cwd=ROOT,
            capture_output=True, text=True, timeout=170)
        if completed.returncode != 0:
            raise RuntimeError(f"sweep process failed:\n{completed.stderr}")
        children.append(json.loads(completed.stdout.splitlines()[-1]))
        index += 1

    result = Result()
    system_ms = [s * 1000 for child in children for s in child["system_s"]]
    limit = spec["latency_limit_ms"]
    result.put("setup_s", statistics.median(c["setup_s"] for c in children),
               len(children))
    result.put("ops_per_s", statistics.median(
        c["instances"] / sum(c["system_s"]) for c in children), len(children))
    result.put("latency_p50_ms", percentile(system_ms, 0.5), len(system_ms))
    result.put("latency_p90_ms", percentile(system_ms, 0.9), len(system_ms))
    result.put("slo_share", sum(ms <= limit for ms in system_ms)
               / len(system_ms), len(system_ms))
    result.put("peak_rss_mb", statistics.median(c["rss_mb"] for c in children),
               len(children))
    result.attempted = sum(c["instances"] for c in children)
    result.failed = sum(c["failed"] for c in children)
    result.errors = [e for c in children for e in c["errors"]]
    layer_input = {"traces": [load_json(path) for path in traces],
                   "perf": [c["perf"] for c in children if c["perf"]]}
    return result, layer_input


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


def run_serve(seed: int, seconds: float, traced: bool) -> tuple[Result, dict]:
    import serve_load

    spec = workload_spec("serve_mixed")
    goals = serve_load.protocol_goals()
    stream = serve_load.mixed_stream(seed, goals, spec["mix"])
    connections = spec["connections"]

    trace_out = (os.path.join(OUT, f"serve_mixed-{seed}.json") if traced
                 else None)

    def probe_setup() -> float:
        probe = serve_load.Daemon(trace_out and f"{trace_out}.probe")
        probe.stop()
        if trace_out:
            os.remove(f"{trace_out}.probe")
        return probe.setup_s

    daemon = serve_load.Daemon(trace_out)
    setups = [daemon.setup_s]
    try:
        with daemon.client() as conn:
            for payload in serve_load.warmup_payloads(goals, stream):
                conn.post_json("/analyze", payload)
            began = time.perf_counter()
            conn.get("/metrics")
            scrape_start_ms = (time.perf_counter() - began) * 1000
        opened, closed, closed_s = [], [], 0.0
        pairs = max(1, round(seconds / (2 * BLOCK_S)))
        block_s = seconds / (2 * pairs)
        for pair in range(pairs):
            opened += serve_load.open_loop(
                daemon, stream, spec["open_rate_per_s"], block_s,
                f"{seed}-{pair}", connections)
            block, elapsed = serve_load.closed_loop(daemon, stream, block_s,
                                                    connections)
            closed += block
            closed_s += elapsed
            setups += [probe_setup() for _ in range(SETUP_PROBES_PER_PAIR)]
        with daemon.client() as conn:
            began = time.perf_counter()
            conn.get("/metrics")
            scrape_end_ms = (time.perf_counter() - began) * 1000
            _status, stats = conn.get("/stats")
        rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    result = Result()
    limit = spec["latency_limit_ms"]
    result.put("setup_s", statistics.median(setups), len(setups))
    result.put("ops_per_s", sum(r["status"] == 200 for r in closed)
               / closed_s, len(closed))
    latencies = [(r["done"] - r["due"]) * 1000 for r in opened]
    result.put("latency_p50_ms", percentile(latencies, 0.5), len(opened))
    result.put("latency_p90_ms", percentile(latencies, 0.9), len(opened))
    result.put("slo_share", sum(
        r["status"] == 200 and (r["done"] - r["due"]) * 1000 <= limit
        for r in opened) / len(opened), len(opened))
    result.put("peak_rss_mb", rss_mb)
    everything = opened + closed
    result.errors, result.failed = serve_load.check_responses(
        everything, goals, seed, SERVE_CHECK_SAMPLE)
    result.attempted = len(everything)
    layer_input = {
        "traces": [load_json(trace_out)] if traced else [],
        "opened": opened, "everything": everything, "stats": stats,
        "scrape_ms": (scrape_start_ms, scrape_end_ms),
    }
    return result, layer_input


# ---------------------------------------------------------------------------
# per-layer metrics (traced runs)
# ---------------------------------------------------------------------------


def layer_metrics(workload: str, layer_input: dict) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json; a layer the workload does
    not reach reads 0."""
    layers: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    gc_count, gc_s = 0, 0.0
    for trace in layer_input["traces"]:
        for name, row in trace["layers"].items():
            merged = layers.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in merged:
                merged[key] += row[key]
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        gc_count += trace["gc"]["gen2_count"]
        gc_s += trace["gc"]["gen2_s"]

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    def busy(*names):
        return sum(layers.get(name, {}).get("self_s", 0.0) for name in names)

    out: dict[str, float] = {
        "generators.systems": calls("generators"),
        "generators.busy_s": busy("generators"),
        "sweep.system.busy_s": busy("sweep.system"),
        "sweep.pool.busy_s": busy("sweep.pool"),
        "axioms.instances": counts.get("axioms.items", 0),
        "axioms.busy_s": busy("axioms"),
        "semantics.compiles": calls("semantics.system"),
        "semantics.compile.busy_s": busy("semantics.compile",
                                         "semantics.system"),
        "semantics.truth_bits.calls": calls("semantics.truth_bits"),
        "semantics.truth_bits.busy_s": busy("semantics.truth_bits"),
        "semantics.bitset_share": (
            counts.get("semantics.bitset", 0) / calls("semantics.truth_bits")
            if calls("semantics.truth_bits") else 0.0),
        "semantics.evaluate.calls": calls("semantics.evaluate"),
        "semantics.evaluate.busy_s": busy("semantics.evaluate"),
        "runtime.gc_gen2_count": gc_count,
        "runtime.gc_gen2_s": gc_s,
        "goodruns.calls": calls("goodruns"),
        "goodruns.busy_s": busy("goodruns"),
        "goodruns.stages": counts.get("goodruns.stages", 0),
        "trace.calls": calls("trace"),
        "trace.busy_s": busy("trace"),
        "analysis.busy_s": busy("analysis"),
        "certify.busy_s": busy("certify"),
        "certify.steps": counts.get("certify.steps", 0),
        "http.read.busy_s": busy("http.read"),
        "http.render.busy_s": busy("http.render"),
        "http.response_bytes": counts.get("http.response_bytes", 0),
        "requests.parse.busy_s": busy("requests.parse"),
        "requests.execute.busy_s": busy("requests.execute"),
        "daemon.absorb.busy_s": busy("daemon.absorb"),
        "obs.snapshot.busy_s": busy("obs.snapshot"),
        "tracing.spans": sum(t["spans_kept"] + t["spans_dropped"]
                             for t in layer_input["traces"]),
    }
    serve = {
        "semantics.compiles_per_request": 0.0,
        "goodruns.forced_naive": 0,
        "daemon.queue_wait_ms.p50": 0.0, "daemon.queue_wait_ms.p90": 0.0,
        "daemon.in_worker_ms.p50": 0.0, "daemon.in_worker_ms.p90": 0.0,
        "daemon.in_worker_growth": 0.0, "daemon.batch_size": 0.0,
        "daemon.rejected": 0, "daemon.timeouts": 0,
        "obs.metrics_scrape_ms.start": 0.0, "obs.metrics_scrape_ms.end": 0.0,
        "loadgen.late_ms.p50": 0.0, "loadgen.late_ms.p99": 0.0,
        "loadgen.backlog_max": 0,
    }
    perf_peaks: dict[str, int] = {}
    if workload == "sweep":
        perf_counters: dict[str, int] = {}
        for snapshot in layer_input["perf"]:
            for name, n in snapshot["counters"].items():
                perf_counters[name] = perf_counters.get(name, 0) + n
            for name, size in snapshot["cache_peaks"].items():
                perf_peaks[name] = max(perf_peaks.get(name, 0), size)
    else:
        import serve_load

        opened, everything = layer_input["opened"], layer_input["everything"]
        counters = layer_input["stats"]["counters"]
        perf_counters = counters
        for r in everything:
            for name, size in r["body"].get("cache_peaks", {}).items():
                perf_peaks[name] = max(perf_peaks.get(name, 0), size)
        answered = [r for r in opened if r["body"].get("elapsed_ms") is not None]
        in_worker = [r["body"]["elapsed_ms"] for r in answered]
        queue_wait = [(r["done"] - r["sent"]) * 1000 - r["body"]["elapsed_ms"]
                      for r in answered]
        ordered = sorted((r for r in everything
                          if r["body"].get("elapsed_ms") is not None),
                         key=lambda r: r["done"])
        tenth = max(1, len(ordered) // 10)
        first = statistics.mean(r["body"]["elapsed_ms"] for r in ordered[:tenth])
        last = statistics.mean(r["body"]["elapsed_ms"] for r in ordered[-tenth:])
        late = [(r["sent"] - r["due"]) * 1000 for r in opened]
        batches = counters.get("serve.batches", 0)
        serve.update({
            "semantics.compiles_per_request":
                calls("semantics.system") / len(everything),
            "goodruns.forced_naive":
                counters.get("goodruns.backend_forced_naive", 0),
            "daemon.queue_wait_ms.p50": percentile(queue_wait, 0.5),
            "daemon.queue_wait_ms.p90": percentile(queue_wait, 0.9),
            "daemon.in_worker_ms.p50": percentile(in_worker, 0.5),
            "daemon.in_worker_ms.p90": percentile(in_worker, 0.9),
            "daemon.in_worker_growth": last / first if first else 0.0,
            "daemon.batch_size": (counters.get("serve.accepted", 0) / batches
                                  if batches else 0.0),
            "daemon.rejected": counters.get("serve.rejected", 0),
            "daemon.timeouts": counters.get("serve.timeouts", 0),
            "obs.metrics_scrape_ms.start": layer_input["scrape_ms"][0],
            "obs.metrics_scrape_ms.end": layer_input["scrape_ms"][1],
            "loadgen.late_ms.p50": percentile(late, 0.5),
            "loadgen.late_ms.p99": percentile(late, 0.99),
            "loadgen.backlog_max": serve_load.backlog_max(opened),
        })
    out.update(serve)
    for layer in ("compiled_eval", "intern", "hide"):
        hits = perf_counters.get(f"{layer}.hit", 0)
        total = hits + perf_counters.get(f"{layer}.miss", 0)
        out[f"perf.hit_rate.{layer}"] = hits / total if total else 0.0
    for layer in ("compiled_eval", "intern"):
        out[f"perf.peak.{layer}"] = perf_peaks.get(layer, 0)
    return out


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> tuple[Result, dict]:
    if workload == "sweep":
        return run_sweep(seed, seconds, traced)
    return run_serve(seed, seconds, traced)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    """One benchmark run: untraced, plus a traced run when ``trace``."""
    plain, _ = run_workload(workload, seed, seconds, traced=False)
    if not trace:
        return plain
    traced, layer_input = run_workload(workload, seed, seconds, traced=True)
    result = Result()
    result.attempted = plain.attempted + traced.attempted
    result.failed = plain.failed + traced.failed
    result.errors = plain.errors + traced.errors
    for name, value in layer_metrics(workload, layer_input).items():
        result.put(name, value)
    for name, value in plain.metrics.items():
        result.put(f"tracing.ratio.{name}",
                   traced.metrics[name] / value if value else 0.0)
    return result


def units(trace: bool) -> dict[str, str]:
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    rows = benchmark["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    known = tuple(load_json(os.path.join(HERE, "spec.json"))["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="comma-separated: " + ", ".join(known))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    args = parser.parse_args(argv)

    workloads = args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)
    unit_of = units(bool(args.trace))

    attempted = failed = 0
    final: dict[str, dict] = {}
    for workload in workloads:
        runs = [measure(workload, args.seed + i, args.seconds,
                        bool(args.trace)) for i in range(args.repeat)]
        for run in runs:
            attempted += run.attempted
            failed += run.failed
            for error in run.errors:
                print(f"{workload}: output check failed: {error}",
                      file=sys.stderr)
        print(f"{workload}  (seeds {args.seed}..{args.seed + args.repeat - 1},"
              f" error_rate {sum(r.failed for r in runs)}/"
              f"{sum(r.attempted for r in runs)})")
        for name in unit_of:
            values = [run.metrics[name] for run in runs]
            q1, median, q3 = quartiles(values)
            samples = runs[0].samples[name]
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:34s} {median:14.4f} {unit_of[name]:6s} "
                  f"n={samples:<6d} q1={q1:.4f} q3={q3:.4f} "
                  f"spread={spread:.3f}"
                  + (f" runs={[round(v, 4) for v in values]}"
                     if len(values) > 1 else ""))
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            final[key] = {"value": median, "unit": unit_of[name]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
