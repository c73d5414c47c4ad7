"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import serve_load  # noqa: E402
import sweep_child  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark() -> dict:
    return run.load_json(os.path.join(ROOT, "BENCHMARK.json"))


def bench_command(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def last_json(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------


def test_benchmark_json_follows_the_naming_rules():
    doc = benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in doc[section]]
        for metric in doc[section]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_spec_names_the_benchmarked_workloads_and_metrics():
    doc = benchmark()
    spec = run.load_json(os.path.join(BENCH, "spec.json"))
    assert {w["name"] for w in doc["workloads"]} <= set(spec["workloads"])
    known = {m["name"] for m in doc["end_to_end"] + doc["per_layer"]}
    for row in spec["predictions"]:
        for name in row["metrics"] + [m for m, _w in row["moves"]]:
            assert name in known, name


def _serve_layer_input():
    result = {"payload": {}, "status": 200, "due": 0.0, "sent": 0.001,
              "done": 0.004, "body": {"elapsed_ms": 2.0, "cache_peaks": {}}}
    return {"traces": [], "opened": [result], "everything": [result],
            "stats": {"counters": {}}, "scrape_ms": (1.0, 2.0)}


@pytest.mark.parametrize("workload", ["sweep", "serve_mixed"])
def test_layer_metrics_match_benchmark_json(workload):
    layer_input = (_serve_layer_input() if workload != "sweep"
                   else {"traces": [], "perf": []})
    emitted = set(run.layer_metrics(workload, layer_input))
    emitted |= {f"tracing.ratio.{m['name']}"
                for m in benchmark()["end_to_end"]}
    assert emitted == {m["name"] for m in benchmark()["per_layer"]}


# ---------------------------------------------------------------------------
# Smoke runs
# ---------------------------------------------------------------------------


def test_serve_smoke():
    completed = bench_command("--workload", "serve_mixed", "--seconds", "2")
    assert completed.returncode == 0, completed.stderr
    result = last_json(completed)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {
        m["name"] for m in benchmark()["end_to_end"]}


def test_sweep_smoke_traced():
    completed = bench_command("--workload", "sweep", "--seconds", "0",
                              "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    result = last_json(completed)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in benchmark()["per_layer"]}
    assert metrics["axioms.instances"]["value"] > 0
    assert metrics["semantics.truth_bits.calls"]["value"] > 0
    assert metrics["daemon.in_worker_ms.p50"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench_command("--workload", "sweep", "--seconds", "1",
                              cwd=str(tmp_path))
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


# ---------------------------------------------------------------------------
# Planted wrong verdicts
# ---------------------------------------------------------------------------


def test_sweep_check_catches_a_planted_wrong_verdict(monkeypatch):
    from repro.semantics.compiler import CompiledSystem
    from repro.soundness import generators, sweep

    monkeypatch.setattr(sweep_child, "SIZES", ((2, 8), (3, 10)))
    configs = sweep_child.system_configs(0, 0)
    systems = [generators.generate_system(c) for c in configs]
    honest = [sweep.sweep_system(s) for s in systems]
    assert sweep_child.check(0, 0, systems, honest) == ([], 0)

    original = CompiledSystem.truth_bits

    def planted(self, formula):
        bits = original(self, formula)
        return None if bits is None else bits & ~1  # point 0 always false

    monkeypatch.setattr(CompiledSystem, "truth_bits", planted)
    from repro import perf

    perf.clear_caches()
    wrong = [sweep.sweep_system(s) for s in systems]
    monkeypatch.setattr(CompiledSystem, "truth_bits", original)
    errors, failed = sweep_child.check(0, 0, systems, wrong)
    assert failed > 0
    assert any("violations of Theorem 1" in e for e in errors)


def test_reference_counts_match_the_sweep_enumeration():
    import itertools

    import instance_counts
    from repro.logic.axioms import AXIOMS
    from repro.soundness import generators, sweep

    for runs, steps in ((2, 8), (3, 14), (5, 27)):
        system = generators.generate_system(generators.GeneratorConfig(
            seed=runs * steps, runs=runs, steps_per_run=steps))
        pool = sweep.pool_from_system(system)
        enumerated = {name: len(list(itertools.islice(
            schema.instances(pool), sweep.DEFAULT_MAX_INSTANCES_PER_SCHEMA)))
            for name, schema in AXIOMS.items()}
        assert instance_counts.expected_counts(system) == enumerated


def test_sweep_check_catches_dropped_instances(monkeypatch):
    import dataclasses

    from repro.soundness import generators, sweep

    monkeypatch.setattr(sweep_child, "SIZES", ((3, 14),))
    systems = [generators.generate_system(c)
               for c in sweep_child.system_configs(0, 0)]
    original = sweep.pool_from_system

    def smaller(system, *args, **kwargs):
        pool = original(system, *args, **kwargs)
        return dataclasses.replace(pool, messages=pool.messages[:-1])

    monkeypatch.setattr(sweep, "pool_from_system", smaller)
    reports = [sweep.sweep_system(s) for s in systems]
    errors, failed = sweep_child.check(0, 0, systems, reports)
    assert failed > 0
    assert any("expected" in e for e in errors)


def _answered(payload, body):
    return {"payload": payload, "status": 200, "due": 0.0, "sent": 0.0,
            "done": 0.0, "body": body}


def test_serve_check_catches_a_planted_wrong_verdict():
    payload = {"kind": "system", "seed": 4, "runs": 2, "steps": 8,
               "formula": "P1 believes p0",
               "assumptions": {"P2": ["P1 has K1"]}}
    body = dict(serve_load.expected_system_verdict(payload), why_false=False)
    assert serve_load.check_responses([_answered(payload, body)], {}, 0,
                                      sample=5) == ([], 0)
    planted = dict(body, verdict=not body["verdict"])
    errors, failed = serve_load.check_responses(
        [_answered(payload, planted)], {}, 0, sample=5)
    assert failed == 1 and "differs from the interpreter" in errors[0]


def test_serve_check_accepts_the_verdict_of_a_regenerated_system(
        monkeypatch):
    payload = {"kind": "system", "seed": 4, "runs": 2, "steps": 8,
               "formula": "P1 believes p0"}
    expected = serve_load.expected_system_verdict(payload)
    variant = dict(expected, failures=expected["failures"] + 1)
    regenerated = iter([expected, variant])
    monkeypatch.setattr(serve_load, "verdict_in_fresh_process",
                        lambda _payload: next(regenerated))
    body = dict(variant, why_false=False)
    assert serve_load.check_responses([_answered(payload, body)], {}, 0,
                                      sample=5) == ([], 0)


def test_serve_check_flags_protocol_and_trace_mistakes():
    goals = {("kerberos", "at"): {"A-key": True}}
    protocol = {"kind": "protocol", "protocol": "kerberos", "logic": "at",
                "goal": "A-key", "certify": True}
    traced = {"kind": "system", "seed": 4, "runs": 2, "steps": 8,
              "formula": "P1 believes p0", "trace": True}
    system_body = serve_load.expected_system_verdict(traced)
    results = [
        _answered(protocol, {"verdict": True, "certificate_checked": False}),
        _answered(traced, dict(system_body, why_false=False)),
        {"payload": traced, "status": 400, "due": 0, "sent": 0, "done": 0,
         "body": {}},
    ]
    assert system_body["failures"] > 0
    errors, failed = serve_load.check_responses(results, goals, 0, sample=0)
    assert failed == 3, errors


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class _Target:
    @staticmethod
    def outer():
        time.sleep(0.02)
        _Target.inner()

    @staticmethod
    def inner():
        time.sleep(0.03)

    @staticmethod
    async def waits():
        await asyncio.sleep(0.05)
        return 7


def test_self_time_excludes_child_spans_and_coroutine_waits():
    recorder = tracing.Recorder()
    module = __name__
    targets = (("outer", module, "_Target.outer"),
               ("inner", module, "_Target.inner"),
               ("waits", module, "_Target.waits"))
    recorder.install(targets)
    try:
        _Target.outer()
        assert asyncio.run(_Target.waits()) == 7
    finally:
        recorder.uninstall()
    layers = recorder.layers()
    assert layers["outer"]["calls"] == layers["inner"]["calls"] == 1
    assert 0.015 < layers["outer"]["self_s"] < 0.028
    assert layers["outer"]["total_s"] >= 0.05
    assert layers["waits"]["calls"] == 1
    assert layers["waits"]["self_s"] < 0.02
    (outer_span,) = [s for s in recorder.spans if s[1] == "outer"]
    (inner_span,) = [s for s in recorder.spans if s[1] == "inner"]
    assert inner_span[4] == outer_span[0]
    assert _Target.outer.__qualname__ == "_Target.outer"
