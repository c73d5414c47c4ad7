"""Load generation and output checks for the ``serve_mixed`` workload.

The daemon runs in its own process (``python -m repro serve``, or the
traced launcher); this process generates the requests from the workload
seed, drives them over keep-alive connections, and checks the answers
after the timed phases.  Two phases share one daemon:

* **open loop** -- seeded Poisson arrivals at a fixed rate.  Each request
  is timed from when it was *due*, so a stall also charges the requests
  queued behind it; how late the generator sent each one is recorded.
* **closed loop** -- each connection sends its next request only after
  the previous reply; completed requests per second is the capacity.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Formulas over a generated system's vocabulary (principals P1-P3,
#: keys K1-K3, nonces N1-N3, proposition p0).
FORMULAS = (
    "P1 believes p0",
    "P2 believes (P1 said N1)",
    "P1 sees N1",
    "P2 has K1",
    "fresh(N2)",
    "P3 said N1",
    "P1 says N3",
    "p0 -> P1 believes p0",
    "P1 <-K1-> P2",
    "P2 believes P1 <-K2-> P2",
    "~(P3 sees N2) | P3 has K3",
    "P1 believes fresh(N1)",
    "P3 believes (P2 has K2)",
)
ASSUMPTIONS = (
    {"P1": ["p0"]},
    {"P2": ["P1 has K1"]},
    {"P1": ["fresh(N1)"], "P2": ["p0"]},
    {"P3": ["P1 said N1"]},
)
STARTUP_TIMEOUT_S = 60.0
#: Fresh processes one output check may start to regenerate systems
#: whose verdicts did not match the first recomputation (see
#: :func:`check_responses`).
REGENERATIONS = 16


# ---------------------------------------------------------------------------
# Request streams
# ---------------------------------------------------------------------------


def protocol_goals() -> dict[tuple[str, str], dict[str, bool]]:
    """Each registered protocol's goals and whether they are expected to
    be derived, from the program's own analysis (outside any timing)."""
    from repro.analysis import analyze
    from repro.serve.daemon import _protocol_modules

    table = {}
    for name, module in sorted(_protocol_modules().items()):
        for logic in ("at", "ban"):
            protocol = (module.ban_protocol() if logic == "ban"
                        else module.at_protocol())
            table[(name, logic)] = {
                result.goal.label: result.goal.expected
                for result in analyze(protocol).goal_results
            }
    return table


def mixed_stream(seed: int, goals, mix: dict):
    """Cache-missing systems, assumption maps, the epistemic backend,
    traces and protocol requests, in the shares of ``mix`` (the
    workload's ``mix`` in ``spec.json``)."""
    rng = random.Random(f"serve-mixed-{seed}")
    specs = [
        {"seed": rng.randrange(1 << 30), "runs": rng.randint(2, 4),
         "steps": rng.randint(8, 16)}
        for _ in range(mix["working_set_systems"])
    ]
    pairs = sorted(goals)
    while True:
        if rng.random() < mix["protocol"]:
            name, logic = rng.choice(pairs)
            payload = {"kind": "protocol", "protocol": name, "logic": logic}
            if rng.random() < 0.5:
                label = rng.choice(sorted(goals[(name, logic)]))
                payload["goal"] = label
                # Only the reformulated logic's rules have axiomatic
                # certificates; certifying a BAN goal is a 400 by design.
                if (logic == "at" and goals[(name, logic)][label]
                        and rng.random() < 0.5):
                    payload["certify"] = True
            yield payload
            continue
        payload = dict(rng.choice(specs), kind="system",
                       formula=rng.choice(FORMULAS))
        if rng.random() < mix["assumption_maps"]:
            payload["assumptions"] = rng.choice(ASSUMPTIONS)
        if rng.random() < mix["epistemic"]:
            payload["backend"] = "epistemic"
        if rng.random() < mix["trace"]:
            payload["trace"] = True
        yield payload


#: Requests of the workload's own stream sent before timing.
WARMUP_REQUESTS = 20


def warmup_payloads(goals, stream) -> list[dict]:
    """Requests sent before timing: a few of the workload's own and the
    protocol analyses a long-lived daemon has long since cached."""
    return [next(stream) for _ in range(WARMUP_REQUESTS)] + [
        {"kind": "protocol", "protocol": name, "logic": logic}
        for name, logic in sorted(goals)]


# ---------------------------------------------------------------------------
# Daemon process
# ---------------------------------------------------------------------------


class Daemon:
    """One daemon process, started and stopped from here."""

    def __init__(self, trace_out: str | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        if trace_out:
            command = [sys.executable, os.path.join(HERE, "launcher.py"),
                       "--trace-out", trace_out, "serve", "--port", "0"]
        else:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"daemon did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)
        with self.client() as conn:
            while True:
                try:
                    status, _body = conn.get("/healthz")
                except OSError:
                    status = None
                if status == 200:
                    break
                if time.monotonic() - spawned > STARTUP_TIMEOUT_S:
                    self.stop()
                    raise RuntimeError("daemon never answered /healthz")
                time.sleep(0.005)
        self.setup_s = time.monotonic() - spawned

    def client(self):
        """A keep-alive client of this daemon."""
        from repro.serve.client import ServeClient

        return ServeClient(self.host, self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            with self.client() as conn:
                conn.request("POST", "/shutdown")
            self.process.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


# ---------------------------------------------------------------------------
# Load phases
# ---------------------------------------------------------------------------


def _digest(body) -> dict:
    """The parts of a response the checks and metrics need."""
    if not isinstance(body, dict):
        return {}
    keep = {key: body[key] for key in (
        "verdict", "failures", "failing_points", "good_runs",
        "all_as_expected") if key in body}
    keep["why_false"] = "why_false" in body
    certificate = body.get("certificate")
    if certificate is not None:
        keep["certificate_checked"] = certificate.get("checked") is True
    telemetry = body.get("telemetry") or {}
    keep["elapsed_ms"] = telemetry.get("elapsed_ms")
    perf = (telemetry.get("snapshot") or {}).get("perf") or {}
    keep["cache_peaks"] = perf.get("cache_peaks", {})
    return keep


def open_loop(daemon: Daemon, stream, rate: float, seconds: float,
              seed, connections: int) -> list[dict]:
    """Poisson arrivals seeded by ``seed``, at ``rate`` per second for
    ``seconds``, over ``connections`` connections."""
    rng = random.Random(f"arrivals-{seed}")
    offsets, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            break
        offsets.append(t)
    payloads = [next(stream) for _ in offsets]
    results: list[dict | None] = [None] * len(offsets)
    indices = itertools.count()
    start = time.perf_counter() + 0.05

    def worker():
        with daemon.client() as conn:
            while True:
                i = next(indices)
                if i >= len(offsets):
                    return
                due = start + offsets[i]
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                try:
                    status, body = conn.post_json("/analyze", payloads[i])
                except OSError:
                    status, body = None, None
                done = time.perf_counter()
                results[i] = {"payload": payloads[i], "status": status,
                              "due": due, "sent": sent, "done": done,
                              "body": _digest(body)}

    _run_threads(worker, connections)
    return results


def closed_loop(daemon: Daemon, stream, seconds: float,
                connections: int) -> tuple[list[dict], float]:
    """Each connection sends its next request after the previous reply.

    Returns the results and the phase's length in seconds (until the
    last reply)."""
    lock = threading.Lock()
    results: list[dict] = []
    start = time.perf_counter()
    deadline = start + seconds

    def worker():
        with daemon.client() as conn:
            while True:
                with lock:
                    payload = next(stream)
                sent = time.perf_counter()
                if sent >= deadline:
                    return
                try:
                    status, body = conn.post_json("/analyze", payload)
                except OSError:
                    status, body = None, None
                done = time.perf_counter()
                with lock:
                    results.append({"payload": payload, "status": status,
                                    "due": sent, "sent": sent, "done": done,
                                    "body": _digest(body)})

    _run_threads(worker, connections)
    return results, time.perf_counter() - start


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def backlog_max(results: list[dict]) -> int:
    """Most requests that were due but not yet answered at any instant."""
    events = sorted([(r["due"], 1) for r in results]
                    + [(r["done"], -1) for r in results])
    level = peak = 0
    for _t, step in events:
        level += step
        peak = max(peak, level)
    return peak


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def expected_system_verdict(payload: dict) -> dict:
    """Recompute a system request through the backend's interpreter; an
    assumption map goes through the naive good-runs construction."""
    from repro.goodruns import InitialAssumptions, construct_good_runs
    from repro.semantics.backend import get_backend
    from repro.soundness.generators import GeneratorConfig, generate_system
    from repro.terms.atoms import Principal
    from repro.terms.formulas import Believes
    from repro.terms.parser import parse_formula

    system = generate_system(GeneratorConfig(
        seed=payload["seed"], runs=payload["runs"],
        steps_per_run=payload["steps"],
        principals=payload.get("principals", 3)))
    backend = payload.get("backend", "belief")
    formula = parse_formula(payload["formula"], system.vocabulary)
    vector = None
    expected: dict = {}
    if payload.get("assumptions"):
        assignment = {}
        for name, texts in sorted(payload["assumptions"].items()):
            principal = Principal(name)
            assignment[principal] = tuple(
                Believes(principal, parse_formula(text, system.vocabulary))
                for text in texts)
        vector = construct_good_runs(
            system, InitialAssumptions.of(assignment), engine="naive",
            backend=backend).vector
        expected["good_runs"] = {p.name: sorted(names)
                                 for p, names in vector.entries}
    interpreter = get_backend(backend).interpreter(system, vector)
    failing = [{"run": run.name, "time": k} for run, k in system.points()
               if not interpreter.evaluate(formula, run, k)]
    expected.update(verdict=not failing, failures=len(failing),
                    failing_points=failing[:10])
    return expected


def verdict_in_fresh_process(payload: dict) -> dict:
    """:func:`expected_system_verdict` computed in a new interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--expect",
         json.dumps(payload)], cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(completed.stdout)


def check_responses(results: list[dict], goals, seed: int,
                    sample: int) -> tuple[list[str], int]:
    """Every answer is a 200 with a well-formed verdict; a seeded sample
    of distinct system requests is recomputed independently.

    ``generate_system`` does not give the same system for the same spec
    in every process, so the recomputation may have a different system
    than the daemon had.  A verdict that differs from it is therefore
    recomputed again in fresh processes, :data:`REGENERATIONS` at most
    in all, and fails only if it matches none of those systems' verdicts
    either.

    Returns the failures and how many requests they cover.
    """
    errors: list[str] = []
    bad: set[int] = set()

    def fail(index: int, message: str) -> None:
        bad.add(index)
        if len(errors) < 20:
            errors.append(f"request {index}: {message}")

    by_payload: dict[str, list[int]] = {}
    for index, result in enumerate(results):
        payload, body = result["payload"], result["body"]
        if result["status"] != 200:
            fail(index, f"status {result['status']}")
            continue
        if payload["kind"] == "protocol":
            key = (payload["protocol"], payload["logic"])
            if "goal" not in payload:
                if body.get("all_as_expected") is not True:
                    fail(index, f"{key} not all goals as expected")
            elif body.get("verdict") != goals[key][payload["goal"]]:
                fail(index, f"{key} goal {payload['goal']} verdict "
                            f"{body.get('verdict')}")
            if payload.get("certify") and not body.get("certificate_checked"):
                fail(index, f"{key} certificate not checked")
            continue
        if body.get("why_false") != bool(payload.get("trace")
                                         and body.get("failures")):
            fail(index, "why_false present/absent wrongly")
        by_payload.setdefault(json.dumps(payload, sort_keys=True),
                              []).append(index)

    keys = sorted(by_payload)
    rng = random.Random(f"serve-check-{seed}")
    regenerations = 0
    for key in rng.sample(keys, min(sample, len(keys))):
        payload = json.loads(key)
        answers = [expected_system_verdict(payload)]
        for index in by_payload[key]:
            body = results[index]["body"]
            got = {name: body.get(name) for name in answers[0]}
            while got not in answers and regenerations < REGENERATIONS:
                answers.append(verdict_in_fresh_process(payload))
                regenerations += 1
            if got not in answers:
                fail(index, f"{key}: verdict {got} differs from the "
                            f"interpreter's {answers[0]}")
    return errors, len(bad)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the interpreter's "
                                     "verdict for one system request.")
    parser.add_argument("--expect", required=True, metavar="PAYLOAD_JSON")
    print(json.dumps(expected_system_verdict(
        json.loads(parser.parse_args().expect))))
