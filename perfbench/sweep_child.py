"""One cold Theorem-1 sweep in a fresh process (the ``sweep`` workload).

Run by ``run.py``, never imported by it::

    python perfbench/sweep_child.py --seed S --index I \
        --spawned-at T [--trace-out PATH]

Generates one system per size of the ``sweep`` size mix in
``spec.json`` from ``(S, I)``, sweeps every axiom schema over them with
the compiled engine and ``workers=1``, then checks the result outside
the timed region.  Prints one JSON object on stdout.
``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn (the clock is system-wide), so set-up time covers interpreter
start, imports and generation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")



def _sizes() -> tuple[tuple[int, int], ...]:
    """(runs, steps per run) of every system in a child, stratified so
    that a seed changes which systems are generated (their content and
    order) but not how large they are."""
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        mix = json.load(handle)["workloads"]["sweep"]["size_mix"]
    return tuple((runs, steps) for runs in mix["runs"]
                 for steps in mix["steps_per_run"])


SIZES = _sizes()
#: Schemas re-checked per child with the interpreted engine.
INTERPRETED_SAMPLE = 2


def system_configs(seed: int, index: int):
    """The seeded generator configs of one child's systems."""
    from repro.soundness.generators import GeneratorConfig

    rng = random.Random(f"sweep-{seed}-{index}")
    order = list(SIZES)
    rng.shuffle(order)
    return [GeneratorConfig(seed=rng.randrange(1 << 30), runs=runs,
                            steps_per_run=steps)
            for runs, steps in order]


def check(seed: int, index: int, systems, reports) -> tuple[list[str], int]:
    """Output checks: Theorem 1 (no violations), per-schema instance
    counts against :mod:`instance_counts`, and a seeded sample of schemas
    re-checked with the interpreted engine.

    Returns the failures and the number of schema instances they cover.
    """
    from instance_counts import expected_counts
    from repro.logic.axioms import AXIOMS
    from repro.soundness import sweep

    errors, failed = [], 0
    for number, (system, report) in enumerate(zip(systems, reports)):
        if report.total_violations:
            errors.append(f"system {number}: {report.total_violations} "
                          "violations of Theorem 1")
            failed += report.total_violations
        for name, expected in expected_counts(system).items():
            row = report.per_schema.get(name)
            got = row.instances if row else 0
            if got != expected:
                errors.append(f"system {number} {name}: "
                              f"{got} instances, expected {expected}")
                failed += max(got, expected)
    rng = random.Random(f"sweep-check-{seed}-{index}")
    number = rng.randrange(len(systems))
    names = rng.sample(sorted(AXIOMS), INTERPRETED_SAMPLE)
    schemas = tuple(AXIOMS[name] for name in names)
    reference = sweep.sweep_system(systems[number], schemas=schemas,
                                   engine="interpreted")
    for name in names:
        want = reference.schema_report(name)
        got = reports[number].schema_report(name)
        if (got.instances, got.points_checked, len(got.violations)) != (
                want.instances, want.points_checked, len(want.violations)):
            errors.append(f"system {number} {name}: compiled and "
                          "interpreted engines disagree")
            failed += got.instances
    return errors, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.Recorder()
        recorder.install(tracing.SWEEP_TARGETS)
    from repro.soundness import generators, sweep

    systems = [generators.generate_system(config)
               for config in system_configs(args.seed, args.index)]
    started = time.monotonic()
    reports, system_s = [], []
    for system in systems:
        begin = time.perf_counter()
        reports.append(sweep.sweep_system(system))
        system_s.append(time.perf_counter() - begin)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()
        from repro import perf

        snapshot = perf.snapshot()
        recorder.dump(args.trace_out)
    else:
        snapshot = None

    errors, failed = check(args.seed, args.index, systems, reports)
    print(json.dumps({
        "setup_s": started - args.spawned_at,
        "system_s": system_s,
        "instances": sum(r.total_instances for r in reports),
        "rss_mb": rss_mb,
        "errors": errors,
        "failed": failed,
        "perf": snapshot,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
