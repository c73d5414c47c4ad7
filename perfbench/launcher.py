"""Start ``repro serve`` with the benchmark's span wrappers installed.

The traced counterpart of ``python -m repro serve``::

    python perfbench/launcher.py --trace-out PATH serve --port 0

installs :data:`tracing.SERVE_TARGETS`, runs the program's own CLI with
the remaining arguments, and writes the recorded spans to ``PATH`` once
the daemon has shut down.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args, rest = parser.parse_known_args()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import tracing

    recorder = tracing.Recorder()
    recorder.install(tracing.SERVE_TARGETS)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(rest)
    finally:
        recorder.uninstall()
        recorder.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
