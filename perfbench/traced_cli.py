"""``normplane`` CLI with the benchmark's per-layer wrappers installed.

Usage: python3 perfbench/traced_cli.py TRACE_JSON <normplane arguments...>

Times the import of normplane.cli, installs the wrappers, runs
``normplane.cli.main`` on the remaining arguments and writes the spans and
the per-layer metrics to TRACE_JSON when the command ends.
"""

from __future__ import annotations

import sys
import time

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import normplane.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer().install()
    tracer.op = 0
    try:
        return normplane.cli.main(argv)
    finally:
        metrics = tracer.metrics()
        metrics["cli.import_s"] = import_s
        tracer.dump(trace_path, metrics)


if __name__ == "__main__":
    sys.exit(main())
