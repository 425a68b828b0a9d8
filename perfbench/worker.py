"""One cold round of one workload, in a fresh interpreter.

Usage: python3 -S perfbench/worker.py WORKLOAD SEED TRACE SPANS_FILE

Run from the root of a checkout. The package is imported from ``src/`` of that
checkout and nowhere else. The round builds its inputs, runs the timed phase
(traced when TRACE is 1), checks every answer against the reference code and
prints one JSON object on its last line of output. ``setup_end`` in that
object is a CLOCK_MONOTONIC reading taken just before the first timed call,
so the parent can measure set-up from before it started this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import oddmaps from this checkout's src/ only; fail if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "oddmaps", "__init__.py")):
        raise SystemExit(f"no oddmaps package under {SRC}")
    sys.path.insert(0, SRC)
    import oddmaps
    import oddmaps.cli

    if not os.path.abspath(oddmaps.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported oddmaps from {oddmaps.__file__}, not {SRC}")
    return oddmaps


def main(argv):
    workload, seed, trace, spans_file = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    make, run, check = WORKLOADS[workload]
    # enumerate asks for n above the CLI's default sweep cap of 40.
    os.environ["ODDMAPS_MAX_N"] = "64"
    om = import_package()
    inputs = make(seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(om)
    setup_end = time.monotonic()
    t0 = time.perf_counter()
    outputs = run(om, inputs)
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(wall)
        tracer.write_spans(spans_file)
    attempted, failed = check(inputs, outputs)
    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
