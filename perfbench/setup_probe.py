"""One fresh-interpreter set-up of a workload, for the `setup_s` metric.

Imports gyrosurf with its command line, then builds the workload's charts,
models, scenario configs and set-up trajectories, and prints one JSON line
with the two phases in milliseconds and the CLOCK_MONOTONIC reading when
the build ended.  run.py starts this script several times and takes each
set-up time from just before it starts the process to that reading, so
interpreter start-up counts and tear-down does not.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch-dir>
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import gyrosurf.cli  # noqa: E402,F401

_IMPORTED = time.perf_counter()

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, outdir = argv[0], int(argv[1]), argv[2]
    os.makedirs(outdir, exist_ok=True)
    workloads.WORKLOADS[name](seed, outdir)
    built = time.perf_counter()
    print(json.dumps({"import_ms": (_IMPORTED - _START) * 1e3,
                      "build_ms": (built - _IMPORTED) * 1e3,
                      "built_at": time.clock_gettime(time.CLOCK_MONOTONIC)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
