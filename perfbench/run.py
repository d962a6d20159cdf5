"""gyrosurf benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src` directory.  Workloads are in workloads.py, the traced per-layer run in
layers.py, and the metric definitions in README.md beside this file.

With --trace 0 the run repeats rounds of the workload's items for --seconds
(at least 3 rounds and 100 items) and reports the end-to-end metrics.  With
--trace 1 it reports the per-layer metrics instead: layer timings under
spans, call counts through counting proxies, and the tracing overhead as
traced minus untraced round time.  Either way every item's output is checked
and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Working files go to .perfbench_out/ in the checkout.
"""

import os
import sys

# Pin native thread pools before numpy loads; record what was inherited.
INHERITED_THREADS = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS",
                                                    "OPENBLAS_NUM_THREADS")}
for _key in INHERITED_THREADS:
    os.environ[_key] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "checks_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 5
MIN_ROUNDS = 3
MIN_ITEMS = 100
# stop starting rounds here, so a much slower program still exits in time
ROUND_DEADLINE_S = 100.0
TAIL_LADDER = (99.9, 99.0, 90.0)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "gyrosurf", "__init__.py")):
        _fail(f"no gyrosurf sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import gyrosurf
    if not os.path.abspath(gyrosurf.__file__).startswith(SRC + os.sep):
        _fail(f"imported gyrosurf from {gyrosurf.__file__}, not {SRC}")


def environment() -> dict:
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "thread_env_inherited": INHERITED_THREADS,
        "thread_env_pinned": {k: os.environ[k] for k in INHERITED_THREADS},
    }


def measure_setup(workload: str, seed: int, scratch: str) -> list[dict]:
    """Time SETUP_PROBES fresh interpreters that import and build."""
    probes = []
    for k in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        # a fresh directory each time: rewriting files would time ext4
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed), os.path.join(scratch, str(k))],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["setup_s"] = probe["built_at"] - start
        probes.append(probe)
    shutil.rmtree(scratch, ignore_errors=True)
    return probes


def _no_span(name, item=None):
    return contextlib.nullcontext()


def run_round(items, span, round_no: int, records: list) -> dict:
    """One pass over the items; only the calls into gyrosurf are timed."""
    from workloads import Verdict
    summary = {"seconds": 0.0, "steps": 0, "checks": 0}
    for i, item in enumerate(items):
        result = error = None
        with span(item.name, item=f"{round_no}.{i}"):
            with span(item.layer):
                start = time.perf_counter()
                try:
                    result = item.call()
                except Exception as exc:  # an item that raises has failed
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
        if error is None:
            try:
                verdict = item.check(result)
            except Exception as exc:
                verdict = Verdict(checks=1,
                                  failure=f"check raised {exc!r}")
        else:
            verdict = Verdict(checks=1, failure=error)
        records.append({"round": round_no, "item": item.name,
                        "seconds": elapsed, "steps": verdict.steps,
                        "checks": verdict.checks, "failure": verdict.failure})
        summary["seconds"] += elapsed
        summary["steps"] += verdict.steps
        summary["checks"] += verdict.checks
    return summary


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return max(0.0, math.floor(100.0 * (1.0 - 10.0 / n))) if n > 10 else 50.0


def end_to_end(items, seconds: float, probes: list[dict]):
    records, rounds = [], []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(items, _no_span, len(rounds), records))
        elapsed = time.perf_counter() - start
        if elapsed >= ROUND_DEADLINE_S or (
                elapsed >= seconds and len(rounds) >= MIN_ROUNDS
                and len(records) >= MIN_ITEMS):
            break
    item_ms = [r["seconds"] * 1e3 for r in records]
    p = tail_percentile(len(item_ms))
    values = {
        "setup_s": statistics.median(pr["setup_s"] for pr in probes),
        "wall_s": statistics.median(r["seconds"] for r in rounds),
        "steps_per_s": statistics.median(r["steps"] / r["seconds"]
                                         for r in rounds),
        "checks_per_s": statistics.median(r["checks"] / r["seconds"]
                                          for r in rounds),
        "item_ms.p50": statistics.median(item_ms),
        "item_ms.tail": float(np.percentile(item_ms, p)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(probes)} fresh interpreters",
        "wall_s": f"median of {len(rounds)} rounds of {len(items)} items",
        "steps_per_s": f"median over {len(rounds)} rounds",
        "checks_per_s": f"median over {len(rounds)} rounds",
        "item_ms.p50": f"n={len(item_ms)}",
        "item_ms.tail": f"p{p:g}, n={len(item_ms)}, "
                        f"{int(len(item_ms) * (100 - p) / 100)} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    extra = {"tail_percentile": p, "item_samples": len(item_ms),
             "rounds": rounds, "notes": notes}
    return metrics, records, extra


def traced(items, seed: int, seconds: float, probes: list[dict],
           files: str, outdir: str):
    import layers
    tracer = layers.Tracer()
    layer_run = layers.LayerRun(tracer, layers.Fixtures(seed, files))
    values = layer_run.run_all()
    values["cli.import_ms"] = (
        statistics.median(pr["import_ms"] for pr in probes), "ms")

    # tracing overhead: pairs of plain and traced rounds of the workload,
    # alternating which goes first so drift in machine speed cancels
    records, plain, spanned = [], [], []
    start = time.perf_counter()
    while len(plain) < 2 or (time.perf_counter() - start
                             < min(seconds / 2.0, ROUND_DEADLINE_S)):
        round_no = len(plain)
        for traced_round in (round_no % 2 == 1, round_no % 2 == 0):
            if traced_round:
                with tracer.span("workload.round", item=f"round.{round_no}"):
                    spanned.append(run_round(items, tracer.span, round_no,
                                             records)["seconds"])
            else:
                plain.append(run_round(items, _no_span, round_no,
                                       records)["seconds"])
    base = statistics.median(plain)
    values["trace.overhead_pct"] = (
        (statistics.median(spanned) - base) / base * 100.0, "%")

    metrics = {name: {"value": v, "unit": unit}
               for name, (v, unit) in sorted(values.items())}
    extra = {"roadmap_cross_check": layers.roadmap_cross_check(values),
             "untraced_round_s": plain, "traced_round_s": spanned}
    with open(os.path.join(outdir, "spans.json"), "w",
              encoding="utf-8") as fh:
        json.dump(tracer.records(), fh)
    return metrics, records, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")
    env = environment()
    print(json.dumps({"environment": env}), file=sys.stderr)

    outdir = os.path.join(ROOT, ".perfbench_out",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    files = os.path.join(outdir, "files")
    os.makedirs(files)

    probes = measure_setup(args.workload, args.seed,
                           os.path.join(outdir, "probe"))
    items = workloads.WORKLOADS[args.workload](args.seed, files)
    if args.trace:
        metrics, records, extra = traced(items, args.seed, args.seconds,
                                         probes, files, outdir)
    else:
        metrics, records, extra = end_to_end(items, args.seconds, probes)

    failures = [r for r in records if r["failure"]]
    for r in failures:
        print(f"FAILED round {r['round']} {r['item']}: {r['failure']}",
              file=sys.stderr)
    for row in extra.get("roadmap_cross_check", ()):
        print("cross-check %-36s %10.1f us  ROADMAP %6.1f us  ratio %.2f"
              % (row["metric"], row["measured_us"], row["roadmap_us"],
                 row["ratio"]), file=sys.stderr)
    with open(os.path.join(outdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "environment": env,
                   "setup_probes": probes, "metrics": metrics,
                   "failures": failures, "items": records, **extra},
                  fh, indent=1)
    shutil.rmtree(files, ignore_errors=True)

    notes = extra.get("notes", {})
    print(f"gyrosurf benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} "
              f"{notes.get(name, '')}")
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
