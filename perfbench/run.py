"""sevtriage benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-415 --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the same untraced work, then makes one traced
pass, and reports the per-layer metrics, including the tracing overhead
(the traced pass minus the median time of the same work untraced); its
spans go to ``.perfbench_work/results/``.

The workloads BENCHMARK.json lists are the gated ones; ``wide-1000`` can
also be run by hand (see ``workloads.py``).

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result. Every run checks
the outputs and exits 1, after printing its result, when a check fails.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")



def _pin_blas() -> int:
    """Pin BLAS to one thread, before numpy loads.

    The program then runs as one thread, which leaves the timings less
    exposed to other tenants of a shared host; on a 2-vCPU Xeon a second
    BLAS thread made wide-1000's two commands no faster (43 s against 41 s).
    """
    threads = 1
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def _openblas_threads():
    """Thread count OpenBLAS reports, or None when its library is not found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "blas_threads_pinned": threads,
        "blas_threads_reported": _openblas_threads(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the measured passes run, at least one pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "sevtriage" / "__init__.py").is_file():
        print(f"error: no sevtriage package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    threads = _pin_blas()
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import sevtriage
    import workloads

    import_s = time.perf_counter() - t0
    if Path(sevtriage.__file__).resolve().parent != SRC / "sevtriage":
        print(f"error: imported sevtriage from {sevtriage.__file__}, not {SRC}", file=sys.stderr)
        return 2

    args = _parse_args(argv, workloads.WORKLOADS)
    env = _environment(threads)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)  # left by an earlier run that was killed
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    outcome.metrics["error_frac"] = (error_frac, "ratio", f"{outcome.failed} failed of {outcome.attempted} attempted")
    outcome.check("error_frac is 0", outcome.failed == 0 and outcome.attempted > 0)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, note) in outcome.metrics.items():
        print(f"  {name:<22} {value:>14.6f} {unit:<7} {note}")
    for name, (value, unit) in outcome.per_layer.items():
        print(f"  {name:<32} {value:>14.6f} {unit}")
    for name in outcome.missing_trace_points:
        print(f"  trace point missing: {name}")
    for name, ok, detail in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())

    if args.trace:
        outcome.tracer.write(results / f"spans-{tag}.jsonl")
    # the result line carries exactly the metrics BENCHMARK.json declares for this mode
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    source = outcome.per_layer if args.trace else {k: (v, u) for k, (v, u, _) in outcome.metrics.items()}
    reported = {
        m["name"]: {"value": source[m["name"]][0], "unit": source[m["name"]][1]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in outcome.metrics.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in outcome.per_layer.items()},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in outcome.checks],
        "missing_trace_points": outcome.missing_trace_points,
    }
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": reported,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
