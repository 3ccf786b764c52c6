"""Measured process of the benchmark, and the separate input generator.

``run`` sets up one workload (imports, BLAS start-up, model construction),
then drives it as a closed loop with one client until its time budget is
spent, checks every iteration outside the timed calls, and prints one JSON
line with the per-iteration figures.  With ``--trace 1`` it also records
spans around mclkit's public functions and writes them out at the end.

``generate`` writes a workload's ``.mcld`` inputs for one seed.  It runs in
its own process so the generator's memory peak never reaches the measured
process.

    python3 perfbench/worker.py generate --workload W --seed N --size S --out DIR
    python3 perfbench/worker.py run --workload W --seed N --size S --budget SEC \
        --trace 0|1 --inputs DIR --run-dir DIR [--trace-out FILE] [--setup-only]

mclkit is imported from the ``src`` directory of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import mclkit

    if not Path(mclkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"mclkit resolved to {mclkit.__file__}, not to {SRC}")
    return mclkit


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _blas_info(np):
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except Exception:  # older numpy: no dict mode
        pass
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(np) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "threads_env": {v: os.environ.get(v) for v in (
            "MCLKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def generate(args) -> int:
    _import_library()
    from workloads import WORKLOADS

    out = Path(args.out)
    WORKLOADS[args.workload].generate(args.seed, args.size, out)
    (out / "complete").write_text("ok\n")
    return 0


def run(args) -> int:
    mclkit = _import_library()
    import numpy as np

    tracer = None
    if args.trace:
        from tracer import Tracer, instrument, iteration_metrics

        tracer = Tracer()
        instrument(tracer, mclkit)
    from workloads import WORKLOADS, Ops

    warm = np.ones((128, 128), dtype=np.float32)
    warm @ warm  # start the BLAS thread pool
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, Path(args.inputs), run_dir)

    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_call_monotonic": first_call}))
        return 0
    deadline = first_call + args.budget
    iterations, loop_seconds = [], []
    attempted = failed = 0
    failures: list[str] = []
    while True:
        ops = Ops(tracer)
        lo = 0
        if tracer is not None:
            tracer.reset_counters()
            lo = len(tracer)
        started = time.monotonic()
        try:
            extra = workload.run_iteration(ops)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            if not ops.raised:
                ops.attempted += 1
                ops.failed += 1
                ops.failures.append(f"error: {exc!r}")
            extra = None
        attempted += ops.attempted
        failed += ops.failed
        failures += ops.failures
        if extra is None:
            break
        record = {
            "wall_s": ops.wall_s,
            "cpu_s": ops.cpu,
            "io_s": ops.wall["io"],
            "teacher_s": ops.wall["teacher"],
            "student_s": ops.wall["student"],
            **extra,
        }
        if tracer is not None:
            record["layers"] = iteration_metrics(tracer, lo, len(tracer), ops.wall_s)
        iterations.append(record)
        loop_seconds.append(time.monotonic() - started)
        # closed loop: start another iteration only if it should end near the deadline
        if time.monotonic() + 0.5 * statistics.median(loop_seconds) >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out)
    print(json.dumps({
        "first_call_monotonic": first_call,
        "iterations": iterations,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "env": environment(np),
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("generate", "run"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--size", default="bench", choices=["bench", "tiny"])
    p = sub.choices["generate"]
    p.add_argument("--out", required=True)
    p = sub.choices["run"]
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--inputs", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true",
                   help="stop at the first timed call (set-up time sample)")
    args = parser.parse_args(argv)
    return generate(args) if args.mode == "generate" else run(args)


if __name__ == "__main__":
    sys.exit(main())
