"""mclkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk_ablation --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Inputs are generated from ``--seed`` in a
separate process and cached under ``.perfbench_work/``.  The workload then
runs as a closed loop with one client in fresh worker processes, one after
another, for ``--seconds`` in total.  Each process sets up once; a few more
processes only set up, so ``setup_s`` is a median over several set-ups.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced processes together with the tracing overhead (traced minus
untraced ``wall_s``, from untraced processes run alternately in the same
run).  ``--workload all`` runs every workload in turn.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
PROCESSES = 3  # untraced run: worker processes that run the closed loop
SETUP_PROBES = 4  # extra processes that only set up, for more set-up samples
TRACE_PLAN = (False, True, False, True)  # traced run: alternate untraced / traced
GENERATE_TIMEOUT = 300
WORKER_SLACK = 60  # seconds a worker may run past its budget before it is killed


class BenchError(RuntimeError):
    pass


def _unit(name: str) -> str:
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("gbytes"):
        return "GB"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "coverage", "accuracy")):
        return "ratio"
    return "count"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _inputs(workload: str, seed: int, size: str) -> Path:
    out = WORK / "inputs" / f"{workload}-{size}-seed{seed}"
    if (out / "complete").is_file():
        return out
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), "generate", "--workload", workload,
           "--seed", str(seed), "--size", size, "--out", str(out)]
    if subprocess.run(cmd, timeout=GENERATE_TIMEOUT).returncode != 0:
        shutil.rmtree(out, ignore_errors=True)
        raise BenchError(f"input generation failed for {workload} seed {seed}")
    return out


def _worker(workload, seed, size, budget, traced, inputs, index, setup_only=False) -> dict:
    run_dir = WORK / "run" / f"{workload}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [sys.executable, str(WORKER), "run", "--workload", workload, "--seed", str(seed),
           "--size", size, "--budget", f"{budget:.3f}", "--trace", str(int(traced)),
           "--inputs", str(inputs), "--run-dir", str(run_dir)]
    if traced:
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{workload}-seed{seed}-proc{index}.npz")]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=budget + WORKER_SLACK)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker {index} did not finish in time")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker {index} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_call_monotonic"] - spawned
    result["traced"] = traced
    return result


def _throughputs(it: dict) -> dict:
    out = {}
    if "train_seconds" in it:
        out["train_samples_per_s"] = it["train_samples"] / it["train_seconds"]
    if "infer_seconds" in it:
        out["infer_samples_per_s"] = it["infer_samples"] / it["infer_seconds"]
        out["knn_queries_per_s"] = it["knn_queries"] / it["knn_seconds"]
    # one throughput every workload has: training samples where it trains,
    # inference samples where it only runs forward passes
    out["samples_per_s"] = out.get("train_samples_per_s", out.get("infer_samples_per_s"))
    return out


def _end_to_end(results, setups) -> tuple[dict, dict]:
    """Metric values (medians) and their sample notes."""
    iters = [it for r in results for it in r["iterations"]]
    series = {name: [it[name] for it in iters]
              for name in ("wall_s", "cpu_s", "teacher_s", "student_s", "io_s")}
    for it in iters:
        for name, value in _throughputs(it).items():
            series.setdefault(name, []).append(value)
    series["test_accuracy"] = [it["test_accuracy"] for it in iters]
    values = {name: statistics.median(v) for name, v in series.items()}
    notes = {}
    for name, v in series.items():
        lo, hi = _quartiles(v)
        notes[name] = f"median of {len(v)} iterations, quartiles {lo:.4g}..{hi:.4g}"
    procs = len(results)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    notes["setup_s"] = f"median of {len(setups)} processes"
    notes["peak_rss_mb"] = f"median of {procs} processes"
    return values, notes


def _per_layer(results) -> tuple[dict, dict]:
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    layer_iters = [it["layers"] for r in traced for it in r["iterations"]]
    values = {name: statistics.median(it[name] for it in layer_iters)
              for name in layer_iters[0]}
    traced_wall = statistics.median(it["wall_s"] for r in traced for it in r["iterations"])
    plain_wall = statistics.median(it["wall_s"] for r in plain for it in r["iterations"])
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / plain_wall
    notes = {name: f"median of {len(layer_iters)} traced iterations" for name in values}
    notes["trace.overhead_s"] = (f"traced wall_s {traced_wall:.4f} s minus untraced "
                                 f"wall_s {plain_wall:.4f} s")
    return values, notes


def _print_env(env: dict) -> None:
    blas = env["blas"]
    cache = " ".join(f"{k} {v}" for k, v in env["cache"].items()) or "unknown"
    threads = " ".join(f"{k}={v if v is not None else 'unset'}"
                       for k, v in env["threads_env"].items())
    print(f"  env: nproc {env['nproc']} (affinity {env['affinity']}) | cpu {env['cpu_model']}"
          f" | cache {cache}")
    print(f"  env: python {env['python']} | numpy {env['numpy']} | blas {blas['name']} "
          f"{blas['version']}, {blas['threads']} threads | {threads}")


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> bool:
    inputs = _inputs(workload, seed, size)
    plan = TRACE_PLAN if trace else (False,) * PROCESSES
    deadline = time.monotonic() + seconds
    results = []
    for i, traced in enumerate(plan):
        # share what is left of the run among the workers still to come
        budget = max((deadline - time.monotonic()) / (len(plan) - i), 0.0)
        results.append(_worker(workload, seed, size, budget, traced, inputs, i))
    setups = [r["setup_s"] for r in results]
    if not trace:
        setups += [_worker(workload, seed, size, 0, False, inputs, len(plan) + i,
                           setup_only=True)["setup_s"] for i in range(SETUP_PROBES)]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = sorted({f for r in results for f in r["failures"]})
    correct = failed == 0 and all(r["iterations"] for r in results)
    if not all(any(r["iterations"] for r in results if r["traced"] == t) for t in set(plan)):
        raise BenchError(f"{workload}: no iteration completed; failed: {failures}")

    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"size={size}: {len(plan)} processes, "
          f"{sum(len(r['iterations']) for r in results)} iterations (closed loop, one client)")
    _print_env(results[0]["env"])
    if trace:
        values, notes = _per_layer(results)
        declared = spec["per_layer"]
    else:
        values, notes = _end_to_end(results, setups)
        values["ops_failed_ratio"] = failed / attempted if attempted else 0.0
        notes["ops_failed_ratio"] = f"{failed} failed of {attempted} operations"
        notes["test_accuracy"] += " (sanity field, not gated)"
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(values):
        mark = "*" if name in units else " "
        unit = units.get(name, _unit(name))
        print(f"  {mark} {name:42s} {values[name]:14.6g} {unit:8s} {notes.get(name, '')}")
    print("  (* = metric in BENCHMARK.json; FLOPs and bytes are computed from call shapes)")
    if failures:
        print(f"  failed operations: {', '.join(failures)}")
    missing = [name for name in units if name not in values]
    if missing:
        raise BenchError(f"{workload}: no value for declared metrics {missing}")
    if trace:
        summary = WORK / "traces" / f"{workload}-seed{seed}-summary.json"
        summary.write_text(json.dumps({"values": values, "notes": notes}, indent=1,
                                      sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["bench", "tiny"], default="bench",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mclkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no mclkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    ok = True
    try:
        for workload in chosen:
            ok &= run_workload(spec, workload, args.seed, args.seconds, bool(args.trace),
                               args.size)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
