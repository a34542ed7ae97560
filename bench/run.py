"""Benchmark of nlvtest: closed-loop workloads through its public entry points.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-counting --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

One client in one process, with no extra threads, sends one op at a time
(see workloads.py) for ``--seconds`` seconds and checks every output against
its oracle afterwards.  With ``--trace 0`` the last line of stdout is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see tracing.py), whose traced rounds
alternate with untraced ones to price the tracing and to check that
outputs do not change.  End-to-end timings are CPU times scaled to a
reference host speed measured beside every op (see refspeed.py).  The line before it,
``record {...}``, holds what a reader needs to trust the numbers: versions,
CPU count, git SHA, seed, op counts, a drift probe and the unscaled timings.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import refspeed
import tracing
import workloads

# One client in one process with no extra threads: numpy's OpenBLAS would
# otherwise start a worker thread, whose CPU time the op timings would miss
# or whose spinning they would count.  Set before numpy is first imported;
# set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}
# Set-up time varies by about 25% between interpreter launches; the metric
# is the median of this many.
SETUP_LAUNCHES = 7
# Reference kernel runs before the timed ops, which the first runs of a
# process would otherwise time slow.
KERNEL_WARMUP = 20

# Set-up and op times are CPU times of the benchmark's one thread (see
# refspeed.py for why).
_SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
start = time.process_time()
import nlvtest, nlvtest.cli
workloads.build({name!r}, {seed!r}, nlvtest)
print(time.process_time() - start)
"""
_NUMPY_PROBE = """
import time
start = time.process_time()
import numpy
print(time.process_time() - start)
"""


def import_nlvtest():
    """Import nlvtest from this checkout's sources, never from elsewhere."""
    init = SRC / "nlvtest" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of an nlvtest checkout")
    sys.path.insert(0, str(SRC))
    import nlvtest
    import nlvtest.cli  # noqa: F401  (binds nlvtest.cli)

    if Path(nlvtest.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported nlvtest from {nlvtest.__file__}, not {init}")
    return nlvtest


def setup_seconds(name: str, seed: int, launches: int = SETUP_LAUNCHES):
    """Time to import nlvtest.cli and build the inputs, in fresh interpreters.

    Returns the median time unscaled, the median time scaled to the
    reference speed, and the launches' unscaled times.  Each launch
    alternates with a fresh interpreter that imports numpy alone; the
    scale is ``refspeed.NUMPY_IMPORT_REFERENCE_S`` over their median time.
    """
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    times, numpy_times = [], []
    for _ in range(launches):
        for probe, out in ((code, times), (_NUMPY_PROBE, numpy_times)):
            out.append(float(subprocess.run(
                [sys.executable, "-c", probe], cwd=ROOT, check=True,
                capture_output=True, text=True, timeout=120).stdout))
    raw = statistics.median(times)
    return raw, raw * refspeed.NUMPY_IMPORT_REFERENCE_S / statistics.median(numpy_times), times


def drift_probe_ms() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def run_round(nlv, ops, deadline: float = math.inf, cpu: list[tuple[float, float]] | None = None):
    """Run ``ops`` one at a time, stopping early once the perf_counter
    time ``deadline`` passes; returns their outcomes and wall latencies in s.
    Given a list ``cpu``, a reference kernel runs before each op, and the
    CPU seconds of the kernel and of the op are appended there as a pair."""
    outcomes, latencies = [], []
    for op in ops:
        kernel = refspeed.kernel_seconds() if cpu is not None else 0.0
        t0, c0 = time.perf_counter(), time.process_time()
        outcomes.append(workloads.execute(op, nlv))
        c1, t1 = time.process_time(), time.perf_counter()
        if cpu is not None:
            cpu.append((kernel, c1 - c0))
        latencies.append(t1 - t0)
        if t1 >= deadline:
            break
    return outcomes, latencies


def measure(name: str, seed: int, seconds: float, nlv, setup_launches: int = SETUP_LAUNCHES):
    """End-to-end run: returns (result, record).

    The op list runs round after round for ``seconds``; the first
    round always completes, and every later round must repeat its outputs.
    Timings are scaled to the reference speed op by op.
    """
    setup_raw, setup, setup_samples = setup_seconds(name, seed, setup_launches)
    warmup, ops = workloads.build(name, seed, nlv)
    warm_out, _ = run_round(nlv, warmup)
    for _ in range(KERNEL_WARMUP):
        refspeed.kernel_seconds()
    gc.collect()
    cpu: list[tuple[float, float]] = []
    start = time.perf_counter()
    outcomes, latencies = run_round(nlv, ops, cpu=cpu)
    runs = [1] * len(ops)
    changed = [False] * len(ops)
    while time.perf_counter() < start + seconds:
        outs, lats = run_round(nlv, ops, start + seconds, cpu)
        latencies += lats
        for i, out in enumerate(outs):
            runs[i] += 1
            changed[i] = changed[i] or out != outcomes[i]

    reasons = [r or ("output changed between rounds" if c else None)
               for r, c in zip(workloads.judge(name, ops, outcomes), changed)]
    warm_reasons = workloads.judge(name, warmup, warm_out, warmup=True)
    failed_timed = sum(n for n, r in zip(runs, reasons) if r)
    attempted = len(latencies) + len(warmup)
    failed = failed_timed + sum(r is not None for r in warm_reasons)
    raw_ms = [t * 1e3 for t in latencies]
    kernel_s = [k for k, _ in cpu]
    lat_ms = [c * 1e3 * s for (_, c), s in zip(cpu, refspeed.scales(kernel_s))]
    p90 = _p90(lat_ms)
    values = {
        "setup_s": setup,
        "ops_per_s": (len(latencies) - failed_timed) / (sum(lat_ms) / 1e3),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    record = {
        "setup_s_samples": setup_samples,
        "unscaled": {"setup_s": setup_raw,
                     "ops_per_s": (len(latencies) - failed_timed) / sum(latencies),
                     "op_ms.p50": statistics.median(raw_ms), "op_ms.p90": _p90(raw_ms),
                     "kernel_ms.p50": statistics.median(kernel_s) * 1e3,
                     "cpu_over_wall": sum(c for _, c in cpu) / sum(latencies)},
        "ops": {"warmup": len(warmup), "distinct": len(ops), "runs": len(latencies),
                **Counter(op.kind for op in ops)},
        "rounds": {"min": min(runs), "max": max(runs)},
        "op_ms.p90_samples_beyond": sum(x > p90 for x in lat_ms),
        "failures": [r for r in reasons + warm_reasons if r is not None][:5],
    }
    result = _result(failed == 0, attempted, failed,
                     {k: (v, END_TO_END[k]) for k, v in values.items()})
    return result, record


def measure_traced(name: str, seed: int, seconds: float, nlv):
    """Traced rounds of the op list, each followed by an untraced round of
    the same ops, for about ``seconds``: returns (result, record)."""
    warmup, ops = workloads.build(name, seed, nlv)
    warm_out, _ = run_round(nlv, warmup)
    gc.collect()
    tracer = tracing.Tracer()
    traced_s = untraced_s = 0.0
    outcomes = None
    changed = [False] * len(ops)
    start = time.perf_counter()
    for pairs in itertools.count(1):
        with tracer:
            traced, latencies = run_round(nlv, ops)
        traced_s += sum(latencies)
        untraced, latencies = run_round(nlv, ops)
        untraced_s += sum(latencies)
        outcomes = outcomes or traced
        changed = [c or a != o or b != o for c, a, b, o in zip(changed, traced, untraced, outcomes)]
        if (time.perf_counter() - start) * (pairs + 1) / pairs > seconds:
            break
    metrics = tracer.metrics(pairs * len(ops), traced_s, untraced_s)

    reasons = [r or ("traced output differs from untraced" if c else None)
               for r, c in zip(workloads.judge(name, ops, outcomes), changed)]
    warm_reasons = workloads.judge(name, warmup, warm_out, warmup=True)
    attempted = 2 * pairs * len(ops) + len(warmup)
    failed = (2 * pairs * sum(r is not None for r in reasons)
              + sum(r is not None for r in warm_reasons))
    record = {
        "ops": {"warmup": len(warmup), "distinct": len(ops), "traced_rounds": pairs,
                **Counter(op.kind for op in ops)},
        "traced_s": traced_s,
        "layer_self_s": tracer.self_seconds(),
        "untimed": list(tracing.UNTIMED),
        "failures": [r for r in reasons + warm_reasons if r is not None][:5],
    }
    # layer self times plus the driver remainder make up the traced time;
    # a negative remainder would mean a span was counted twice
    correct = failed == 0 and metrics["driver.self_ms_per_op"][0] >= 0.0
    return _result(correct, attempted, failed, metrics), record


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError as exc:
        return f"unavailable: {exc}"
    return proc.stdout.strip() or "unavailable"


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        record_line, result_line = proc.stdout.splitlines()[-2:]
        result = json.loads(result_line)
        print(f"{name} {record_line}")
        for metric, m in result["metrics"].items():
            print(f"{name:14s} {metric:40s} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    nlv = import_nlvtest()
    if args.workload == "all":
        return run_all(args)

    import numpy

    drift_start = drift_probe_ms()
    if args.trace:
        result, record = measure_traced(args.workload, args.seed, args.seconds, nlv)
    else:
        result, record = measure(args.workload, args.seed, args.seconds, nlv)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "drift_probe_ms": {"start": drift_start, "end": drift_probe_ms()},
        "wait_metrics": "none: ops run on one thread and wait on no queue, lock or I/O",
        **record,
    }
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
