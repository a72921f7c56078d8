"""Benchmark of the memsc simulator: one workload per run, or all of them.

    python3 bench/run.py --workload cnn_binomial --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all [--seconds 20] [--trace 1]

A single run prints its full report (environment, every metric with its
unit and direction, and the correctness checks) as one JSON line, then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. It exits 1 when a correctness check fails. ``--all`` runs
every workload in its own process and prints one row per workload.

The harness is a closed loop: one client in one process issues the next
step only after the previous one returned. BLAS gets as many threads as
the process may use cores, unless OPENBLAS_NUM_THREADS is already set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cnn_binomial", "cnn_float_eval", "bitexact_momentum", "array_gen")
# Set-up is timed in this many fresh processes besides the measuring one,
# because import and first-step warm-up happen once per process.
CHILD_SETUPS = 2
CHILD_TIMEOUT_S = 120


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload, one row each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def timed_setup(workload, seed: int):
    """Import the simulator, build the workload's inputs and warm up; return (state, s)."""
    t0 = time.perf_counter()
    import workloads

    spec = workloads.WORKLOADS[workload] if isinstance(workload, str) else workload
    state = workloads.setup(spec, seed)
    return state, time.perf_counter() - t0


def _setup_only(workload: str, seed: int) -> dict:
    """Set-up seconds of this fresh process and its host probe (median of 5)."""
    _, setup_s = timed_setup(workload, seed)
    import workloads

    probe_ms = statistics.median([workloads.host_probe_ms() for _ in range(6)][1:])
    return {"setup_s": setup_s, "host_probe_ms": probe_ms}


def _child_setup(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _thread_count():
    try:
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def _src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def environment(spec, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": _thread_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": dataclasses.asdict(spec),
        "src_loc": _src_loc(),
    }


def run_workload(workload, seed: int, seconds: float, trace: int, child_setups=()):
    """Set up, measure and check one workload (a name or a spec).

    ``child_setups`` are the ``_setup_only`` records of fresh processes.
    Returns (report, result line).
    """
    state, own_setup_s = timed_setup(workload, seed)
    import workloads

    spec = state.spec
    result = workloads.measure(state, seconds, bool(trace))
    setups = [*child_setups, {"setup_s": own_setup_s,
                              "host_probe_ms": result.details["host_probe_ms"]}]
    setup_s = statistics.median(
        s["setup_s"] * workloads.PROBE_NOMINAL_MS / s["host_probe_ms"] for s in setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = dict(result.e2e, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    catalog = workloads.PER_LAYER if trace else workloads.END_TO_END
    values = result.per_layer if trace else e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in catalog if name in values}
    correct = result.failed == 0 and len(metrics) == len(catalog)
    named = {name: {"value": e2e[name], "unit": unit, "better": better}
             for name, unit, better in workloads.END_TO_END if name in e2e}
    named.update({name: {"value": v, "unit": u, "better": b}
                  for name, (v, u, b) in result.named.items()})
    named["failed_frac"] = {"value": result.failed / max(result.attempted, 1),
                            "unit": "fraction", "better": "lower"}
    report = {
        "workload": spec.name,
        "environment": environment(spec, seed, seconds, trace),
        "metrics": named,
        "per_layer": result.per_layer,
        "setups": setups,
        "checks": [c._asdict() for c in result.checks],
        **result.details,
    }
    line = {"correct": correct, "attempted": result.attempted, "failed": result.failed,
            "metrics": metrics}
    return report, line


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(args) -> int:
    """Run each workload in its own process and print one row per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            status = 1
            print(f"{name}  FAILED (exit {done.returncode}) {done.stderr.strip()[-300:]}")
            if len(lines) < 2:
                continue
        report, line = json.loads(lines[-2])["report"], json.loads(lines[-1])
        cells = [f"{k}={_fmt(m['value'])} {m['unit']}" for k, m in report["metrics"].items()]
        print(f"{name}  correct={line['correct']}  " + "  ".join(cells))
        if args.trace:
            for k, m in line["metrics"].items():
                print(f"    {k}={_fmt(m['value'])} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "memsc" / "__init__.py").is_file():
        print(f"memsc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    if args.all:
        return run_all(args)
    if args.setup_only:
        print(json.dumps(_setup_only(args.workload, args.seed)))
        return 0
    child_setups = [_child_setup(args.workload, args.seed) for _ in range(CHILD_SETUPS)]
    report, line = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                child_setups)
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
