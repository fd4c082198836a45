"""Micro-benchmark: the sharded sweep service's executor backends.

Times a **cold-cache** fig7 sweep (the paper's speedup/energy grid, one
point per model) under every executor backend -- ``serial``, ``thread``
(GIL-bound for the CPU-heavy profiling + mapping work) and ``process``
(the multi-core fast path) -- each repeat against a fresh cache directory,
plus a warm-cache re-run, and validates journal-based resume before
reporting.  Results are written to ``BENCH_sweep.json`` so the repository
accumulates a perf trajectory across PRs.

The process backend's speedup over threads scales with the core count;
``cpu_count`` is recorded in the report so snapshots from different
machines stay comparable (on a single-core runner the backends are
expected to tie, modulo pool overhead).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_sweep.py \
        [--models alexnet ...] [--executors serial thread process] \
        [--repeats 3] [--output BENCH_sweep.json]

See ``docs/performance.md`` ("Sweep service") for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import __version__
from repro.api import run_sweep
from repro.workloads import list_workloads

#: The grid every executor is timed on.
EXPERIMENTS = ("fig7",)

#: The local shard transports the benchmark compares.
EXECUTORS = ("serial", "thread", "process")


def _time_cold(executor: str, models: Sequence[str], repeats: int) -> float:
    """Best-of-``repeats`` cold-cache sweep wall time, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="bench-sweep-") as cache:
            start = time.perf_counter()
            run_sweep(
                experiments=EXPERIMENTS,
                models=models,
                cache_dir=cache,
                transport=executor,
            )
            best = min(best, time.perf_counter() - start)
    return best


def _time_warm(models: Sequence[str], repeats: int) -> float:
    """Best-of-``repeats`` warm-cache (pure deserialisation) wall time."""
    best = float("inf")
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as cache:
        run_sweep(experiments=EXPERIMENTS, models=models, cache_dir=cache)
        for _ in range(repeats):
            start = time.perf_counter()
            run_sweep(experiments=EXPERIMENTS, models=models, cache_dir=cache)
            best = min(best, time.perf_counter() - start)
    return best


def _check_resume(models: Sequence[str]) -> bool:
    """Journal a sweep, truncate it mid-grid, resume; require byte-identity."""
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as scratch:
        journal = Path(scratch) / "sweep.jsonl"
        full = run_sweep(experiments=EXPERIMENTS, models=models, journal=journal)
        lines = journal.read_text(encoding="utf-8").splitlines()
        keep = 1 + max(1, (len(lines) - 1) // 2)  # header + half the points
        journal.write_text("\n".join(lines[:keep]) + "\n", encoding="utf-8")
        resumed = run_sweep(
            experiments=EXPERIMENTS, models=models, journal=journal, resume=True
        )
        return resumed.to_json() == full.to_json()


def run_benchmark(
    models: Sequence[str],
    executors: Sequence[str],
    repeats: int,
) -> Dict[str, object]:
    """Benchmark every executor and return the report payload."""
    # Correctness gate before timing: all backends must agree exactly.
    reference = None
    for executor in executors:
        sweep = run_sweep(
            experiments=EXPERIMENTS, models=models, transport=executor
        )
        if reference is None:
            reference = sweep.results
        elif sweep.results != reference:
            raise AssertionError(
                f"executor {executor!r} diverges from {executors[0]!r}; "
                "run tests/api/test_sweep_service.py for details"
            )
    report: Dict[str, object] = {
        "benchmark": "sweep",
        "experiments": list(EXPERIMENTS),
        "version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "models": list(models),
        "repeats": repeats,
        "executors": {
            executor: {"cold_s": _time_cold(executor, models, repeats)}
            for executor in executors
        },
        "warm_thread_s": _time_warm(models, repeats),
        "resume_byte_identical": _check_resume(models),
    }
    timings = report["executors"]
    if "thread" in timings and "process" in timings:
        report["process_speedup_vs_thread"] = (
            timings["thread"]["cold_s"] / timings["process"]["cold_s"]
        )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--models", nargs="+", default=None, metavar="MODEL",
        help="workloads of the fig7 grid (default: all five paper models)",
    )
    parser.add_argument(
        "--executors", nargs="+", default=list(EXECUTORS), metavar="EXECUTOR",
        choices=EXECUTORS,
        help="executor backends to time (default: all three)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per backend (best-of is reported)",
    )
    parser.add_argument(
        "--output", default="BENCH_sweep.json", metavar="PATH",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    models: List[str] = args.models or list_workloads()
    if args.repeats <= 0:
        parser.error("--repeats must be positive")

    report = run_benchmark(models, args.executors, args.repeats)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"{'executor':<12}{'cold (ms)':>12}")
    for executor, entry in report["executors"].items():
        print(f"{executor:<12}{entry['cold_s'] * 1e3:>12.1f}")
    print(f"warm thread: {report['warm_thread_s'] * 1e3:.1f} ms")
    if "process_speedup_vs_thread" in report:
        print(
            f"process vs thread: {report['process_speedup_vs_thread']:.2f}x "
            f"on {report['cpu_count']} CPU(s)"
        )
    print(f"resume byte-identical: {report['resume_byte_identical']}")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
