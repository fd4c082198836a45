"""Micro-benchmark: the packed sweep result store's warm path.

Times a **warm-cache** re-sweep of a large single-experiment grid (the
model-free table4 point swept across many seeds) on the packed result
store (one append-only data file + offset index, restored through a
single batched read and ONE fsynced journal write), the batched vs
per-point cache-key paths, and the migrate-on-open of a legacy per-file
cache directory (one ``{cache_key}.json`` per point).  Every timing is
gated on exact result equality with a reference sweep; results are
written to ``BENCH_store.json`` so the repository accumulates a perf
trajectory across PRs.

All phases are single-process and I/O-bound, so the numbers are largely
core-count independent; ``cpu_count`` is still recorded so snapshots from
different machines stay comparable.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_store.py \
        [--points 2048] [--repeats 3] [--output BENCH_store.json]

See ``docs/performance.md`` ("Result store") for how to read the output.
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
from typing import Dict, Optional, Sequence

from repro import __version__
from repro.api import run_sweep
from repro.api.sweep import build_grid, cache_keys_for_grid
from repro.store import PackedResultStore

#: The grid every phase is timed on: one model-free experiment fanned out
#: across seeds, so ``--points`` directly sets the grid size.
EXPERIMENT = "table4"

#: Acceptance floor the report records: batched grid keys must beat
#: per-point keys by at least 3x.
KEYS_SPEEDUP_FLOOR = 3.0


def _grid_kwargs(points: int) -> Dict[str, object]:
    return {"experiments": (EXPERIMENT,), "seeds": range(points)}


def _time_keys(points: int, repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` batched vs per-point cache-key wall times.

    Each repeat builds a fresh grid: ``cache_keys_for_grid`` memoizes the
    key on every point it touches, so reusing a grid would time a pure
    dictionary lookup instead of the key computation.
    """
    batched = per_point = float("inf")
    for _ in range(repeats):
        grid = build_grid(**_grid_kwargs(points))
        start = time.perf_counter()
        batched_keys = cache_keys_for_grid(grid)
        batched = min(batched, time.perf_counter() - start)

        grid = build_grid(**_grid_kwargs(points))
        start = time.perf_counter()
        point_keys = [point.cache_key() for point in grid]
        per_point = min(per_point, time.perf_counter() - start)
        if list(batched_keys) != point_keys:
            raise AssertionError(
                "batched cache keys diverge from per-point keys; "
                "run tests/engines/test_cache_keys.py for details"
            )
    return {"batched_s": batched, "per_point_s": per_point}


def run_benchmark(points: int, repeats: int) -> Dict[str, object]:
    """Benchmark the packed store and return the report payload."""
    kwargs = _grid_kwargs(points)
    report: Dict[str, object] = {
        "benchmark": "store",
        "experiment": EXPERIMENT,
        "version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "points": points,
        "repeats": repeats,
    }
    with tempfile.TemporaryDirectory(prefix="bench-store-") as scratch:
        root = Path(scratch)
        cache = root / "packed"

        start = time.perf_counter()
        reference = run_sweep(
            **kwargs,
            cache_dir=cache,
            transport="serial",
            journal=root / "cold.jsonl",
        )
        report["cold_packed_s"] = time.perf_counter() - start
        expected = [result.to_dict() for result in reference.results]

        # Migrate-on-open: a legacy per-file directory holding the same
        # results is ingested by the first store that opens it.
        legacy = root / "legacy"
        legacy.mkdir()
        keys = cache_keys_for_grid(build_grid(**kwargs))
        for key, result in zip(keys, reference.results):
            result.save(legacy / f"{key}.json")
        start = time.perf_counter()
        migrated = len(PackedResultStore(legacy))
        report["migrate_s"] = time.perf_counter() - start
        if migrated != points:
            raise AssertionError(
                f"migration ingested {migrated} of {points} cache entries"
            )

        best = float("inf")
        for repeat in range(repeats):
            start = time.perf_counter()
            sweep = run_sweep(
                **kwargs,
                cache_dir=cache,
                transport="serial",
                journal=root / f"warm-{repeat}.jsonl",
            )
            best = min(best, time.perf_counter() - start)
            # Correctness gate: a warm run must reproduce the cold results
            # exactly and never recompute a point.
            got = [result.to_dict() for result in sweep.results]
            if got != expected or sweep.cache_hits != points:
                raise AssertionError(
                    "warm re-sweep diverges from the cold reference; run "
                    "tests/store/test_packed_store.py for details"
                )
        report["warm_packed_s"] = best

    report["keys"] = _time_keys(points, repeats)
    report["keys_batched_speedup"] = (
        report["keys"]["per_point_s"] / report["keys"]["batched_s"]
    )
    report["meets_keys_floor"] = (
        report["keys_batched_speedup"] >= KEYS_SPEEDUP_FLOOR
    )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--points", type=int, default=2048,
        help="grid size (seeds of the table4 experiment; default 2048)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per phase (best-of is reported)",
    )
    parser.add_argument(
        "--output", default="BENCH_store.json", metavar="PATH",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.points <= 0:
        parser.error("--points must be positive")
    if args.repeats <= 0:
        parser.error("--repeats must be positive")

    report = run_benchmark(args.points, args.repeats)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"{'phase':<24}{'time (ms)':>12}")
    print(f"{'cold packed':<24}{report['cold_packed_s'] * 1e3:>12.1f}")
    print(f"{'migrate on open':<24}{report['migrate_s'] * 1e3:>12.1f}")
    print(f"{'warm packed':<24}{report['warm_packed_s'] * 1e3:>12.1f}")
    print(f"{'keys per-point':<24}{report['keys']['per_point_s'] * 1e3:>12.1f}")
    print(f"{'keys batched':<24}{report['keys']['batched_s'] * 1e3:>12.1f}")
    print(
        f"batched vs per-point keys: {report['keys_batched_speedup']:.2f}x "
        f"(floor {KEYS_SPEEDUP_FLOOR}x: "
        f"{'met' if report['meets_keys_floor'] else 'MISSED'})"
    )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
