"""Benchmark of the DB-PIM reproduction: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-run --seed 1 --seconds 20 --trace 0

Workloads: ``cold-run``, ``dse-sweep`` and ``serve-open``, described with
their generator parameters in ``perfbench/workloads.json``; every metric's
definition is in ``perfbench/README.md``.

The program under test is imported from ``src/`` of the checkout; its
inputs are generated from ``--seed``.  With ``--trace 0`` the last stdout
line is a JSON object holding the end-to-end metrics.  With ``--trace 1``
half the time is measured untraced and half traced (layer spans recorded by
:mod:`spans`), on the same inputs where a window leaves no state behind,
and the JSON holds the per-layer metrics plus the tracing overhead (traced
minus untraced value of every end-to-end metric).  Output
checks run outside the timed window; every mismatch counts as a failure.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from cold_run import ColdRun
from common import (
    BENCH_DIR,
    UNTIMED_OPS,
    Window,
    child_import_s,
    paper_deviation_pct,
    percentile,
)
from dse_sweep import DseSweep
from serve_open import SERVE_LAYER_UNITS, ServeOpen
from spans import Tracer, dump_spans, layer_totals, shard_wait_s

#: Where traced runs write their spans.
SPANS_DIR = BENCH_DIR / ".spans"

#: Set-ups made per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: End-to-end metrics, in output order: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "warm_op_ms": "ms",
    "goodput_per_s": "1/s",
    "paper_dev_pct": "%",
    "peak_rss_mb": "MB",
}

#: Layers reported per operation of the measured window.
BUSY_LAYERS = (
    "api.run",
    "workloads.profile",
    "workloads.synth",
    "core.quant",
    "core.fta",
    "core.csd",
    "arch.ipu",
    "sim.cycle",
    "compiler.compile",
    "sim.trace",
    "arch.controller",
    "api.sweep.plan",
    "api.sweep.keys",
    "api.sweep.shard",
    "store.read",
    "store.write",
    "api.results.codec",
    "api.journal",
)

#: Layers whose set-up work is reported separately (profiling warms the
#: serve sessions).
SETUP_LAYERS = (
    "workloads.profile",
    "workloads.synth",
    "core.quant",
    "core.fta",
    "core.csd",
    "arch.ipu",
)

def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports: name -> unit."""
    units: Dict[str, str] = {f"{name}.busy_s": "s/op" for name in BUSY_LAYERS}
    units.update(
        {
            "workloads.profile.calls": "calls/op",
            "workloads.profile.reuse_ratio": "ratio",
            "core.fta.calls": "calls/op",
            "sim.cycle.calls": "calls/op",
            "sim.cycle.layer_jobs_per_s": "1/s",
            "sim.trace.instr_per_s": "1/s",
            "dist.shard.wait_s": "s/op",
            "store.hit_ratio": "ratio",
        }
    )
    units.update(SERVE_LAYER_UNITS)
    units.update({f"setup.{name}.busy_s": "s" for name in SETUP_LAYERS})
    units["trace.ops"] = "count"
    units.update(
        {f"trace.overhead.{name}": unit for name, unit in END_TO_END.items()}
    )
    return units


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(window: Window, setup_s: float, rss_mb: float) -> Dict[str, float]:
    """The end-to-end metric values of one window."""
    return {
        "setup_s": setup_s,
        "op_p50_ms": 1e3 * statistics.median(window.op_s),
        "op_p99_ms": 1e3 * percentile(window.op_s, 0.99),
        "warm_op_ms": 1e3 * statistics.median(window.warm_s),
        "goodput_per_s": window.good_items / window.good_span_s,
        "paper_dev_pct": paper_deviation_pct(window.paper_cells),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(spans, ops: int, window: Window, setup_spans) -> Dict[str, float]:
    """Per-layer values from the traced window's (and set-up's) spans."""
    totals = layer_totals(spans)
    values = {name: 0.0 for name in per_layer_units()}

    def total(layer: str, key: str) -> float:
        return float(totals.get(layer, {}).get(key, 0.0))

    for name in BUSY_LAYERS:
        values[f"{name}.busy_s"] = total(name, "busy_s") / ops
    profile_calls = total("workloads.profile", "calls")
    values["workloads.profile.calls"] = profile_calls / ops
    distinct = {
        s.info["key"] for s in spans if s.name == "workloads.profile"
    }
    values["workloads.profile.reuse_ratio"] = (
        len(distinct) / profile_calls if profile_calls else 0.0
    )
    values["core.fta.calls"] = total("core.fta", "calls") / ops
    values["sim.cycle.calls"] = total("sim.cycle", "calls") / ops
    if total("sim.cycle", "busy_s"):
        values["sim.cycle.layer_jobs_per_s"] = total(
            "sim.cycle", "layer_jobs"
        ) / total("sim.cycle", "busy_s")
    if total("sim.trace", "busy_s"):
        values["sim.trace.instr_per_s"] = total(
            "sim.trace", "instructions"
        ) / total("sim.trace", "busy_s")
    values["dist.shard.wait_s"] = shard_wait_s(spans) / ops
    lookups = total("store.read", "lookups")
    values["store.hit_ratio"] = (
        total("store.read", "hits") / lookups if lookups else 0.0
    )
    setup_totals = layer_totals(setup_spans)
    for name in SETUP_LAYERS:
        values[f"setup.{name}.busy_s"] = float(
            setup_totals.get(name, {}).get("busy_s", 0.0)
        )
    values.update(window.layers)
    values["trace.ops"] = float(ops)
    return values


#: The workloads, by name.
WORKLOADS = {"cold-run": ColdRun, "dse-sweep": DseSweep, "serve-open": ServeOpen}


def run(workload_name: str, seed: int, seconds: float, traced: bool, root: Path):
    """Set up, measure, check; returns (result line dict, summary lines).

    A traced run writes its spans to ``SPANS_DIR/<workload>-<seed>.json``
    when it ends (set-up spans carry ``op == "setup"``, fidelity runs after
    a window ``op == "fidelity"``).
    """
    workload = WORKLOADS[workload_name]()
    tracer = Tracer()
    setups: List[float] = []
    try:
        for index in range(SETUP_REPEATS):
            import_s = child_import_s(root)
            trace_this = traced and index == SETUP_REPEATS - 1
            if trace_this:
                tracer.op = "setup"
                tracer.install()
            try:
                started = time.perf_counter()
                workload.setup(seed)
                setups.append(import_s + time.perf_counter() - started)
            finally:
                tracer.uninstall()
        if traced:
            half = seconds / 2.0
            plain = workload.measure(half, None)
            base = end_to_end(plain, statistics.median(setups[:-1]), peak_rss_mb())
            tracer.op = None
            tracer.install()
            try:
                window = workload.measure(half, tracer)
            finally:
                tracer.uninstall()
            with_trace = end_to_end(window, setups[-1], peak_rss_mb())
            windows = [("untraced", plain, base), ("traced", window, with_trace)]
            setup_spans = [s for s in tracer.spans if s.op == "setup"]
            window_spans = [s for s in tracer.spans if s.op not in UNTIMED_OPS]
            values = layer_metrics(window_spans, len(window.op_s), window, setup_spans)
            for name in END_TO_END:
                values[f"trace.overhead.{name}"] = with_trace[name] - base[name]
            units = per_layer_units()
        else:
            window = workload.measure(seconds, None)
            values = end_to_end(window, statistics.median(setups), peak_rss_mb())
            windows = [("measured", window, values)]
            units = dict(END_TO_END)
        checks, mismatches = workload.check()
    finally:
        workload.close()
    if traced:
        dump_spans(
            SPANS_DIR / f"{workload_name}-{seed}.json",
            tracer.spans,
            workload=workload_name,
            seed=seed,
            ops=len(window.op_s),
        )
    attempted = checks + sum(len(w.op_s) + w.failed for _, w, _ in windows)
    failed = len(mismatches) + sum(w.failed for _, w, _ in windows)
    lines = [f"workload {workload_name} seed {seed} seconds {seconds:g}"]
    lines.append("setup_s runs: " + ", ".join(f"{value:.3f}" for value in setups))
    for label, win, e2e in windows:
        lines.append(f"[{label}] {len(win.op_s)} ops, {win.failed} failed")
        for name, value in e2e.items():
            lines.append(f"  {name:<26} {value:14.4f} {END_TO_END[name]}")
        for name, (value, unit) in win.extras.items():
            lines.append(f"  {name:<26} {value:14.4f} {unit}")
    lines.extend(f"CHECK FAILED: {mismatch}" for mismatch in mismatches)
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    return result, lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro package under {root}; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    result, lines = run(
        args.workload, args.seed, args.seconds, bool(args.trace), root
    )
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
