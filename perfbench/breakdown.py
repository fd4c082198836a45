"""Write ``BREAKDOWN.json``: the traced per-layer breakdown of every workload.

Runs ``run.py --trace 1`` once per workload (each in its own interpreter),
then reads the spans each run wrote and splits the layers' self time by the
experiment (``Experiment.run`` call) they ran under -- which shows, for
example, where a cold ``fig7`` spends its time.  The host header records
what the numbers were measured on.

Usage, from the repository root::

    python3 perfbench/breakdown.py --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from common import BENCH_DIR, UNTIMED_OPS
from run import SPANS_DIR, WORKLOADS
from spans import load_spans, self_times


def by_experiment(spans, ops: int) -> Dict[str, Dict[str, float]]:
    """Self seconds per operation of each layer, keyed by the experiment of
    the nearest enclosing ``Experiment.run`` span (warm re-runs, whose spans
    carry an ``op`` ending in ``/warm``, apart)."""
    window = [s for s in spans if s.op not in UNTIMED_OPS]
    index = {s.id: s for s in window}
    selfs = self_times(window)
    split: Dict[str, Dict[str, float]] = {}
    for span in window:
        owner = span
        while owner is not None and owner.name != "api.run":
            owner = index.get(owner.parent)
        experiment = owner.info["experiment"] if owner else "(outside Experiment.run)"
        if str(span.op).endswith("/warm"):
            experiment += " (warm re-run)"
        layers = split.setdefault(experiment, {})
        layers[span.name] = layers.get(span.name, 0.0) + selfs[span.id] / ops
    return {
        experiment: dict(sorted(layers.items(), key=lambda item: -item[1]))
        for experiment, layers in sorted(split.items())
    }


def host() -> Dict[str, str]:
    """What the breakdown was measured on."""
    import numpy

    sys.path.insert(0, str(Path.cwd() / "src"))
    import repro

    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--output", type=Path, default=BENCH_DIR / "BREAKDOWN.json")
    args = parser.parse_args()
    report = {
        "about": (
            "Traced run of every workload (perfbench/run.py --trace 1). "
            "per_layer: the run's per-layer metrics; by_experiment: self "
            "seconds per operation of each layer under each experiment."
        ),
        "command": (
            f"python3 perfbench/breakdown.py --seed {args.seed} "
            f"--seconds {args.seconds:g}"
        ),
        "host": host(),
        "workloads": {},
    }
    for name in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", f"{args.seconds:g}",
                "--trace", "1",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        lines: List[str] = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        spans_path = SPANS_DIR / f"{name}-{args.seed}.json"
        ops = json.loads(spans_path.read_text())["ops"]
        report["workloads"][name] = {
            "correct": result["correct"],
            "summary": lines[:-1],
            "per_layer": {
                metric: entry["value"] for metric, entry in result["metrics"].items()
            },
            "by_experiment": by_experiment(load_spans(spans_path), ops),
        }
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
