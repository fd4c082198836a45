"""Shared pieces of the benchmark workloads: the measured-window record,
statistics, the paper's Fig. 7 table and the seeded design-point grid."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent

#: Scratch space of one run (sweep caches and journals); removed on exit.
WORK_DIR = BENCH_DIR / ".work"

#: Span ``op`` labels of work outside the measured window (set-up, and
#: fidelity runs a window did not reach); per-layer metrics leave them out.
UNTIMED_OPS = ("setup", "fidelity")

#: Workload descriptions and generator parameters (the single source).
WORKLOAD_SPECS = json.loads((BENCH_DIR / "workloads.json").read_text())

#: Design-space knobs the generated hardware configs draw from.
DESIGN_KNOBS: Dict[str, list] = WORKLOAD_SPECS["design_knobs"]


def workload_params(name: str) -> Dict[str, Any]:
    """The generator parameters of workload ``name``."""
    return WORKLOAD_SPECS["workloads"][name]["params"]


@dataclass
class Window:
    """What one measured window produced.

    Attributes:
        op_s: latency of every primary operation, in seconds.
        warm_s: latency of every warm-path operation, in seconds.
        good_items: work items completed (on the open loop, only requests
            answered within its latency limit).
        good_span_s: the time those items are counted over (summed
            operation time for closed loops, the schedule for open loops).
        failed: operations that raised or were refused.
        paper_cells: (reproduced, paper) pairs of the paper's fig7 cells
            this window's outputs cover.
        layers: extra per-layer values (serve counters).
        extras: issue-named summary figures, printed but not gated.
    """

    op_s: List[float] = field(default_factory=list)
    warm_s: List[float] = field(default_factory=list)
    good_items: int = 0
    good_span_s: float = 0.0
    failed: int = 0
    paper_cells: List[Tuple[float, float]] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the largest value for tiny samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def paper_deviation_pct(cells: Sequence[Tuple[float, float]]) -> float:
    """Mean absolute relative deviation of reproduced from paper cells."""
    return 100.0 * statistics.fmean(
        abs(reproduced - paper) / abs(paper) for reproduced, paper in cells
    )


def load_paper_fig7() -> List[Dict[str, Any]]:
    """The paper's Fig. 7 cells (see ``paper_fig7.json``)."""
    return json.loads((BENCH_DIR / "paper_fig7.json").read_text())["cells"]


def paper_cells_of(rows: Sequence[Any]) -> List[Tuple[float, float]]:
    """(reproduced, paper) pairs for the cells covered by fig7 ``rows``."""
    by_model = {row.model: row for row in rows}
    pairs = []
    for cell in load_paper_fig7():
        row = by_model.get(cell["model"])
        if row is None:
            continue
        values = row.speedup if cell["metric"] == "speedup" else row.energy_saving
        pairs.append((float(values[cell["variant"]]), float(cell["value"])))
    return pairs


def seed_stream(text: str) -> Iterator[int]:
    """Session seeds drawn from ``text``: the same text, the same seeds."""
    rng = random.Random(text)
    while True:
        yield rng.randrange(1 << 30)


def fidelity_cells(
    seeds: Sequence[int],
    covered: Dict[int, List[Tuple[float, float]]],
    fig7_rows: Callable[[int], Sequence[Any]],
) -> List[Tuple[float, float]]:
    """Paper cells of fig7 at each of ``seeds``, in order.

    ``covered`` maps the seeds the measured window reached to the cells of
    its own outputs; a seed it did not reach (a slow host) is run through
    ``fig7_rows(seed)`` after the window.  So ``paper_dev_pct`` covers the
    same seeds however many operations fit in the window.
    """
    cells: List[Tuple[float, float]] = []
    for seed in seeds:
        if seed not in covered:
            covered[seed] = paper_cells_of(fig7_rows(seed))
        cells.extend(covered[seed])
    return cells


def child_import_s(root: Path) -> float:
    """Import time of the package in a fresh interpreter (timed inside it)."""
    code = (
        "import time\n"
        "started = time.perf_counter()\n"
        "import repro.api, repro.serve, repro.store, repro.dist\n"
        "repro.api.get_config('paper-28nm')\n"
        "repro.api.list_experiments()\n"
        "print(time.perf_counter() - started)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def register_design_grid(seed_text: str, count: int, prefix: str) -> List[str]:
    """Register ``count - 1`` seeded design points after ``paper-28nm``.

    Configs equal to a built-in preset are skipped, so every generated
    name resolves to itself.  Returns the config names, ``paper-28nm``
    first.
    """
    from repro.api import build_dbpim_config, get_config, list_configs, register_config

    builtin = [
        get_config(name) for name in list_configs() if not name.startswith(prefix)
    ]
    combos = list(itertools.product(*DESIGN_KNOBS.values()))
    names = ["paper-28nm"]
    for combo in random.Random(seed_text).sample(combos, len(combos)):
        if len(names) == count:
            break
        config = build_dbpim_config(**dict(zip(DESIGN_KNOBS, combo)))
        if config in builtin:
            continue
        name = f"{prefix}-{len(names)}"
        register_config(name, config, overwrite=True)
        names.append(name)
    return names
