"""``dse-sweep``: cold and warm sweeps of a seeded design-space grid.

What one operation is, its warm operation and its parameters:
``workloads.json`` (``workloads["dse-sweep"]``).  Warm re-sweeps run
without a journal: a journal append fsyncs, which would time the disk.
"""

from __future__ import annotations

import itertools
import random
import shutil
import time
from typing import Dict, List, Tuple

from common import (
    WORK_DIR,
    Window,
    fidelity_cells,
    paper_cells_of,
    register_design_grid,
    seed_stream,
    workload_params,
)

PARAMS = workload_params("dse-sweep")
EXPERIMENTS = tuple(PARAMS["experiments"])
MODELS = tuple(PARAMS["models"])
CONFIGS = PARAMS["configs"]
WARM_REPEATS = PARAMS["warm_repeats"]
DIRECT_SAMPLES = PARAMS["direct_samples"]
FIDELITY_SEEDS = PARAMS["fidelity_seeds"]


class DseSweep:
    """The ``dse-sweep`` workload (see the module docstring)."""

    def setup(self, seed: int) -> None:
        """Register the seeded config grid."""
        self.seed = seed
        self.configs = register_design_grid(f"dse-sweep/{seed}", CONFIGS, "pb-dse")
        self.last = None

    def _sweep(self, seed: int, cache_dir, journal=None):
        from repro.api import run_sweep

        return run_sweep(
            experiments=EXPERIMENTS,
            models=MODELS,
            configs=self.configs,
            seeds=(seed,),
            cache_dir=cache_dir,
            journal=journal,
        )

    def measure(self, seconds: float, tracer) -> Window:
        """Cold sweep + warm re-sweeps until ``seconds`` have elapsed."""
        from repro.api import Experiment

        seeds = seed_stream(f"dse-sweep/{self.seed}")
        fidelity = list(
            itertools.islice(seed_stream(f"dse-sweep/{self.seed}"), FIDELITY_SEEDS)
        )
        covered: Dict[int, List[Tuple[float, float]]] = {}
        window = Window()
        warm_points = 0
        warm_time = 0.0
        started = time.perf_counter()
        op = 0
        while op == 0 or time.perf_counter() - started < seconds:
            if tracer is not None:
                tracer.op = op
            directory = WORK_DIR / f"dse-{op}"
            op += 1
            seed = next(seeds)
            try:
                begin = time.perf_counter()
                cold = self._sweep(seed, directory / "cache", directory / "cold.jsonl")
                elapsed = time.perf_counter() - begin
                warm = None
                for _ in range(WARM_REPEATS):
                    warm_begin = time.perf_counter()
                    warm = self._sweep(seed, directory / "cache")
                    window.warm_s.append(time.perf_counter() - warm_begin)
                    warm_points += len(warm.results)
                    warm_time += window.warm_s[-1]
            except Exception:
                window.failed += 1
                continue
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            window.op_s.append(elapsed)
            window.good_span_s += elapsed
            window.good_items += len(cold.results)
            if seed in fidelity:
                covered[seed] = [
                    cell
                    for result in cold.results
                    if result.experiment == "fig7" and result.config == "paper-28nm"
                    for cell in paper_cells_of(result.rows)
                ]
            self.last = (seed, cold, warm)
        if tracer is not None:
            tracer.op = "fidelity"
        window.paper_cells = fidelity_cells(
            fidelity,
            covered,
            lambda seed: Experiment("paper-28nm", seed=seed)
            .run("fig7", models=MODELS)
            .rows,
        )
        if window.op_s:
            points = len(self.last[1].results)
            window.extras["grid_points"] = (float(points), "count")
            window.extras["sweep_cold_pts_per_s"] = (
                window.good_items / window.good_span_s,
                "1/s",
            )
            window.extras["sweep_warm_pts_per_s"] = (warm_points / warm_time, "1/s")
        return window

    def check(self) -> Tuple[int, List[str]]:
        """Warm results byte-identical to cold; sampled points equal a direct
        ``Experiment.run``."""
        from repro.api import Experiment
        from repro.api.sweep import build_grid

        if self.last is None:
            return 1, ["no sweep completed"]
        seed, cold, warm = self.last
        mismatches: List[str] = []
        points = len(cold.results)
        checks = 2
        if (cold.cache_misses, warm.cache_hits) != (points, points):
            mismatches.append(
                f"cold sweep missed {cold.cache_misses}, warm re-sweep hit "
                f"{warm.cache_hits} of {points} points"
            )
        if [r.to_json() for r in cold.results] != [r.to_json() for r in warm.results]:
            mismatches.append("warm re-sweep results differ from the cold sweep")
        grid = build_grid(
            experiments=EXPERIMENTS, models=MODELS, configs=self.configs, seeds=(seed,)
        )
        rng = random.Random(f"dse-sweep/{self.seed}/check")
        for index in rng.sample(range(points), DIRECT_SAMPLES):
            checks += 1
            point = grid[index]
            direct = Experiment(config=point.config, seed=point.seed).run(
                point.experiment, **point.params
            )
            if direct.to_json() != cold.results[index].to_json():
                mismatches.append(
                    f"sweep point {point.describe()} differs from a direct run"
                )
        return checks, mismatches

    def close(self) -> None:
        """Remove the sweep scratch directory."""
        shutil.rmtree(WORK_DIR, ignore_errors=True)
