"""``cold-run``: fresh sessions running fig7, fig2a and program.

What one operation is, its warm operation and its parameters:
``workloads.json`` (``workloads["cold-run"]``).
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Dict, List, Tuple

import numpy as np

from common import Window, fidelity_cells, paper_cells_of, seed_stream, workload_params

PARAMS = workload_params("cold-run")
MODELS = tuple(PARAMS["models"])
EXPERIMENTS = tuple(PARAMS["experiments"])
WARM_REPEATS = PARAMS["warm_repeats"]
WARM_GAP_S = PARAMS["warm_gap_s"]
FIDELITY_SEEDS = PARAMS["fidelity_seeds"]


class ColdRun:
    """The ``cold-run`` workload (see the module docstring)."""

    def setup(self, seed: int) -> None:
        """Nothing to warm: the workload measures cold sessions."""
        self.seed = seed
        self.session = None
        self.fig7 = None
        self.program = None

    def measure(self, seconds: float, tracer) -> Window:
        """Run cold passes until ``seconds`` have elapsed (at least one)."""
        from repro.api import Experiment

        seeds = seed_stream(f"cold-run/{self.seed}")
        fidelity = list(
            itertools.islice(seed_stream(f"cold-run/{self.seed}"), FIDELITY_SEEDS)
        )
        covered: Dict[int, List[Tuple[float, float]]] = {}
        window = Window()
        stages: List[List[float]] = []
        started = time.perf_counter()
        op = 0
        while op == 0 or time.perf_counter() - started < seconds:
            session_seed = next(seeds)
            try:
                session = None
                stage_s: List[float] = []
                warm: List[float] = []
                outputs = {}
                for experiment in EXPERIMENTS:
                    if tracer is not None:
                        tracer.op = op
                    begin = time.perf_counter()
                    if session is None:
                        session = Experiment(PARAMS["config"], seed=session_seed)
                    outputs[experiment] = session.run(experiment, models=MODELS)
                    stage_s.append(time.perf_counter() - begin)
                    if tracer is not None:
                        tracer.op = f"{op}/warm"
                    warm.extend(self._warm(session))
            except Exception:
                window.failed += 1
                continue
            finally:
                op += 1
            elapsed = sum(stage_s)
            window.op_s.append(elapsed)
            window.warm_s.extend(warm)
            window.good_span_s += elapsed
            window.good_items += len(MODELS)
            stages.append(stage_s)
            if session_seed in fidelity:
                covered[session_seed] = paper_cells_of(outputs["fig7"].rows)
            self.session = session
            self.fig7, self.program = outputs["fig7"], outputs["program"]
        if tracer is not None:
            tracer.op = "fidelity"
        window.paper_cells = fidelity_cells(
            fidelity,
            covered,
            lambda seed: Experiment(PARAMS["config"], seed=seed)
            .run("fig7", models=MODELS)
            .rows,
        )
        for index, experiment in enumerate(EXPERIMENTS):
            if stages:
                window.extras[f"cold_{experiment}_s"] = (
                    float(np.median([stage[index] for stage in stages])),
                    "s",
                )
        return window

    @staticmethod
    def _warm(session) -> List[float]:
        """Latencies of warm fig7 re-runs on ``session``, spaced by
        ``WARM_GAP_S``; every cold stage is followed by a share of them."""
        warm = []
        for _ in range(WARM_REPEATS // len(EXPERIMENTS)):
            time.sleep(WARM_GAP_S)
            begin = time.perf_counter()
            session.run("fig7", models=MODELS)
            warm.append(time.perf_counter() - begin)
        return warm

    def check(self) -> Tuple[int, List[str]]:
        """Recompute fig7 through the scalar engine, FTA per filter, and
        bound the program replay error."""
        from repro.core.fta import approximate_filter, approximate_layer
        from repro.core.quantization import quantize_weights
        from repro.sim.cycle_model import CycleModel, SPARSITY_VARIANTS
        from repro.sim.trace import TRACE_TOLERANCE
        from repro.workloads.models import get_workload
        from repro.workloads.profiles import synthesize_layer_weights

        session = self.session
        if session is None:
            return 1, ["no cold pass completed"]
        mismatches: List[str] = []
        checks = 0
        scalar = CycleModel(session.config, engine="scalar")
        for row in self.fig7.rows:
            checks += 1
            profile = session.profile(row.model)
            runs = {v: scalar.run_model(profile, v) for v in SPARSITY_VARIANTS}
            for variant in ("input", "weight", "hybrid"):
                speedup = CycleModel.speedup(runs["base"], runs[variant])
                saving = CycleModel.energy_saving(runs["base"], runs[variant])
                if (speedup, saving) != (
                    row.speedup[variant],
                    row.energy_saving[variant],
                ):
                    mismatches.append(
                        f"fig7 {row.model}/{variant}: vectorized "
                        f"({row.speedup[variant]}, {row.energy_saving[variant]})"
                        f" != scalar ({speedup}, {saving})"
                    )
        for row in self.program.rows:
            checks += 1
            if row.max_relative_error > TRACE_TOLERANCE:
                mismatches.append(
                    f"program {row.model}: trace vs analytical error "
                    f"{row.max_relative_error} > {TRACE_TOLERANCE}"
                )
        checks += 1
        rng = random.Random(f"cold-run/{self.seed}/fta")
        workload = get_workload(rng.choice(MODELS))
        layer = rng.choice(list(workload.layers))
        weights, _ = quantize_weights(
            synthesize_layer_weights(layer, workload.redundancy, session.seed),
            per_channel=True,
        )
        whole = approximate_layer(weights, session.fta_config)
        filters = [approximate_filter(w, session.fta_config) for w in weights]
        same = np.array_equal(
            whole.thresholds, [f.threshold for f in filters]
        ) and np.array_equal(
            whole.approximated, np.stack([f.approximated for f in filters])
        )
        if not same:
            mismatches.append(
                f"FTA {workload.name}/{layer.name}: approximate_layer differs "
                "from per-filter approximate_filter"
            )
        return checks, mismatches

    def close(self) -> None:
        """Drop the last session."""
        self.session = None
