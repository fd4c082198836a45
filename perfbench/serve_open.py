"""``serve-open``: an open-loop request stream against ``ExperimentService``.

What one request is, the mix, the rate, the skew and their calibration:
``workloads.json`` (``workloads["serve-open"]``).  One generator (a task on
the main thread's event loop, which also hosts the service) sends each
request when due and times it from then, so a stall delays every request
behind it; the generator's own lateness is reported.

``python3 perfbench/serve_open.py --capacity --seed 1`` (from the checkout
root) measures the closed-loop capacity :data:`RATE_RPS` was derived from;
``--skew 0.6 0.8 1.0`` measures the hot-cache hit ratio and latencies
each skew gives at that rate (the skew's calibration).
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    Window,
    paper_cells_of,
    percentile,
    register_design_grid,
    seed_stream,
    workload_params,
)

PARAMS = workload_params("serve-open")
MODELS = tuple(PARAMS["models"])
CONFIGS = PARAMS["configs"]
SEEDS = PARAMS["seeds"]
ZIPF_S = PARAMS["zipf_s"]
RATE_RPS = PARAMS["rate_rps"]
LIMIT_MS = PARAMS["limit_ms"]
CHECK_SAMPLES = PARAMS["check_samples"]
FIDELITY_SEEDS = PARAMS["fidelity_seeds"]

#: Longest wait for the last requests after the schedule ends.
DRAIN_TIMEOUT_S = 60.0


#: The serve-layer values :func:`serve_layers` reports: name -> unit.
SERVE_LAYER_UNITS = {
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.hot_hit_ratio": "ratio",
    "serve.rejected": "count",
    "serve.timeouts": "count",
    "serve.generator_late_ms": "ms",
}


def request_universe(configs, seeds, rng: random.Random) -> List[Any]:
    """Every distinct request the mix can draw, in popularity order.

    Ranks cycle through the request kinds (experiment, model), so every
    seed gets the same popularity share per kind; the seed only picks which
    (config, seed) instance of a kind holds each rank.
    """
    from repro.serve import RunRequest

    kinds = [("fig7", (model,)) for model in MODELS]
    kinds += [("fig2b", (model,)) for model in MODELS]
    kinds += [("graph", (model,)) for model in MODELS]
    kinds += [("table3", MODELS), ("table4", None)]
    pairs = list(itertools.product(configs, seeds))
    columns = []
    for experiment, models in kinds:
        column = [
            RunRequest(experiment, models=models, config=config, seed=seed)
            for config, seed in pairs
        ]
        rng.shuffle(column)
        columns.append(column)
    return [request for row in zip(*columns) for request in row]


class ServeOpen:
    """The ``serve-open`` workload (see the module docstring)."""

    def __init__(self, zipf_s: float = ZIPF_S) -> None:
        self.zipf_s = zipf_s
        # One event loop on the main thread hosts both the service and the
        # generator: a separate generator thread adds interpreter-lock
        # hand-offs that inflate every latency it measures.
        self.loop = asyncio.new_event_loop()
        self.service = None
        self.served: List[Tuple[Any, Any]] = []

    def _call(self, coroutine):
        """Run ``coroutine`` on the service loop until it completes."""
        return self.loop.run_until_complete(coroutine)

    def setup(self, seed: int) -> None:
        """Start a fresh service and warm its sessions."""
        self.close_service()
        self.seed = seed
        self.configs = register_design_grid(f"serve-open/{seed}", CONFIGS, "pb-serve")
        rng = random.Random(f"serve-open/{seed}/mix")
        self.seeds = tuple(sorted(rng.sample(range(1 << 20), SEEDS)))
        self.universe = request_universe(self.configs, self.seeds, rng)
        self.cum_weights = list(
            itertools.accumulate(
                1.0 / rank**self.zipf_s for rank in range(1, len(self.universe) + 1)
            )
        )
        self.paper_cells = self._call(self._start_and_warm())
        self.fidelity_cells = None
        self.schedule_rng = random.Random(f"serve-open/{seed}/schedule")

    async def _start_and_warm(self):
        """Profile both seeds' workloads, then fill the hot cache with the
        most popular requests so the window starts near steady state."""
        from repro.serve import ExperimentService, RunRequest

        self.service = await ExperimentService().start()
        cells = []
        for seed in self.seeds:
            outcome = await self.service.submit(
                RunRequest("fig7", models=MODELS, config="paper-28nm", seed=seed)
            )
            cells.extend(paper_cells_of(outcome.result.rows))
        hottest = self.universe[: self.service.config.hot_cache_size][::-1]
        chunk = self.service.config.max_queue // 2
        for start in range(0, len(hottest), chunk):
            await asyncio.gather(
                *(self.service.submit(r) for r in hottest[start : start + chunk])
            )
        return cells

    async def _fidelity(self):
        """fig7 on ``paper-28nm`` at extra seeds, served after the window."""
        from repro.serve import RunRequest

        seeds = seed_stream(f"serve-open/{self.seed}/fidelity")
        cells = []
        for seed in itertools.islice(seeds, FIDELITY_SEEDS):
            outcome = await self.service.submit(
                RunRequest("fig7", models=MODELS, config="paper-28nm", seed=seed)
            )
            cells.extend(paper_cells_of(outcome.result.rows))
        return cells

    def _schedule(self, seconds: float):
        """(due offset, request) pairs: Poisson arrivals, Zipf requests.

        The schedule stream continues across windows, so a second window
        (the traced half) draws fresh requests rather than replaying ones
        the first window left in the hot cache.
        """
        rng = self.schedule_rng
        total = self.cum_weights[-1]
        schedule = []
        offset = rng.expovariate(RATE_RPS)
        while offset < seconds:
            index = bisect.bisect_left(self.cum_weights, rng.random() * total)
            schedule.append((offset, self.universe[index]))
            offset += rng.expovariate(RATE_RPS)
        return schedule

    async def _timed(self, request, due: float):
        from repro.serve import ServeError

        try:
            outcome = await self.service.submit(request)
        except ServeError:
            return due, time.perf_counter(), request, None
        return due, time.perf_counter(), request, outcome

    async def _open_loop(self, schedule):
        """Submit each request when due; returns outcomes and lateness."""
        started = time.perf_counter()
        tasks = []
        late = []
        for offset, request in schedule:
            due = started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            tasks.append(asyncio.ensure_future(self._timed(request, due)))
        done = await asyncio.wait_for(asyncio.gather(*tasks), DRAIN_TIMEOUT_S)
        return done, late

    def measure(self, seconds: float, tracer) -> Window:
        """Send the seeded schedule for ``seconds`` and time every request."""
        schedule = self._schedule(seconds)
        before = self.service.snapshot()
        done, late = self._call(self._open_loop(schedule))
        after = self.service.snapshot()
        if self.fidelity_cells is None:
            self.fidelity_cells = self._call(self._fidelity())
        window = Window(paper_cells=self.paper_cells + self.fidelity_cells)
        self.served = []
        miss_service_s = []
        for due, finished, request, outcome in done:
            if outcome is None:
                window.failed += 1
                continue
            latency = finished - due
            window.op_s.append(latency)
            if not outcome.cache_hit:
                window.warm_s.append(latency)
                miss_service_s.append(outcome.latency_s)
            if latency * 1e3 <= LIMIT_MS:
                window.good_items += 1
            self.served.append((request, outcome.result))
        window.good_span_s = seconds
        window.layers = serve_layers(before, after, miss_service_s, late)
        window.extras = {
            "requests": (float(len(done)), "count"),
            "serve_p50_ms": (1e3 * statistics.median(window.op_s), "ms"),
            "serve_p99_ms": (1e3 * percentile(window.op_s, 0.99), "ms"),
            "serve_goodput_rps": (window.good_items / seconds, "1/s"),
            "hot_hit_ratio": (window.layers["serve.hot_hit_ratio"], "ratio"),
            "generator_late_p99_ms": (
                window.layers["serve.generator_late_ms"],
                "ms",
            ),
        }
        return window

    def check(self) -> Tuple[int, List[str]]:
        """Sampled served results must be byte-identical to direct runs."""
        from repro.api import Experiment

        if not self.served:
            return 1, ["no request was served"]
        rng = random.Random(f"serve-open/{self.seed}/check")
        sample = rng.sample(self.served, min(CHECK_SAMPLES, len(self.served)))
        bases: Dict[int, Any] = {}
        mismatches = []
        for request, result in sample:
            base = bases.get(request.seed)
            if base is None:
                base = bases[request.seed] = Experiment("paper-28nm", seed=request.seed)
            session = base.with_config(request.config)
            params = dict(request.params)
            if request.models is not None:
                params["models"] = list(request.models)
            direct = session.run(request.experiment, **params)
            if direct.to_json() != result.to_json():
                mismatches.append(
                    f"served {request.experiment} on {request.config} seed "
                    f"{request.seed} differs from a direct run"
                )
        return len(sample), mismatches

    def close_service(self) -> None:
        """Drain and stop the running service, if any."""
        if self.service is not None:
            self._call(self.service.close(drain=True))
            self.service = None

    def close(self) -> None:
        """Stop the service and the event loop."""
        try:
            self.close_service()
        finally:
            self.loop.close()


def serve_layers(before, after, miss_service_s, late) -> Dict[str, float]:
    """Serve-layer values from two metrics snapshots and the outcomes."""

    def counter(name: str) -> float:
        return float(
            after["counters"].get(name, 0) - before["counters"].get(name, 0)
        )

    def window_total(name: str) -> Tuple[float, float]:
        end = after["latency"].get(name, {"count": 0, "mean_s": 0.0})
        start = before["latency"].get(name, {"count": 0, "mean_s": 0.0})
        count = end["count"] - start["count"]
        total = end["count"] * end["mean_s"] - start["count"] * start["mean_s"]
        return float(count), float(total)

    batches, execute_s = window_total("batch_execute")
    execute_ms = 1e3 * execute_s / batches if batches else 0.0
    hits, misses = counter("cache_hits"), counter("cache_misses")
    queue_wait_ms = (
        max(0.0, 1e3 * statistics.fmean(miss_service_s) - execute_ms)
        if miss_service_s
        else 0.0
    )
    return {
        "serve.queue_wait_ms": queue_wait_ms,
        "serve.execute_ms": execute_ms,
        "serve.batch_size_mean": (
            counter("batched_requests_total") / counter("batches_total")
            if counter("batches_total")
            else 0.0
        ),
        "serve.hot_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.rejected": counter("rejected_total"),
        "serve.timeouts": counter("timeout_total"),
        "serve.generator_late_ms": 1e3 * percentile(late, 0.99) if late else 0.0,
    }


def capacity(seed: int, seconds: float, clients: int) -> float:
    """Closed-loop requests/second of ``clients`` back-to-back callers."""
    workload = ServeOpen()
    workload.setup(seed)
    rng = random.Random(f"serve-open/{seed}/capacity")
    total = workload.cum_weights[-1]

    async def client(deadline: float) -> int:
        served = 0
        while time.perf_counter() < deadline:
            index = bisect.bisect_left(workload.cum_weights, rng.random() * total)
            await workload.service.submit(workload.universe[index])
            served += 1
        return served

    async def drive() -> float:
        started = time.perf_counter()
        counts = await asyncio.gather(
            *(client(started + seconds) for _ in range(clients))
        )
        return sum(counts) / (time.perf_counter() - started)

    try:
        return workload._call(drive())
    finally:
        workload.close()


def skew_figures(seed: int, seconds: float, zipf_s: float) -> Dict[str, float]:
    """Hit ratio and latencies of one window at :data:`RATE_RPS` and skew
    ``zipf_s``."""
    workload = ServeOpen(zipf_s)
    try:
        workload.setup(seed)
        window = workload.measure(seconds, None)
    finally:
        workload.close()
    return {
        "hot_hit_ratio": window.layers["serve.hot_hit_ratio"],
        "p50_ms": 1e3 * statistics.median(window.op_s),
        "p99_ms": 1e3 * percentile(window.op_s, 0.99),
        "miss_p50_ms": 1e3 * statistics.median(window.warm_s),
    }


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="serve-open calibration probes")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--capacity", action="store_true")
    mode.add_argument("--skew", type=float, nargs="+")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--clients", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    if args.capacity:
        rate = capacity(args.seed, args.seconds, args.clients)
        print(f"closed-loop capacity: {rate:.1f} requests/s with {args.clients} clients")
    for zipf_s in args.skew or ():
        figures = skew_figures(args.seed, args.seconds, zipf_s)
        print(f"zipf_s {zipf_s:g}: " + ", ".join(f"{k} {v:.3f}" for k, v in figures.items()))
