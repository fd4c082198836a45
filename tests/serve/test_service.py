"""Tests for the repro.serve core: coalescing, deadlines, backpressure.

The serving contract pinned here: coalesced concurrent requests return
results **byte-identical** to one-at-a-time dispatch; deadlines surface as
typed :class:`DeadlineExceededError`; admission control rejects beyond
``max_queue`` with :class:`QueueFullError`; and a draining close finishes
every admitted request.  Everything drives plain :mod:`asyncio` (no asyncio
pytest plugin) via ``asyncio.run`` or the synchronous
:class:`ServiceRuntime` wrapper.
"""

import asyncio
import threading

import pytest

import repro.api.sweep as sweep_module
from repro.api.experiment import Experiment
from repro.serve import (
    DeadlineExceededError,
    ExperimentService,
    HotResultCache,
    LatencyWindow,
    MetricsRegistry,
    QueueFullError,
    RequestValidationError,
    RunFailedError,
    RunRequest,
    ServeConfig,
    ServiceClosedError,
    ServiceRuntime,
)

MODELS = ("alexnet", "resnet18", "mobilenetv2")


def direct_result(request: RunRequest):
    """What a one-shot Experiment.run returns for the same request."""
    session = Experiment(
        config=request.config, seed=request.seed, engine=request.engine
    )
    params = dict(request.params)
    if request.models is not None:
        params["models"] = request.models
    return session.run(request.experiment, **params)


# ---------------------------------------------------------------------------
# Request validation (no service needed)
# ---------------------------------------------------------------------------
class TestRunRequestValidation:
    def test_canonicalises_models(self):
        request = RunRequest("fig7", models=("alexnet",)).validated()
        assert request.models == ("alexnet",)
        assert request.experiment == "fig7"

    def test_models_none_expands_to_all_workloads(self):
        from repro.workloads.models import list_workloads

        request = RunRequest("fig7").validated()
        assert request.models == tuple(list_workloads())

    def test_unknown_experiment(self):
        with pytest.raises(RequestValidationError, match="unknown experiment"):
            RunRequest("nope").validated()

    def test_unknown_workload(self):
        with pytest.raises(RequestValidationError, match="unknown workload"):
            RunRequest("fig7", models=("bogus",)).validated()

    def test_unknown_config(self):
        with pytest.raises(RequestValidationError):
            RunRequest("fig7", models=MODELS, config="bogus").validated()

    def test_unknown_engine(self):
        with pytest.raises(RequestValidationError, match="unknown engine"):
            RunRequest("fig7", models=MODELS, engine="quantum").validated()

    def test_heavy_experiment_gated(self):
        with pytest.raises(RequestValidationError, match="not admitted"):
            RunRequest("table2").validated()
        # ... but admitted when the service opts in.
        assert RunRequest("table2").validated(allow_heavy=True).models

    def test_models_rejected_for_modelless_experiment(self):
        with pytest.raises(RequestValidationError, match="does not take"):
            RunRequest("table1", models=("alexnet",)).validated()

    def test_unknown_param(self):
        with pytest.raises(RequestValidationError, match="unexpected param"):
            RunRequest("fig2a", params={"wat": 1}).validated()

    def test_models_in_params_rejected(self):
        with pytest.raises(RequestValidationError, match="'models' field"):
            RunRequest("fig7", params={"models": ["alexnet"]}).validated()

    def test_empty_model_list(self):
        with pytest.raises(RequestValidationError, match="empty model list"):
            RunRequest("fig7", models=()).validated()

    def test_bad_timeout(self):
        with pytest.raises(RequestValidationError, match="timeout"):
            RunRequest("fig7", models=MODELS, timeout_s=0.0).validated()

    def test_cache_key_matches_sweep_point(self):
        request = RunRequest("fig7", models=("alexnet",)).validated()
        assert request.cache_key() == request.point().cache_key()


# ---------------------------------------------------------------------------
# Core dispatch semantics (asyncio, no plugin)
# ---------------------------------------------------------------------------
class TestServiceDispatch:
    def test_coalesced_requests_byte_identical_to_serial(self):
        """The headline contract: one merged batch == N solo runs, bytewise."""

        async def scenario():
            service = ExperimentService(
                ServeConfig(batch_window_s=0.4, hot_cache_size=0)
            )
            await service.start()
            try:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(RunRequest("fig7", models=(model,)))
                    )
                    for model in MODELS
                ]
                return await asyncio.gather(*tasks)
            finally:
                await service.close()

        outcomes = asyncio.run(scenario())
        assert [o.batch_size for o in outcomes] == [len(MODELS)] * len(MODELS)
        for model, outcome in zip(MODELS, outcomes):
            expected = direct_result(RunRequest("fig7", models=(model,)))
            assert outcome.result.to_json() == expected.to_json()

    def test_cross_config_requests_coalesce_byte_identical(self):
        """Requests differing only in config share one coalesce bucket,
        run on their per-config sessions, and split back bytewise."""

        configs = ("paper-28nm", "dense-baseline", "weight-sparsity-only")

        async def scenario():
            service = ExperimentService(
                ServeConfig(batch_window_s=0.4, hot_cache_size=0)
            )
            await service.start()
            try:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(
                            RunRequest(
                                "fig7", models=("alexnet",), config=config
                            )
                        )
                    )
                    for config in configs
                ]
                outcomes = await asyncio.gather(*tasks)
                return outcomes, service.metrics.snapshot()
            finally:
                await service.close()

        outcomes, metrics = asyncio.run(scenario())
        assert [o.batch_size for o in outcomes] == [len(configs)] * len(
            configs
        )
        assert metrics["counters"].get("cross_config_groups") == 1
        for config, outcome in zip(configs, outcomes):
            expected = direct_result(
                RunRequest("fig7", models=("alexnet",), config=config)
            )
            assert outcome.result.to_json() == expected.to_json()

    def test_identical_requests_deduplicate_within_batch(self):
        async def scenario():
            service = ExperimentService(
                ServeConfig(batch_window_s=0.4, hot_cache_size=0)
            )
            await service.start()
            try:
                request = RunRequest("fig7", models=("alexnet",))
                tasks = [
                    asyncio.ensure_future(service.submit(request))
                    for _ in range(3)
                ]
                return await asyncio.gather(*tasks)
            finally:
                await service.close()

        outcomes = asyncio.run(scenario())
        payloads = {o.result.to_json() for o in outcomes}
        assert len(payloads) == 1  # one computation, shared by all three

    def test_incompatible_requests_do_not_merge(self):
        """Different seeds are different buckets; results stay per-seed."""

        async def scenario():
            service = ExperimentService(
                ServeConfig(batch_window_s=0.4, hot_cache_size=0)
            )
            await service.start()
            try:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(
                            RunRequest("fig7", models=("alexnet",), seed=seed)
                        )
                    )
                    for seed in (0, 1)
                ]
                return await asyncio.gather(*tasks)
            finally:
                await service.close()

        outcomes = asyncio.run(scenario())
        assert [o.result.seed for o in outcomes] == [0, 1]
        for seed, outcome in zip((0, 1), outcomes):
            expected = direct_result(
                RunRequest("fig7", models=("alexnet",), seed=seed)
            )
            assert outcome.result.to_json() == expected.to_json()

    def test_deadline_expiry_is_typed(self):
        """A deadline shorter than the batch window expires while queued."""

        async def scenario():
            service = ExperimentService(
                ServeConfig(batch_window_s=0.5, hot_cache_size=0)
            )
            await service.start()
            try:
                with pytest.raises(DeadlineExceededError, match="deadline"):
                    await service.submit(
                        RunRequest(
                            "fig7", models=("alexnet",), timeout_s=0.05
                        )
                    )
                return service.metrics.counter("timeout_total")
            finally:
                await service.close()

        assert asyncio.run(scenario()) == 1

    def test_queue_full_rejection(self):
        """Beyond max_queue queued requests, admission raises QueueFullError."""

        async def scenario():
            service = ExperimentService(
                ServeConfig(
                    max_queue=1, batch_window_s=0.0, hot_cache_size=0
                )
            )
            await service.start()
            release = threading.Event()
            original = service._execute_group

            def blocked(group):
                release.wait(timeout=30)
                return original(group)

            service._execute_group = blocked
            try:
                first = asyncio.ensure_future(
                    service.submit(RunRequest("fig7", models=("alexnet",)))
                )
                await asyncio.sleep(0.1)  # batcher now blocked in executor
                second = asyncio.ensure_future(
                    service.submit(RunRequest("fig7", models=("resnet18",)))
                )
                await asyncio.sleep(0.05)  # second fills the queue
                with pytest.raises(QueueFullError, match="queue is full"):
                    await service.submit(
                        RunRequest("fig7", models=("mobilenetv2",))
                    )
                release.set()
                outcomes = await asyncio.gather(first, second)
                rejected = service.metrics.counter("rejected_total")
                return outcomes, rejected
            finally:
                release.set()
                await service.close()

        outcomes, rejected = asyncio.run(scenario())
        assert rejected == 1
        assert [len(o.result.rows) for o in outcomes] == [1, 1]

    def test_graceful_shutdown_drains_admitted_requests(self):
        """close(drain=True) finishes queued work; new submits are refused."""

        async def scenario():
            service = ExperimentService(
                ServeConfig(batch_window_s=0.2, hot_cache_size=0)
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit(RunRequest("fig7", models=(model,)))
                )
                for model in MODELS
            ]
            await asyncio.sleep(0)  # let every submit reach the queue
            await service.close(drain=True)
            outcomes = await asyncio.gather(*tasks)
            with pytest.raises(ServiceClosedError):
                await service.submit(RunRequest("fig7", models=("alexnet",)))
            return outcomes

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == len(MODELS)
        for model, outcome in zip(MODELS, outcomes):
            expected = direct_result(RunRequest("fig7", models=(model,)))
            assert outcome.result.to_json() == expected.to_json()

    def test_experiment_failure_is_typed_and_isolated(self, monkeypatch):
        """A failing run maps to RunFailedError without killing the service."""
        real_experiment = sweep_module.Experiment

        class Exploding(real_experiment):
            def run(self, experiment, **params):
                if "mobilenetv2" in (params.get("models") or []):
                    raise RuntimeError("boom")
                return super().run(experiment, **params)

        # Served sessions are built by the shared execution core's pool.
        monkeypatch.setattr(sweep_module, "Experiment", Exploding)

        async def scenario():
            service = ExperimentService(
                ServeConfig(batch_window_s=0.0, hot_cache_size=0)
            )
            await service.start()
            try:
                with pytest.raises(RunFailedError, match="boom"):
                    await service.submit(
                        RunRequest("fig7", models=("mobilenetv2",))
                    )
                good = await service.submit(
                    RunRequest("fig7", models=("alexnet",))
                )
                return good, service.metrics.counter("failed_total")
            finally:
                await service.close()

        good, failed = asyncio.run(scenario())
        assert failed == 1
        expected = direct_result(RunRequest("fig7", models=("alexnet",)))
        assert good.result.to_json() == expected.to_json()

    @pytest.mark.parametrize("backend", ["files", "packed"])
    @pytest.mark.filterwarnings("ignore:.*unreadable:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:skipping result-cache read")
    def test_cache_write_error_keeps_batcher_running(self, tmp_path, backend):
        """A cache_dir that cannot be written degrades to memory-only
        serving with a warning; it must not end the batcher task."""
        not_a_directory = tmp_path / "cache"
        not_a_directory.write_text("")
        request = RunRequest("table4")

        async def scenario():
            service = ExperimentService(
                ServeConfig(
                    batch_window_s=0.0,
                    hot_cache_size=0,
                    cache_dir=not_a_directory,
                    cache_backend=backend,
                )
            )
            await service.start()
            try:
                first = await service.submit(request)
                second = await service.submit(request)
                return first, second, not service._batcher.done()
            finally:
                await service.close()

        with pytest.warns(RuntimeWarning, match="skipping result-cache write"):
            first, second, running = asyncio.run(scenario())
        assert running
        expected = direct_result(request).to_json()
        assert first.result.to_json() == expected
        assert second.result.to_json() == expected
        assert not first.cache_hit and not second.cache_hit

    def test_unexpected_dispatch_error_fails_only_its_group(self):
        """An exception escaping group execution fails that group's
        requests with RunFailedError; the batcher serves the next one."""

        async def scenario():
            service = ExperimentService(
                ServeConfig(batch_window_s=0.0, hot_cache_size=0)
            )
            await service.start()
            original = service._execute_group
            calls = []

            def flaky(group):
                calls.append(len(group))
                if len(calls) == 1:
                    raise OSError("disk on fire")
                return original(group)

            service._execute_group = flaky
            try:
                with pytest.raises(RunFailedError, match="disk on fire"):
                    await service.submit(RunRequest("table4"))
                outcome = await service.submit(RunRequest("table4"))
                failed = service.metrics.counter("failed_total")
                return outcome, failed, not service._batcher.done()
            finally:
                await service.close()

        outcome, failed, running = asyncio.run(scenario())
        assert running and failed == 1
        expected = direct_result(RunRequest("table4"))
        assert outcome.result.to_json() == expected.to_json()


# ---------------------------------------------------------------------------
# Caching layers
# ---------------------------------------------------------------------------
class TestServiceCaching:
    def test_hot_cache_hit_on_repeat(self):
        with ServiceRuntime(ServeConfig(batch_window_s=0.0)) as runtime:
            request = RunRequest("fig7", models=("alexnet",))
            first = runtime.run(request)
            second = runtime.run(request)
        assert not first.cache_hit
        assert second.cache_hit and second.batch_size == 0
        assert second.result.to_json() == first.result.to_json()

    def test_disk_cache_layer(self, tmp_path):
        config = ServeConfig(
            batch_window_s=0.0, hot_cache_size=0, cache_dir=tmp_path
        )
        request = RunRequest("fig7", models=("alexnet",))
        with ServiceRuntime(config) as runtime:
            first = runtime.run(request)
        assert list(tmp_path.iterdir())  # result persisted
        # A fresh runtime (hot cache disabled) serves from disk.
        with ServiceRuntime(config) as runtime:
            second = runtime.run(request)
            hits = runtime.metrics()["counters"].get("disk_cache_hits", 0)
        assert hits == 1
        assert second.result.to_json() == first.result.to_json()

    def test_packed_store_layer(self, tmp_path):
        """The hot-cache miss path falls through to the packed store."""
        from repro.store import DATA_FILENAME, PackedResultStore

        config = ServeConfig(
            batch_window_s=0.0,
            hot_cache_size=0,
            cache_dir=tmp_path,
            cache_backend="packed",
        )
        request = RunRequest("fig7", models=("alexnet",))
        with ServiceRuntime(config) as runtime:
            first = runtime.run(request)
        assert (tmp_path / DATA_FILENAME).exists()  # result packed
        assert len(PackedResultStore(tmp_path)) == 1
        # A fresh runtime (hot cache disabled) serves from the store.
        with ServiceRuntime(config) as runtime:
            second = runtime.run(request)
            hits = runtime.metrics()["counters"].get("disk_cache_hits", 0)
        assert hits == 1
        assert second.result.to_json() == first.result.to_json()

    def test_packed_store_shared_with_sweep(self, tmp_path):
        """A sweep-populated pack serves the daemon, and vice versa."""
        from repro.api import run_sweep

        swept = run_sweep(
            experiments=("fig7",),
            models=("alexnet",),
            cache_dir=tmp_path,
            executor="serial",
            cache_backend="packed",
        )
        config = ServeConfig(
            batch_window_s=0.0,
            hot_cache_size=0,
            cache_dir=tmp_path,
            cache_backend="packed",
        )
        with ServiceRuntime(config) as runtime:
            outcome = runtime.run(RunRequest("fig7", models=("alexnet",)))
            hits = runtime.metrics()["counters"].get("disk_cache_hits", 0)
        assert hits == 1
        assert outcome.result.to_json() == swept.results[0].to_json()

    def test_unknown_cache_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown cache backend"):
            ServeConfig(cache_backend="sqlite")

    def test_metrics_snapshot_shape(self):
        with ServiceRuntime(ServeConfig(batch_window_s=0.0)) as runtime:
            runtime.run(RunRequest("fig7", models=("alexnet",)))
            snapshot = runtime.metrics()
        assert snapshot["counters"]["requests_ok"] == 1
        assert snapshot["derived"]["coalesce_ratio"] == 1.0
        assert snapshot["latency"]["request"]["count"] == 1
        assert snapshot["service"]["sessions"] == 1


# ---------------------------------------------------------------------------
# Components: hot cache and metrics registry
# ---------------------------------------------------------------------------
class TestHotResultCache:
    def test_ttl_expiry(self):
        clock = [0.0]
        cache = HotResultCache(capacity=4, ttl_s=10.0, clock=lambda: clock[0])
        cache.put("a", 1)
        assert cache.get("a") == 1
        clock[0] = 10.0
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = HotResultCache(capacity=2, ttl_s=None)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_capacity_zero_disables(self):
        cache = HotResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None and len(cache) == 0

    def test_invalidate(self):
        cache = HotResultCache(capacity=4, ttl_s=None)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate("a") == 1
        assert cache.invalidate("a") == 0
        assert cache.invalidate() == 1  # clears 'b'

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HotResultCache(capacity=-1)
        with pytest.raises(ValueError):
            HotResultCache(ttl_s=0.0)


class TestMetrics:
    def test_latency_window_percentiles(self):
        window = LatencyWindow()
        for value in range(1, 101):
            window.record(value / 100.0)
        snapshot = window.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["p50_s"] == pytest.approx(0.50, abs=0.02)
        assert snapshot["p99_s"] == pytest.approx(0.99, abs=0.02)
        assert snapshot["max_s"] == pytest.approx(1.0)

    def test_registry_derived_ratios(self):
        registry = MetricsRegistry()
        registry.increment("batches_total", 2)
        registry.increment("batched_requests_total", 6)
        registry.increment("cache_hits", 3)
        registry.increment("cache_misses", 1)
        registry.increment("timeout_total")
        registry.set_gauge("queue_depth", 4)
        registry.observe("request", 0.25)
        snapshot = registry.snapshot()
        assert snapshot["derived"]["coalesce_ratio"] == 3.0
        assert snapshot["derived"]["cache_hit_rate"] == 0.75
        assert snapshot["derived"]["errors_total"] == 1
        assert snapshot["gauges"]["queue_depth"] == 4.0
        assert snapshot["latency"]["request"]["count"] == 1

    def test_empty_registry_snapshot(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot["derived"]["coalesce_ratio"] == 0.0
        assert snapshot["derived"]["cache_hit_rate"] == 0.0


# ---------------------------------------------------------------------------
# ServiceRuntime wrapper
# ---------------------------------------------------------------------------
class TestServiceRuntime:
    def test_threaded_submits_coalesce_and_match_serial(self):
        """Concurrent OS threads (the HTTP shape) coalesce bitwise-correctly."""
        config = ServeConfig(batch_window_s=0.3, hot_cache_size=0)
        outcomes = {}
        with ServiceRuntime(config) as runtime:
            def submit(model):
                outcomes[model] = runtime.run(
                    RunRequest("fig7", models=(model,))
                )

            threads = [
                threading.Thread(target=submit, args=(model,))
                for model in MODELS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            ratio = runtime.metrics()["derived"]["coalesce_ratio"]
        assert set(outcomes) == set(MODELS)
        for model, outcome in outcomes.items():
            expected = direct_result(RunRequest("fig7", models=(model,)))
            assert outcome.result.to_json() == expected.to_json()
        assert ratio >= 1.0  # coalescing is timing-dependent across threads

    def test_run_after_close_raises(self):
        runtime = ServiceRuntime(ServeConfig(batch_window_s=0.0)).start()
        runtime.close()
        with pytest.raises(ServiceClosedError):
            runtime.run(RunRequest("fig7", models=("alexnet",)))

    def test_serve_config_validation(self):
        for kwargs in (
            {"max_queue": 0},
            {"batch_window_s": -1.0},
            {"default_timeout_s": 0.0},
            {"hot_cache_size": -1},
        ):
            with pytest.raises(ValueError):
                ServeConfig(**kwargs)
