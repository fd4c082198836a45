"""The in-process asyncio core of the ``repro.serve`` experiment daemon.

Every ``repro run`` process today pays interpreter startup, registry
construction and workload profiling before its first simulated cycle.  This
module keeps all of that warm in one long-lived service:

* :class:`ExperimentService` -- an asyncio object owning a long-lived
  :class:`~repro.api.sweep.SessionPool` of warm
  :class:`~repro.api.experiment.Experiment` sessions (one per
  (config, seed, engine), so workload sparsity profiles and compiled
  programs are profiled once and reused), an admission-controlled request
  queue with per-request deadlines and bounded backpressure, and a
  **coalescing batcher** that drains compatible queued requests into one
  call of the execution core sweep shards use
  (:func:`repro.api.sweep.execute_points`), which merges them into batched
  :meth:`~repro.api.experiment.Experiment.run` calls riding the
  vectorized :func:`~repro.sim.vectorized.simulate_jobs` kernel -- with
  results byte-identical to one-at-a-time dispatch (pinned by
  ``tests/serve/``);
* :class:`HotResultCache` (see :mod:`repro.serve.cache`) layered over the
  sweep service's content-hash disk cache, so repeated identical requests
  never touch the simulator;
* :class:`MetricsRegistry` (see :mod:`repro.serve.metrics`) recording
  request counts, queue depth, batch sizes, coalesce ratio, latency
  percentiles and cache hit rates;
* :class:`ServiceRuntime` -- a thread-hosted synchronous wrapper (event
  loop on a daemon thread) that the stdlib HTTP façade
  (:mod:`repro.serve.http`), the ``repro serve`` CLI and plain synchronous
  callers use.

Request identity reuses :meth:`repro.api.sweep.SweepPoint.cache_key` -- the
same content hash (experiment, canonical params, seed, engine, full config
digest, schema/package versions) keying the on-disk sweep cache -- so the
hot cache, the disk cache and the sweep service can never disagree about
which requests are "the same experiment".
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..api.experiment import get_experiment_spec
from ..api.results import ExperimentResult, SweepResult, _jsonify
from ..api.sweep import (
    CACHE_BACKENDS,
    DEFAULT_CACHE_BACKEND,
    SessionPool,
    SweepPoint,
    SweepPointError,
    _load_cached,
    _merge_key,
    _store_cached,
    execute_points,
    run_sweep,
)
from ..sim.cycle_model import DEFAULT_ENGINE
from ..sim.engines import resolve_cycle_model_engine
from ..store import PackedResultStore, PackedStoreLockedError
from .cache import HotResultCache
from .metrics import MetricsRegistry

__all__ = [
    "ServeError",
    "RequestValidationError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "RunFailedError",
    "ServeConfig",
    "RunRequest",
    "RunOutcome",
    "ExperimentService",
    "ServiceRuntime",
]


# ---------------------------------------------------------------------------
# Typed errors (each carries the HTTP status the façade maps it to)
# ---------------------------------------------------------------------------
class ServeError(RuntimeError):
    """Base class of every typed serve-layer error.

    The class attribute :attr:`http_status` is the status code the HTTP
    façade responds with when this error reaches a handler.
    """

    #: HTTP status the façade maps this error class to.
    http_status = 500


class RequestValidationError(ServeError):
    """The request is malformed (unknown experiment/config/engine/model)."""

    http_status = 400


class QueueFullError(ServeError):
    """Admission control rejected the request: the queue is at capacity.

    The serve daemon prefers shedding load over unbounded queue growth --
    the HTTP façade maps this to ``503 Service Unavailable`` so clients
    can back off and retry.
    """

    http_status = 503


class DeadlineExceededError(ServeError):
    """The request's deadline expired before a result was produced."""

    http_status = 504


class ServiceClosedError(ServeError):
    """The service is shutting down (or never started); request refused."""

    http_status = 503


class RunFailedError(ServeError):
    """The experiment itself raised while executing; chains the cause."""

    http_status = 500


# ---------------------------------------------------------------------------
# Configuration and request/response records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`ExperimentService` instance.

    Attributes:
        max_queue: admission bound -- requests beyond this many queued (not
            yet dispatched) are rejected with :class:`QueueFullError`.
        batch_window_s: after the first queued request is picked up, the
            batcher keeps collecting compatible requests for this long
            before dispatching one coalesced batch (0 disables the wait;
            requests arriving while a batch executes still coalesce).
        default_timeout_s: per-request deadline applied when the request
            does not carry its own ``timeout_s``.
        hot_cache_size: capacity of the in-memory TTL/LRU result cache
            (0 disables it).
        hot_cache_ttl_s: TTL of hot-cache entries (``None`` never expires).
        cache_dir: optional on-disk result cache shared with the sweep
            service (same content-hash keys); probed on hot-cache misses
            and populated by every computed result.
        cache_backend: layout of ``cache_dir`` -- ``"files"`` (one JSON per
            point) or ``"packed"`` (the append-only
            :class:`repro.store.PackedResultStore`; hot-cache misses read
            it in one batch per dispatch group and computed results are
            appended in one batch).  Shared with ``repro sweep
            --cache-backend``.
        allow_heavy: admit training-based experiments (``table2``; runs for
            minutes and would monopolise the dispatch executor).  Off by
            default for a live service.
    """

    max_queue: int = 64
    batch_window_s: float = 0.005
    default_timeout_s: float = 60.0
    hot_cache_size: int = 256
    hot_cache_ttl_s: Optional[float] = 300.0
    cache_dir: Optional[Union[str, Path]] = None
    cache_backend: str = DEFAULT_CACHE_BACKEND
    allow_heavy: bool = False

    def __post_init__(self) -> None:
        if self.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if self.default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be positive")
        if self.hot_cache_size < 0:
            raise ValueError("hot_cache_size must be >= 0")
        if self.cache_backend not in CACHE_BACKENDS:
            raise ValueError(
                f"unknown cache backend {self.cache_backend!r}; expected "
                f"one of {CACHE_BACKENDS}"
            )


@dataclass(frozen=True)
class RunRequest:
    """One experiment request submitted to the service.

    Attributes:
        experiment: experiment id (``"fig7"``, ``"table4"``, ...).
        models: workload names for model-parameterised experiments
            (``None`` expands to every registered workload at validation).
        config: registered hardware preset name.
        seed: RNG seed of the run.
        engine: registered cycle-model engine (``"vectorized"``,
            ``"scalar"``, or any backend registered via
            :func:`repro.sim.engines.register_engine`).
        params: extra experiment parameters (e.g. ``group_sizes``).
        timeout_s: per-request deadline override (``None`` uses the
            service default).
    """

    experiment: str
    models: Optional[Tuple[str, ...]] = None
    config: str = "paper-28nm"
    seed: int = 0
    engine: str = DEFAULT_ENGINE
    params: Mapping[str, Any] = field(default_factory=dict)
    timeout_s: Optional[float] = None

    def validated(self, allow_heavy: bool = False) -> "RunRequest":
        """Canonicalise and validate the request.

        Resolves the experiment spec, rejects unknown configs/engines/
        workloads and heavy (training) experiments unless admitted, and
        expands ``models=None`` to the full workload list for
        model-parameterised experiments -- so every canonical request has a
        stable :meth:`cache_key` and a well-defined row count (which is
        what makes coalesced row-splitting exact).

        Raises:
            RequestValidationError: naming the offending field.
        """
        from ..api.configs import get_config
        from ..workloads.models import get_workload, list_workloads

        try:
            spec = get_experiment_spec(self.experiment)
        except KeyError as error:
            raise RequestValidationError(str(error.args[0])) from error
        if spec.heavy and not allow_heavy:
            raise RequestValidationError(
                f"experiment {spec.id!r} trains networks (minutes-scale) and "
                "is not admitted by this service; start the daemon with "
                "allow_heavy to enable it"
            )
        try:
            get_config(self.config)
        except (KeyError, TypeError) as error:
            raise RequestValidationError(
                error.args[0] if error.args else str(error)
            ) from error
        try:
            resolve_cycle_model_engine(self.engine)
        except ValueError as error:
            raise RequestValidationError(str(error)) from error
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise RequestValidationError("timeout_s must be positive")
        models = self.models
        if spec.takes_models:
            if models is None:
                names = tuple(str(name) for name in list_workloads())
            else:
                names = tuple(str(name) for name in models)
            if not names:
                raise RequestValidationError(
                    "empty model list; omit 'models' to run every workload"
                )
            for name in names:
                try:
                    get_workload(name)
                except KeyError as error:
                    raise RequestValidationError(
                        str(error.args[0])
                    ) from error
            models = names
        elif models is not None:
            raise RequestValidationError(
                f"experiment {spec.id!r} does not take models"
            )
        extra = dict(self.params)
        if "models" in extra:
            raise RequestValidationError(
                "pass workloads via the 'models' field, not params"
            )
        allowed = set(spec.default_params)
        unknown = set(extra) - allowed
        if unknown:
            raise RequestValidationError(
                f"experiment {spec.id!r} got unexpected parameters "
                f"{sorted(unknown)}; allowed: {sorted(allowed) or 'none'}"
            )
        return RunRequest(
            experiment=spec.id,
            models=models,
            config=str(self.config),
            seed=int(self.seed),
            engine=self.engine,
            params=_jsonify(extra),
            timeout_s=self.timeout_s,
        )

    def point(self) -> SweepPoint:
        """The request as a sweep grid point (canonical cache identity)."""
        params = dict(self.params)
        if self.models is not None:
            params["models"] = list(self.models)
        return SweepPoint(
            experiment=self.experiment,
            config=self.config,
            seed=self.seed,
            params=params,
            engine=self.engine,
        )

    def cache_key(self) -> str:
        """Content hash shared with the sweep disk cache (see
        :meth:`repro.api.sweep.SweepPoint.cache_key`)."""
        return self.point().cache_key()


@dataclass(frozen=True)
class RunOutcome:
    """What the service returns for one successful request.

    Attributes:
        result: the typed experiment result (byte-identical to a direct
            ``Experiment.run`` with the same canonical parameters).
        cache_hit: True when served from the hot (in-memory) cache.
        batch_size: live requests dispatched in the same coalesced batch
            (1 for a solo dispatch; 0 for cache hits).
        latency_s: end-to-end service latency of this request.
    """

    result: ExperimentResult
    cache_hit: bool
    batch_size: int
    latency_s: float


@dataclass
class _Pending:
    """Internal queue entry: one admitted request awaiting dispatch."""

    request: RunRequest
    key: str
    point: SweepPoint
    future: "asyncio.Future[Tuple[ExperimentResult, int]]"
    deadline: float
    enqueued: float


_SHUTDOWN = object()  # queue sentinel terminating the batch loop


# ---------------------------------------------------------------------------
# The asyncio service core
# ---------------------------------------------------------------------------
class ExperimentService:
    """Long-lived async experiment service with request coalescing.

    Lifecycle: construct, ``await start()`` inside a running event loop,
    submit via :meth:`submit` / :meth:`submit_sweep`, and ``await
    close(drain=True)`` to stop -- a draining close finishes every admitted
    request before returning, so no accepted work is ever dropped.

    Dispatch model: a single batcher task pulls admitted requests off the
    queue, waits :attr:`ServeConfig.batch_window_s` for companions, groups
    compatible requests -- same (experiment, seed, engine, non-model
    params), mergeable experiment -- and executes each group through the
    shared execution core (:func:`repro.api.sweep.execute_points`): one
    batched ``Experiment.run`` per configuration, on a dispatch thread (the
    simulation is CPU-bound synchronous NumPy; the event loop stays
    responsive).
    Requests arriving while a batch executes pile up in the queue and
    coalesce into the next batch, which is where the throughput under
    concurrent load comes from.

    Args:
        config: service tunables (:class:`ServeConfig` defaults when
            omitted).
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        self.hot_cache = HotResultCache(
            capacity=self.config.hot_cache_size,
            ttl_s=self.config.hot_cache_ttl_s,
        )
        # One long-lived store instance: the in-memory index makes every
        # hot-cache-miss probe an in-process set lookup (refreshed only
        # when pack.index changes on disk).
        self._store: Optional[PackedResultStore] = (
            PackedResultStore(self.config.cache_dir)
            if self.config.cache_backend == "packed"
            and self.config.cache_dir is not None
            else None
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional["asyncio.Queue[Any]"] = None
        self._batcher: Optional["asyncio.Task[None]"] = None
        self._run_executor: Optional[ThreadPoolExecutor] = None
        self._sweep_executor: Optional[ThreadPoolExecutor] = None
        self._pool = SessionPool()
        self._inflight_sweeps: set = set()
        self._started = False
        self._closing = False
        self.started_at: Optional[float] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "ExperimentService":
        """Bind to the running loop and start the batcher task."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._run_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-run"
        )
        self._sweep_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-serve-sweep"
        )
        self._batcher = self._loop.create_task(
            self._batch_loop(), name="repro-serve-batcher"
        )
        self._started = True
        self._closing = False
        self.started_at = time.monotonic()
        return self

    async def close(self, drain: bool = True) -> None:
        """Stop the service.

        Args:
            drain: finish every admitted request (and in-flight sweep)
                before returning -- the graceful-shutdown path.  With
                ``False``, queued requests fail with
                :class:`ServiceClosedError`.
        """
        if not self._started:
            return
        self._closing = True
        assert self._queue is not None and self._batcher is not None
        if drain:
            self._queue.put_nowait(_SHUTDOWN)
            await self._batcher
            if self._inflight_sweeps:
                await asyncio.gather(
                    *tuple(self._inflight_sweeps), return_exceptions=True
                )
        else:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is not _SHUTDOWN and not item.future.done():
                    item.future.set_exception(
                        ServiceClosedError("service closed before dispatch")
                    )
        for executor in (self._run_executor, self._sweep_executor):
            if executor is not None:
                executor.shutdown(wait=drain, cancel_futures=not drain)
        self._started = False
        self.metrics.set_gauge("queue_depth", 0)

    # -- submission -----------------------------------------------------
    async def submit(self, request: RunRequest) -> RunOutcome:
        """Admit, (possibly) coalesce and execute one experiment request.

        Returns:
            The :class:`RunOutcome` (typed result + serving metadata).

        Raises:
            RequestValidationError: malformed request.
            QueueFullError: admission control rejected the request.
            DeadlineExceededError: the deadline expired first.
            ServiceClosedError: the service is stopping or stopped.
            RunFailedError: the experiment raised while executing.
        """
        if not self._started or self._closing:
            self.metrics.increment("rejected_total")
            raise ServiceClosedError("service is not accepting requests")
        assert self._loop is not None and self._queue is not None
        start = time.monotonic()
        self.metrics.increment("requests_total")
        try:
            request = request.validated(allow_heavy=self.config.allow_heavy)
        except RequestValidationError:
            self.metrics.increment("rejected_total")
            raise
        # One SweepPoint per request: its memoized cache_key serves the hot
        # cache, the disk cache and the journal without re-hashing.
        point = request.point()
        key = point.cache_key()
        cached = self.hot_cache.get(key)
        if cached is not None:
            self.metrics.increment("cache_hits")
            self.metrics.increment("requests_ok")
            latency = time.monotonic() - start
            self.metrics.observe("request", latency)
            return RunOutcome(
                result=cached, cache_hit=True, batch_size=0, latency_s=latency
            )
        self.metrics.increment("cache_misses")
        if self._queue.qsize() >= self.config.max_queue:
            self.metrics.increment("rejected_total")
            raise QueueFullError(
                f"request queue is full ({self.config.max_queue} pending); "
                "retry later"
            )
        timeout = request.timeout_s or self.config.default_timeout_s
        pending = _Pending(
            request=request,
            key=key,
            point=point,
            future=self._loop.create_future(),
            deadline=time.monotonic() + timeout,
            enqueued=start,
        )
        self._queue.put_nowait(pending)
        self.metrics.set_gauge("queue_depth", self._queue.qsize())
        try:
            result, batch_size = await asyncio.wait_for(
                asyncio.shield(pending.future), timeout=timeout
            )
        except asyncio.TimeoutError:
            pending.future.cancel()
            self.metrics.increment("timeout_total")
            raise DeadlineExceededError(
                f"request missed its {timeout:.3f}s deadline "
                f"({request.experiment!r} on {request.config!r})"
            ) from None
        except DeadlineExceededError:
            self.metrics.increment("timeout_total")
            raise
        except ServeError:
            raise
        latency = time.monotonic() - start
        self.metrics.increment("requests_ok")
        self.metrics.observe("request", latency)
        return RunOutcome(
            result=result,
            cache_hit=False,
            batch_size=batch_size,
            latency_s=latency,
        )

    async def submit_sweep(self, **kwargs: Any) -> SweepResult:
        """Run a sweep grid on the sweep executor (off the event loop).

        Accepts the keyword arguments of :func:`repro.api.sweep.run_sweep`.
        Concurrent sweeps sharing a journal path fail fast via the
        journal's exclusive lock
        (:class:`~repro.api.sweep.SweepJournalLockedError`).

        Raises:
            ServiceClosedError: the service is stopping or stopped.
            RequestValidationError: unknown sweep parameter name.
        """
        if not self._started or self._closing:
            raise ServiceClosedError("service is not accepting requests")
        assert self._loop is not None and self._sweep_executor is not None
        allowed = {
            "experiments", "models", "configs", "seeds", "max_workers",
            "cache_dir", "params_by_experiment", "engine", "executor",
            "shards", "journal", "resume", "cache_backend",
            "transport", "sweep_dir", "transport_options",
        }
        unknown = set(kwargs) - allowed
        if unknown:
            raise RequestValidationError(
                f"unknown sweep parameters {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        self.metrics.increment("sweeps_total")
        started = time.monotonic()
        future = self._loop.run_in_executor(
            self._sweep_executor, functools.partial(run_sweep, **kwargs)
        )
        self._inflight_sweeps.add(future)
        try:
            result = await future
        except Exception:
            self.metrics.increment("sweep_failures_total")
            raise
        finally:
            self._inflight_sweeps.discard(future)
        self.metrics.observe("sweep", time.monotonic() - started)
        return result

    def snapshot(self) -> Dict[str, Any]:
        """Live metrics snapshot plus instantaneous service state."""
        payload = self.metrics.snapshot()
        payload["service"] = {
            "started": self._started,
            "closing": self._closing,
            "uptime_s": (
                time.monotonic() - self.started_at
                if self.started_at is not None
                else 0.0
            ),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "sessions": len(self._pool),
            "hot_cache_entries": len(self.hot_cache),
            "max_queue": self.config.max_queue,
            "batch_window_s": self.config.batch_window_s,
        }
        return payload

    # -- batching -------------------------------------------------------
    @staticmethod
    def _coalesce_key(point: SweepPoint) -> Optional[Tuple[Any, ...]]:
        """Compatibility bucket of a request, or ``None`` when standalone.

        The execution core's merge criterion
        (:func:`repro.api.sweep._merge_key`) plus the seed and engine: only
        mergeable experiments coalesce, and the bucket pins everything
        except the model list *and the hardware configuration*.  The core
        runs each configuration of a bucket on its own session, so a merged
        run differs from the solo runs only by model concatenation (which
        the vectorized kernel evaluates elementwise per layer -- hence
        byte-identical splitting).
        """
        merge = _merge_key(point)
        if merge is None:
            return None
        return (merge, point.seed, point.engine)

    async def _batch_loop(self) -> None:
        """The batcher task: collect -> group -> dispatch, forever."""
        assert self._queue is not None and self._loop is not None
        stop = False
        while not stop:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                break
            batch: List[_Pending] = [item]
            if self.config.batch_window_s > 0:
                window_end = time.monotonic() + self.config.batch_window_s
                while True:
                    remaining = window_end - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        extra = await asyncio.wait_for(
                            self._queue.get(), timeout=remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    if extra is _SHUTDOWN:
                        stop = True
                        break
                    batch.append(extra)
            while not stop:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _SHUTDOWN:
                    stop = True
                    break
                batch.append(extra)
            self.metrics.set_gauge("queue_depth", self._queue.qsize())
            await self._dispatch(batch)

    async def _dispatch(self, batch: List[_Pending]) -> None:
        """Group one drained batch and execute each group on the executor."""
        assert self._loop is not None and self._run_executor is not None
        groups: Dict[Any, List[_Pending]] = {}
        standalone: List[List[_Pending]] = []
        for pending in batch:
            key = self._coalesce_key(pending.point)
            if key is None:
                standalone.append([pending])
            else:
                groups.setdefault(key, []).append(pending)
        for group in list(groups.values()) + standalone:
            now = time.monotonic()
            live: List[_Pending] = []
            for pending in group:
                if pending.future.done():
                    continue  # caller gave up (deadline raced the batcher)
                if now >= pending.deadline:
                    pending.future.set_exception(
                        DeadlineExceededError(
                            "deadline expired while queued "
                            f"({pending.request.experiment!r})"
                        )
                    )
                    continue
                live.append(pending)
            if not live:
                continue
            self.metrics.increment("batches_total")
            self.metrics.increment("batched_requests_total", len(live))
            self.metrics.observe("batch_size", float(len(live)))
            started = time.monotonic()
            try:
                outcomes = await self._loop.run_in_executor(
                    self._run_executor, self._execute_group, live
                )
            except Exception as error:
                # Fail this group only; the batcher keeps serving.
                failure = RunFailedError(
                    f"dispatch failed: {type(error).__name__}: {error}"
                )
                failure.__cause__ = error
                outcomes = [failure] * len(live)
            self.metrics.observe("batch_execute", time.monotonic() - started)
            for pending, outcome in zip(live, outcomes):
                if isinstance(outcome, Exception):
                    self.metrics.increment("failed_total")
                    if not pending.future.done():
                        pending.future.set_exception(outcome)
                else:
                    self.hot_cache.put(pending.key, outcome)
                    if not pending.future.done():
                        pending.future.set_result((outcome, len(live)))

    # -- synchronous execution (dispatch thread) ------------------------
    def _execute_group(
        self, group: Sequence[_Pending]
    ) -> List[Union[ExperimentResult, Exception]]:
        """Execute one compatible group synchronously (on the executor).

        The disk cache (when configured) is probed first -- on the packed
        backend that is ONE batched
        :meth:`~repro.store.PackedResultStore.get_many` read for the whole
        group, the same store a ``repro sweep --cache-backend packed``
        populates.  The misses run through the shared execution core
        (:func:`repro.api.sweep.execute_points`) on the service's
        long-lived session pool, which deduplicates equal requests, runs
        each configuration on its own warm session and merges compatible
        requests into one batched run -- so coalesced and solo dispatch
        produce identical results.  Computed results are written back
        best-effort, and a failed point maps to :class:`RunFailedError`.
        """
        if len({pending.request.config for pending in group}) > 1:
            self.metrics.increment("cross_config_groups")
        outcomes: Dict[str, Union[ExperimentResult, Exception]] = dict(
            self._probe_disk(group)
        )
        misses = [p for p in group if p.key not in outcomes]
        computed = execute_points([p.point for p in misses], self._pool)
        self.metrics.set_gauge("sessions", len(self._pool))
        fresh: List[Tuple[SweepPoint, ExperimentResult]] = []
        for pending, outcome in zip(misses, computed):
            if pending.key in outcomes:
                continue  # a duplicate request; the core ran it once
            if isinstance(outcome, SweepPointError):
                failure = RunFailedError(str(outcome))
                failure.__cause__ = outcome.__cause__
                outcomes[pending.key] = failure
            else:
                outcomes[pending.key] = outcome
                fresh.append((pending.point, outcome))
        self._persist(fresh)
        return [outcomes[pending.key] for pending in group]

    def _probe_disk(
        self, group: Sequence[_Pending]
    ) -> Dict[str, ExperimentResult]:
        """Disk-cache hits of a group's distinct requests, by cache key.

        Reading is best-effort like writing: a pack that cannot be read
        (an ``OSError``) warns and counts as all misses, as an unreadable
        per-file entry does in :func:`repro.api.sweep._load_cached`.
        """
        cache_dir = self.config.cache_dir
        if cache_dir is None:
            return {}
        points = {pending.key: pending.point for pending in group}
        if self._store is not None:
            try:
                self._store.maybe_refresh()
                found = self._store.get_many(points)
            except OSError as error:
                warnings.warn(
                    f"skipping result-cache read ({type(error).__name__}: "
                    f"{error}); recomputing",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return {}
        else:
            found = {}
            for key, point in points.items():
                cached = _load_cached(point, cache_dir)
                if cached is not None:
                    found[key] = cached
        if found:
            self.metrics.increment("disk_cache_hits", len(found))
        return found

    def _persist(
        self, fresh: Sequence[Tuple[SweepPoint, ExperimentResult]]
    ) -> None:
        """Write computed results to the disk cache, best-effort.

        One batched store append on the packed backend, one per-file write
        each otherwise.  Persisting must never fail a live request: a
        concurrent writer holding the pack lock or any ``OSError`` (a full
        disk, a ``cache_dir`` that is not a directory) is reported with a
        :class:`RuntimeWarning` and the results are served from memory.
        """
        cache_dir = self.config.cache_dir
        if cache_dir is None or not fresh:
            return
        try:
            if self._store is not None:
                self._store.append_many(
                    [(point.cache_key(), result) for point, result in fresh]
                )
            else:
                for point, result in fresh:
                    _store_cached(point, result, cache_dir)
        except (PackedStoreLockedError, OSError) as error:
            warnings.warn(
                f"skipping result-cache write ({type(error).__name__}: "
                f"{error}); results served from memory only",
                RuntimeWarning,
                stacklevel=2,
            )


# ---------------------------------------------------------------------------
# Thread-hosted synchronous wrapper
# ---------------------------------------------------------------------------
class ServiceRuntime:
    """A running :class:`ExperimentService` on a dedicated loop thread.

    This is the deployment shape of the service: the asyncio core runs on
    one daemon thread while synchronous callers -- the stdlib HTTP façade's
    handler threads, the CLI, tests, benchmarks -- submit through
    :func:`asyncio.run_coroutine_threadsafe` bridges.

    Use as a context manager, or call :meth:`start` / :meth:`close`::

        with ServiceRuntime() as runtime:
            outcome = runtime.run(RunRequest("fig7", models=("alexnet",)))

    Args:
        config: service tunables (:class:`ServeConfig` defaults when
            omitted).
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.service = ExperimentService(config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True
        )
        self._started = False

    def _run_loop(self) -> None:
        """Loop-thread body: run the event loop until :meth:`close`."""
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def start(self) -> "ServiceRuntime":
        """Start the loop thread and the service (idempotent)."""
        if self._started:
            return self
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.service.start(), self._loop
        ).result(timeout=10)
        self._started = True
        return self

    def __enter__(self) -> "ServiceRuntime":
        """Context-manager entry: :meth:`start`."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: draining :meth:`close`."""
        self.close()

    def run(self, request: RunRequest) -> RunOutcome:
        """Submit one request and block for its outcome (typed errors
        propagate unchanged)."""
        if not self._started:
            raise ServiceClosedError("runtime is not started")
        return asyncio.run_coroutine_threadsafe(
            self.service.submit(request), self._loop
        ).result()

    def sweep(self, **kwargs: Any) -> SweepResult:
        """Run a sweep through the service (see
        :meth:`ExperimentService.submit_sweep`)."""
        if not self._started:
            raise ServiceClosedError("runtime is not started")
        return asyncio.run_coroutine_threadsafe(
            self.service.submit_sweep(**kwargs), self._loop
        ).result()

    def metrics(self) -> Dict[str, Any]:
        """Live metrics snapshot (see :meth:`ExperimentService.snapshot`)."""
        return self.service.snapshot()

    def close(self, drain: bool = True) -> None:
        """Stop the service (draining by default) and the loop thread."""
        if not self._started:
            return
        self._started = False
        asyncio.run_coroutine_threadsafe(
            self.service.close(drain=drain), self._loop
        ).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
