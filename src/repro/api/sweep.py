"""Sharded, process-parallel sweep service with resumable JSONL journaling.

Regenerating the paper's whole evaluation section -- or a design-space grid
of it -- is a fan-out of independent experiment points.  This module turns
that fan-out into a small *service*:

* :func:`build_grid` expands (experiments x models x configs x seeds) into
  :class:`SweepPoint` s, splitting the model-parameterised experiments into
  one point per model so the fan-out is maximally parallel;
* :class:`ShardPlanner` partitions the grid into :class:`SweepShard` s keyed
  by **cache state**: points whose on-disk cache entry already exists land
  in cheap warm (I/O-bound) shards, cold points are grouped by
  (config, seed, engine) -- so one worker session amortises configuration
  construction and profile caching across a whole shard -- and chunked to
  the requested shard count;
* :func:`execute_points` is the execution core shared by sweep shards and
  the serve daemon's coalesced batches: points are grouped onto pooled
  per-(config, seed, engine) sessions (:class:`SessionPool`), mergeable
  points of one experiment are merged into **one batched**
  ``Experiment.run`` call that rides the vectorized engine's
  :func:`repro.sim.vectorized.simulate_jobs` shard-sized kernel, and the
  per-point results are split back out (bitwise identical to point-at-a-time
  execution -- the vectorized kernel is elementwise per layer);
* :func:`run_shard` executes one shard's points through
  :func:`execute_points`, cache-less -- the coordinator owns the cache;
* :func:`run_sweep` restores warm points in one batched store read and
  dispatches the cold shards over a pluggable *shard
  transport* (:mod:`repro.dist`) -- ``"process"``
  (:class:`~concurrent.futures.ProcessPoolExecutor`, the fast path for
  cold CPU-bound sweeps: the cycle model holds the GIL in pure-Python
  mapping code, so threads serialise), ``"thread"`` (warm-cache /
  I/O-bound sweeps; keeps user-registered presets visible without
  shipping them), ``"serial"``, or ``"broker"`` (a distributed
  lease-and-requeue fabric coordinating ``repro worker`` processes over a
  shared ``sweep_dir``; every transport produces byte-identical results)
  -- and, when a ``journal`` path is given, streams every finished shard to
  an append-only ``sweep.jsonl`` (:class:`SweepJournal`).  An
  interrupted sweep re-invoked with
  ``resume=True`` restores journaled points without recomputing them and
  reproduces the uninterrupted run's ``results`` byte-for-byte (the whole
  serialised :class:`~repro.api.results.SweepResult` when journaling
  without a pre-populated cache; the hit/miss counters report the work
  each invocation actually performed).

The on-disk result cache is the packed store
(:class:`repro.store.PackedResultStore`), keyed by a content hash of the
point (experiment id, canonical parameters, seed, engine, schema/package
versions and the full hardware configuration digest).  Every cache access
goes through one best-effort helper pair, :func:`_load_cached` /
:func:`_store_cached`: an unreadable or unusable cache warns and reads as
misses, and a failed write warns and leaves the results uncached, instead
of failing the sweep or poisoning later runs.

Example::

    from repro.api import run_sweep

    sweep = run_sweep(experiments=("fig7",), transport="process",
                      cache_dir=".repro-cache", journal="sweep.jsonl")
    for result in sweep.filter("fig7"):
        print(result.params["models"], result.rows[0].speedup["hybrid"])
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..arch.config import DBPIMConfig
from ..dist.locks import PidFileLock, pid_alive
from ..dist.transport import (
    DEFAULT_TRANSPORT,
    ShardTransport,
    get_transport,
    transport_names,
)
from ..sim.cycle_model import DEFAULT_ENGINE
from ..sim.engines import get_engine, resolve_cycle_model_engine
from ..store import PackedResultStore, PackedStoreError
from .configs import config_digest, get_config, register_config
from .experiment import EXPERIMENTS, Experiment, get_experiment_spec
from .results import (
    SCHEMA_VERSION,
    ExperimentResult,
    SweepResult,
    SweepStats,
    _jsonify,
)

__all__ = [
    "DEFAULT_SWEEP_EXPERIMENTS",
    "DEFAULT_TRANSPORT",
    "SweepPoint",
    "SweepShard",
    "ShardPlan",
    "ShardPlanner",
    "SweepJournal",
    "SweepJournalLockedError",
    "SweepPointError",
    "SessionPool",
    "build_grid",
    "cache_keys_for_grid",
    "execute_points",
    "run_point",
    "run_shard",
    "run_sweep",
]

#: Experiments included in a sweep by default: everything except the
#: training-based accuracy study (minutes-scale; opt in explicitly).
DEFAULT_SWEEP_EXPERIMENTS = (
    "fig2a",
    "fig2b",
    "fig7",
    "table1",
    "table3",
    "table4",
    "program",
    "graph",
)

@dataclass(frozen=True)
class SweepPoint:
    """One independent cell of a sweep grid.

    Attributes:
        experiment: experiment id (``"fig7"``, ``"table4"``, ...).
        config: registered hardware preset name.
        seed: RNG seed of the point.
        params: extra experiment parameters (canonicalised to JSON types).
        engine: registered cycle-model engine evaluating the point
            (``"vectorized"``, ``"scalar"``, or any backend registered via
            :func:`repro.sim.engines.register_engine`).
    """

    experiment: str
    config: str = "paper-28nm"
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _jsonify(dict(self.params)))
        resolve_cycle_model_engine(self.engine)

    def describe(self) -> str:
        """One-line human identification of the point (used by errors)."""
        return (
            f"experiment={self.experiment!r} config={self.config!r} "
            f"seed={self.seed} engine={self.engine!r} params={self.params!r}"
        )

    def cache_key(self) -> str:
        """Content hash identifying this point's result in the cache.

        Covers the experiment id, canonical parameters, seed, the engine's
        registered cache token (:attr:`repro.sim.engines.EngineSpec.cache_token`,
        the engine name by default -- so historical keys are byte-for-byte
        stable, pinned by ``tests/engines/test_cache_keys.py``), the full
        configuration contents (not just the preset name), the result
        schema version and the package version -- so renaming a preset is
        harmless while changing its contents, switching engines, bumping an
        engine's cache token, or upgrading to a release whose simulator
        produces different numbers, invalidates the cached entries.  (The
        engines are pinned numerically identical, but keying them
        separately keeps the cache trustworthy even while one of them is
        being modified.)

        The key is memoized on the instance after the first call (the
        point is frozen, so it can never change): the planner, the cache
        and the journal all ask for it, and re-hashing the full configuration
        digest each time dominated the warm path.  Grids compute keys in
        one batch via :func:`cache_keys_for_grid`.
        """
        memo = self.__dict__.get("_cache_key")
        if memo is None:
            from .. import __version__

            payload = {
                "schema_version": SCHEMA_VERSION,
                "version": __version__,
                "experiment": self.experiment,
                "params": self.params,
                "seed": self.seed,
                "engine": get_engine(self.engine).cache_token,
                "config_digest": config_digest(get_config(self.config)),
            }
            canonical = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            memo = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_cache_key", memo)
        return memo


class SweepPointError(RuntimeError):
    """One grid point failed; carries the offending :class:`SweepPoint`.

    Raised by :func:`run_shard` / :func:`run_sweep` instead of letting an
    anonymous worker traceback surface after the whole grid drains: the
    message identifies the failing (experiment, config, seed, engine,
    params) cell and chains the original exception, and outstanding shard
    futures are cancelled.

    Attributes:
        point: the failed point (``None`` when unknown).
        completed: the failing shard's successful ``(grid index, result,
            cache_hit)`` outcomes, which :func:`run_sweep` caches before
            re-raising (empty outside a shard).
    """

    def __init__(
        self,
        message: str,
        point: Optional[SweepPoint] = None,
        completed: Sequence[Tuple[int, ExperimentResult, bool]] = (),
    ) -> None:
        super().__init__(message)
        self.point = point
        self.completed = tuple(completed)

    def __reduce__(self):
        """Preserve ``point`` and ``completed`` across process boundaries."""
        return (type(self), (self.args[0], self.point, self.completed))


def build_grid(
    experiments: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    configs: Sequence[str] = ("paper-28nm",),
    seeds: Sequence[int] = (0,),
    params_by_experiment: Optional[Mapping[str, Mapping[str, Any]]] = None,
    engine: str = DEFAULT_ENGINE,
) -> List[SweepPoint]:
    """Expand a sweep request into independent grid points.

    Model-parameterised experiments become one point per model (so five
    models of Fig. 7 fan out to five workers); model-free experiments
    (Table 1, Table 4) contribute a single point per (config, seed).

    Args:
        experiments: experiment ids (default: every non-training experiment).
        models: workload names (default: all five paper models).
        configs: registered preset names.
        seeds: RNG seeds.
        params_by_experiment: extra per-experiment parameters, e.g.
            ``{"table2": {"epochs": 4}}``.
        engine: cycle-model engine evaluating every point (part of each
            point's cache key).
    """
    ids = tuple(experiments) if experiments is not None else DEFAULT_SWEEP_EXPERIMENTS
    extra = dict(params_by_experiment or {})
    resolve_cycle_model_engine(engine)  # validate eagerly, with suggestions
    if models is not None:
        if not models:
            raise ValueError(
                "empty model list; pass None (or omit the argument) to sweep "
                "every workload"
            )
        for model in models:
            _get_workload(model)  # validate eagerly, before any worker starts
    points: List[SweepPoint] = []
    for config in configs:
        get_config(config)  # validate eagerly, before any worker starts
        for seed in seeds:
            for experiment in ids:
                spec = get_experiment_spec(experiment)
                overrides = dict(extra.get(spec.id, {}))
                model_list = tuple(models) if models is not None else _all_models()
                if spec.takes_models and not spec.aggregates_models:
                    for model in model_list:
                        points.append(
                            SweepPoint(
                                experiment=spec.id,
                                config=config,
                                seed=int(seed),
                                params={**overrides, "models": [model]},
                                engine=engine,
                            )
                        )
                elif spec.takes_models:
                    # Experiments that aggregate across models (e.g. the
                    # Table 3 DB-PIM column) keep the list in one point so
                    # sweep results match a direct `Experiment.run`.
                    points.append(
                        SweepPoint(
                            experiment=spec.id,
                            config=config,
                            seed=int(seed),
                            params={**overrides, "models": list(model_list)},
                            engine=engine,
                        )
                    )
                else:
                    points.append(
                        SweepPoint(
                            experiment=spec.id,
                            config=config,
                            seed=int(seed),
                            params=overrides,
                            engine=engine,
                        )
                    )
    return points


def cache_keys_for_grid(points: Sequence[SweepPoint]) -> Tuple[str, ...]:
    """Compute every point's :meth:`~SweepPoint.cache_key` in one batch.

    Byte-identical to calling ``point.cache_key()`` per point (pinned by
    the goldens in ``tests/engines/test_cache_keys.py``), but the shared
    payload pieces are canonicalised **once per distinct value** instead of
    once per point: the engine cache token, the experiment id and -- the
    expensive one -- the full configuration digest
    (:func:`repro.api.configs.config_digest` serialises the entire nested
    configuration) are each JSON-encoded once per (engine, experiment,
    config) seen in the grid, and the canonical payload is assembled by
    string splicing in the exact key order ``json.dumps(...,
    sort_keys=True)`` would produce.  Each computed key is memoized on its
    (frozen) point, so later ``point.cache_key()`` calls are lookups.
    """
    from .. import __version__

    dumps = json.dumps
    # json.dumps(payload, sort_keys=True, separators=(",", ":")) emits the
    # keys alphabetically: config_digest < engine < experiment < params <
    # schema_version < seed < version.  The splice below reproduces that
    # byte stream exactly; scalar/string fragments need no separators.
    schema_seed = ',"schema_version":' + dumps(SCHEMA_VERSION) + ',"seed":'
    version_tail = ',"version":' + dumps(__version__) + "}"
    engine_memo: Dict[str, str] = {}
    config_memo: Dict[str, str] = {}
    experiment_memo: Dict[str, str] = {}
    keys: List[str] = []
    for point in points:
        memo = point.__dict__.get("_cache_key")
        if memo is not None:
            keys.append(memo)
            continue
        engine_json = engine_memo.get(point.engine)
        if engine_json is None:
            engine_json = dumps(get_engine(point.engine).cache_token)
            engine_memo[point.engine] = engine_json
        digest_json = config_memo.get(point.config)
        if digest_json is None:
            digest_json = dumps(config_digest(get_config(point.config)))
            config_memo[point.config] = digest_json
        experiment_json = experiment_memo.get(point.experiment)
        if experiment_json is None:
            experiment_json = dumps(point.experiment)
            experiment_memo[point.experiment] = experiment_json
        canonical = (
            '{"config_digest":'
            + digest_json
            + ',"engine":'
            + engine_json
            + ',"experiment":'
            + experiment_json
            + ',"params":'
            + dumps(point.params, sort_keys=True, separators=(",", ":"))
            + schema_seed
            + dumps(point.seed)
            + version_tail
        )
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        object.__setattr__(point, "_cache_key", key)
        keys.append(key)
    return tuple(keys)


def _all_models() -> Tuple[str, ...]:
    from ..workloads.models import list_workloads

    return tuple(list_workloads())


def _get_workload(name: str):
    from ..workloads.models import get_workload

    return get_workload(name)


# ---------------------------------------------------------------------------
# Result cache (one packed store, best-effort batched reads and writes)
# ---------------------------------------------------------------------------
def _open_store(
    cache_dir: Optional[Union[str, Path]]
) -> Optional[PackedResultStore]:
    """The result cache of ``cache_dir`` (``None`` disables caching)."""
    return PackedResultStore(cache_dir) if cache_dir is not None else None


def _warn_cache(action: str, error: Exception, consequence: str) -> None:
    """Report a cache access that failed and was skipped."""
    warnings.warn(
        f"skipping result-cache {action} ({type(error).__name__}: {error}); "
        f"{consequence}",
        RuntimeWarning,
        stacklevel=3,
    )


def _load_cached(
    store: Optional[PackedResultStore], keys: Iterable[str]
) -> Dict[str, ExperimentResult]:
    """The cached results of ``keys`` present in ``store``, by cache key.

    One batched read (:meth:`~repro.store.PackedResultStore.get_many`),
    after re-reading the index if another process appended since.  Reading
    is best-effort: a pack that cannot be read (an ``OSError``) or used at
    all (a :class:`~repro.store.PackedStoreError`: bad magic, unsupported
    codec, a migration blocked by another writer) warns and reads as all
    misses, and a damaged record is a miss (the store warns).
    """
    if store is None:
        return {}
    try:
        store.maybe_refresh()
        return store.get_many(keys)
    except (OSError, PackedStoreError) as error:
        _warn_cache("read", error, "recomputing")
        return {}


def _store_cached(
    store: Optional[PackedResultStore],
    entries: Sequence[Tuple[str, ExperimentResult]],
) -> Dict[str, Tuple[int, int]]:
    """Append ``(cache_key, result)`` entries to ``store`` in one batch.

    Writing is best-effort: a concurrent writer holding the pack lock, an
    unusable pack or any ``OSError`` (a full disk, a ``cache_dir`` that is
    not a directory) warns and leaves the results uncached.

    Returns:
        ``{cache_key: (offset, length)}`` store locations of ``entries``
        (slim journal records carry them); empty when nothing was written.
    """
    if store is None or not entries:
        return {}
    try:
        return store.append_many(entries)
    except (OSError, PackedStoreError) as error:
        _warn_cache("write", error, "the results are not persisted")
        return {}


def run_point(
    point: SweepPoint, cache_dir: Optional[Union[str, Path]] = None
) -> Tuple[ExperimentResult, bool]:
    """Execute (or load) one grid point.

    Returns:
        ``(result, cache_hit)`` -- ``cache_hit`` is True when the result was
        read from the on-disk cache without running any simulation.
    """
    store = _open_store(cache_dir)
    key = point.cache_key()
    cached = _load_cached(store, (key,)).get(key)
    if cached is not None:
        return cached, True
    session = Experiment(
        config=point.config, seed=point.seed, engine=point.engine
    )
    result = session.run(point.experiment, **point.params)
    _store_cached(store, [(key, result)])
    return result, False


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepShard:
    """A contiguous batch of grid points executed by one worker.

    Attributes:
        index: shard sequence number (stable across identical plans).
        indices: positions of the shard's points in the original grid.
        points: the grid points, in grid order.
        warm: True when every point had an on-disk cache entry at planning
            time (the coordinator restores such points itself).
        configs: the resolved ``(preset name, configuration)`` pairs of the
            shard's points.  Shipped with the shard so a process worker --
            whose fresh interpreter only knows the built-in presets -- can
            register user-defined presets before executing.
    """

    index: int
    indices: Tuple[int, ...]
    points: Tuple[SweepPoint, ...]
    warm: bool = False
    configs: Tuple[Tuple[str, DBPIMConfig], ...] = ()

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ShardPlan:
    """The output of :meth:`ShardPlanner.plan`.

    Attributes:
        shards: the shards to execute, in planning order.
        journaled: grid indices whose results were restored from the run
            journal (excluded from every shard).
        cache_keys: the content hash of every grid point, in grid order
            (computed once here so execution and journaling reuse them).
    """

    shards: Tuple[SweepShard, ...]
    journaled: Tuple[int, ...]
    cache_keys: Tuple[str, ...]

    @property
    def cold_points(self) -> int:
        """Points that will run the simulator (no cache entry at plan time)."""
        return sum(len(s) for s in self.shards if not s.warm)

    @property
    def warm_points(self) -> int:
        """Points expected to restore from the on-disk cache."""
        return sum(len(s) for s in self.shards if s.warm)


class ShardPlanner:
    """Partition a sweep grid into executable shards keyed by cache state.

    The planner is deterministic: the same grid, cache state and journal
    state always produce an identical :class:`ShardPlan` (pinned by the
    service tests), which is what makes interrupted sweeps resumable.

    Points are partitioned in three steps:

    1. points already present in the run journal are set aside (their
       results are restored without touching a worker);
    2. the remainder is split by cache state -- *warm* points (cache entry
       exists) are grouped separately from *cold* points; the coordinator
       restores warm points itself, so workers only ever run cold ones;
    3. within each temperature, points are grouped by ``(seed, engine)``
       -- configurations deliberately stay *mixed* inside one group, so
       cold points that differ only in config land on one worker whose
       per-config sessions share one workload-profile cache (see
       :class:`SessionPool`) -- and each group is chunked into shards of
       roughly ``total / shards`` points, preserving grid order.

    The warm/cold split costs ONE batched cache probe for the whole grid,
    not one ``stat`` per point: the grid's keys are intersected with the
    store's in-memory index (:meth:`repro.store.PackedResultStore.probe`).

    Args:
        cache_dir: the sweep's on-disk result cache (``None`` disables the
            warm/cold split; every point plans as cold).
        shards: target shard count per temperature (default: twice the
            worker count, so the pool stays busy while shards finish at
            different speeds).
        max_workers: the worker count the sweep will run with (used only to
            derive the default shard count).
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        shards: Optional[int] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        if shards is not None and shards <= 0:
            raise ValueError("shards must be positive")
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.shards = shards
        self.max_workers = max_workers
        self.store = _open_store(self.cache_dir)

    def _probe_cache(self, keys: Sequence[str]) -> frozenset:
        """The subset of ``keys`` with a cache entry -- one batched probe.

        Best-effort like :func:`_load_cached`: an unreadable or unusable
        store warns and plans every point cold.
        """
        if self.store is None:
            return frozenset()
        try:
            return self.store.probe(keys)
        except (OSError, PackedStoreError) as error:
            _warn_cache("read", error, "planning every point cold")
            return frozenset()

    def _target_shards(self) -> int:
        """The shard count used when none was requested explicitly."""
        if self.shards is not None:
            return self.shards
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, workers * 2)

    def plan(
        self,
        grid: Sequence[SweepPoint],
        journaled_keys: Optional[Sequence[str]] = None,
    ) -> ShardPlan:
        """Partition ``grid`` into shards.

        Args:
            grid: the sweep points, in grid order (see :func:`build_grid`).
            journaled_keys: cache keys already present in the run journal;
                matching points are excluded from every shard and reported
                via :attr:`ShardPlan.journaled`.
        """
        keys = cache_keys_for_grid(grid)
        known = frozenset(journaled_keys or ())
        present = self._probe_cache(keys)
        journaled: List[int] = []
        # (warm, seed, engine) -> [(grid index, point)]; configs mix inside
        # a group so one worker profiles each workload once for all of them.
        groups: Dict[Tuple[bool, int, str], List[Tuple[int, SweepPoint]]] = {}
        totals = {True: 0, False: 0}
        for index, (point, key) in enumerate(zip(grid, keys)):
            if key in known:
                journaled.append(index)
                continue
            warm = key in present
            group_key = (warm, point.seed, point.engine)
            groups.setdefault(group_key, []).append((index, point))
            totals[warm] += 1

        target = self._target_shards()
        chunk_sizes = {
            warm: max(1, -(-total // target)) for warm, total in totals.items()
        }
        shards: List[SweepShard] = []
        for (warm, _seed, _engine), members in groups.items():
            size = chunk_sizes[warm]
            for start in range(0, len(members), size):
                chunk = members[start : start + size]
                resolved: Dict[str, DBPIMConfig] = {}
                for _, point in chunk:
                    if point.config not in resolved:
                        resolved[point.config] = get_config(point.config)
                shards.append(
                    SweepShard(
                        index=len(shards),
                        indices=tuple(i for i, _ in chunk),
                        points=tuple(p for _, p in chunk),
                        warm=warm,
                        configs=tuple(resolved.items()),
                    )
                )
        return ShardPlan(
            shards=tuple(shards),
            journaled=tuple(journaled),
            cache_keys=keys,
        )


# ---------------------------------------------------------------------------
# Execution core (shared by sweep shards and served batches)
# ---------------------------------------------------------------------------
#: Experiments whose model-list points may be merged into one batched
#: ``Experiment.run`` call: per-model rows are computed independently (and,
#: on the vectorized engine, elementwise per layer), so the merged run is
#: bitwise identical to point-at-a-time execution.  The training-based
#: experiments are excluded defensively.
_MERGEABLE_EXPERIMENTS = frozenset(
    spec.id
    for spec in EXPERIMENTS.values()
    if spec.takes_models and not spec.aggregates_models and not spec.heavy
)


def _session_key(point: SweepPoint) -> Tuple[str, int, str]:
    """The (config, seed, engine) triple one session is built from."""
    return (point.config, point.seed, point.engine)


def _merge_key(point: SweepPoint) -> Optional[Tuple[str, str]]:
    """Batch-merge bucket of a point, or ``None`` when not mergeable.

    Mergeable points name their models explicitly for a mergeable
    experiment; the bucket key includes every non-model parameter so only
    runs with identical extra parameters are batched together.  It leaves
    out the configuration, seed and engine, which the session already pins.
    """
    if point.experiment not in _MERGEABLE_EXPERIMENTS:
        return None
    models = point.params.get("models")
    if not isinstance(models, list) or not models:
        return None
    rest = {k: v for k, v in point.params.items() if k != "models"}
    canonical = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    return (point.experiment, canonical)


class SessionPool:
    """Warm :class:`~repro.api.experiment.Experiment` sessions, one per
    (config, seed, engine).

    A session for a new configuration is cloned from an existing
    same-(seed, engine) session via
    :meth:`~repro.api.experiment.Experiment.with_config`, so every
    configuration of one seed and engine shares one workload-profile cache
    and a design-space grid profiles each workload once.  A sweep shard
    uses a fresh pool; the serve daemon keeps one for its whole lifetime.
    Lookups are thread-safe.
    """

    def __init__(self) -> None:
        self._sessions: Dict[Tuple[str, int, str], Experiment] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._sessions)

    def get(self, config: str, seed: int, engine: str) -> Experiment:
        """The session of (config, seed, engine), created on demand."""
        key = (config, seed, engine)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                for (_, other_seed, other_engine), other in (
                    self._sessions.items()
                ):
                    if other_seed == seed and other_engine == engine:
                        session = other.with_config(config)
                        break
                else:
                    session = Experiment(
                        config=config, seed=seed, engine=engine
                    )
                self._sessions[key] = session
        return session


def _run_single(
    session: Experiment, point: SweepPoint
) -> Union[ExperimentResult, SweepPointError]:
    """One point, one ``Experiment.run``; a failure becomes a
    :class:`SweepPointError` value naming the point, chained to the cause."""
    try:
        return session.run(point.experiment, **point.params)
    except Exception as error:
        failure = SweepPointError(
            f"sweep point failed: {point.describe()}: "
            f"{type(error).__name__}: {error}",
            point,
        )
        failure.__cause__ = error
        return failure


def _run_merged(
    session: Experiment, bucket: Sequence[SweepPoint]
) -> Optional[List[ExperimentResult]]:
    """Execute a bucket of mergeable points as one batched run.

    The model lists are concatenated into one ``Experiment.run`` call (one
    vectorized cycle-model pass for the whole bucket) and the returned rows
    are split back by each point's model count into results identical to
    individual runs.  Returns ``None`` on any failure, so the caller falls
    back to point-at-a-time execution and identifies the offending point.
    """
    first = bucket[0]
    counts = [len(point.params["models"]) for point in bucket]
    params = dict(first.params)
    params["models"] = [
        model for point in bucket for model in point.params["models"]
    ]
    try:
        combined = session.run(first.experiment, **params)
        if len(combined.rows) != len(params["models"]):
            raise ValueError(
                f"merged run returned {len(combined.rows)} rows for "
                f"{len(params['models'])} models"
            )
    except Exception:
        return None
    resolved = list(combined.params["models"])
    results: List[ExperimentResult] = []
    offset = 0
    for count in counts:
        split = dict(combined.params)
        split["models"] = resolved[offset : offset + count]
        results.append(
            ExperimentResult(
                experiment=combined.experiment,
                rows=combined.rows[offset : offset + count],
                params=split,
                seed=combined.seed,
                config=combined.config,
            )
        )
        offset += count
    return results


def execute_points(
    points: Sequence[SweepPoint], pool: SessionPool
) -> List[Union[ExperimentResult, SweepPointError]]:
    """Execute grid points on the sessions of ``pool``.

    The execution core of both :func:`run_shard` and the serve daemon's
    coalesced batches.  Points with equal cache keys are computed once;
    the rest are grouped by (config, seed, engine) onto one pooled session
    each, and the mergeable points of a session (see :func:`_merge_key`)
    ride one batched ``Experiment.run`` per bucket -- the vectorized
    engine's :func:`repro.sim.vectorized.simulate_jobs` kernel -- whose
    rows are split back per point.  Every result is byte-identical to
    :func:`run_point` on the same point.  No cache is read or written.

    Args:
        points: the points to execute, in any order.
        pool: the sessions to run them on (grown on demand).

    Returns:
        One :class:`~repro.api.results.ExperimentResult` or one
        :class:`SweepPointError` (naming the failed point and chaining the
        cause) per point, in point order.  A failed run is returned, never
        raised.
    """
    keys = [point.cache_key() for point in points]
    groups: Dict[
        Tuple[str, int, str], Dict[Optional[Tuple[str, str]], List[SweepPoint]]
    ] = {}
    seen = set()
    for point, key in zip(points, keys):
        if key not in seen:
            seen.add(key)
            buckets = groups.setdefault(_session_key(point), {})
            buckets.setdefault(_merge_key(point), []).append(point)
    outcomes: Dict[str, Union[ExperimentResult, SweepPointError]] = {}
    for (config, seed, engine), buckets in groups.items():
        session = pool.get(config, seed, engine)
        for merge_key, bucket in buckets.items():
            merged = None
            if merge_key is not None and len(bucket) > 1:
                merged = _run_merged(session, bucket)
            if merged is None:
                merged = [_run_single(session, point) for point in bucket]
            for point, outcome in zip(bucket, merged):
                outcomes[point.cache_key()] = outcome
    return [outcomes[key] for key in keys]


def run_shard(shard: SweepShard) -> List[Tuple[int, ExperimentResult, bool]]:
    """Execute one shard in the current process, cache-less.

    This is the worker entry point of every transport (it is a
    module-level function so :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle it).  The shard's shipped configurations are registered,
    then its points run through :func:`execute_points` on a fresh
    :class:`SessionPool`.  Reading and writing the cache is the
    coordinator's job (:func:`run_sweep`).

    Args:
        shard: the shard to execute (see :class:`ShardPlanner`).

    Returns:
        ``(grid index, result, cache_hit)`` triples (``cache_hit`` always
        False), sorted by grid index.

    Raises:
        SweepPointError: when a point fails; identifies the offending point
            (the first failed one in grid order) and carries the shard's
            successful outcomes as :attr:`SweepPointError.completed`.
    """
    for name, config in shard.configs:
        try:
            known = get_config(name)
        except KeyError:
            known = None
        if known != config:
            # A fresh worker interpreter only knows the built-in presets;
            # materialise the parent's registration (including presets the
            # parent overrode, which a spawn-started worker would otherwise
            # silently resolve to the built-in contents).
            register_config(name, config, overwrite=True)
    computed = execute_points(shard.points, SessionPool())
    outcomes: List[Tuple[int, ExperimentResult, bool]] = []
    failure: Optional[SweepPointError] = None
    for index, outcome in sorted(
        zip(shard.indices, computed), key=lambda pair: pair[0]
    ):
        if isinstance(outcome, SweepPointError):
            failure = failure or outcome
        else:
            outcomes.append((index, outcome, False))
    if failure is not None:
        failure.completed = tuple(outcomes)
        raise failure
    return outcomes


# ---------------------------------------------------------------------------
# Run journal (append-only JSONL, flushed per shard)
# ---------------------------------------------------------------------------
class SweepJournalLockedError(RuntimeError):
    """Another live sweep holds the journal's exclusive lock.

    Two concurrent sweeps appending to one ``sweep.jsonl`` would interleave
    their shard writes into a journal neither run could resume from, so
    :meth:`SweepJournal.acquire` fails fast with this error instead.  The
    message names the lock file and the PID of the holder; if that process
    is genuinely gone the lock is stale and is reclaimed automatically.
    """


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe of another process on this host.

    Thin wrapper over the shared :func:`repro.dist.locks.pid_alive` (kept
    under the historical private name).
    """
    return pid_alive(pid)


class SweepJournal:
    """Append-only JSONL journal making sweeps resumable.

    The journal is a plain-text ``sweep.jsonl``: a header line followed by
    one JSON object per finished grid point, appended (and flushed +
    fsynced) per completed *shard*.  Each point line carries::

        {"kind": "point", "schema_version": 1, "cache_key": "...",
         "experiment": "...", "config": "...", "seed": 0,
         "engine": "...", "params": {...}, "cache_hit": false,
         "result": {... ExperimentResult.to_dict() ...}}

    When the sweep has a result cache, the result payload -- by far the
    largest part of every line, and already durable in the store the
    moment the shard finished -- is replaced by a slim
    ``"kind": "point-ref"`` record carrying the record's store location::

        {"kind": "point-ref", "schema_version": 1, "cache_key": "...",
         "experiment": "...", "config": "...", "seed": 0,
         "engine": "...", "params": {...}, "cache_hit": false,
         "store": {"offset": 1234, "length": 567}}

    Resume resolves every ref through **one** batched store read
    (:meth:`load` with ``store=``); a ref whose record has since been
    damaged or dropped is skipped with a warning and the point recomputes,
    so the completed resume still matches an uninterrupted run.

    Points are keyed by their content-hash cache key, so a journal can only
    ever resume points whose experiment, parameters, seed, engine,
    configuration contents and package version all match -- a grid change
    simply journals the new points alongside the stale ones.  Unreadable
    lines (e.g. the torn tail of a killed run) are skipped with a warning.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        # The exclusive lock is the shared PID-sentinel implementation;
        # the message templates reproduce this journal's historical
        # wording byte-for-byte (pinned by the service tests).
        self._lock = PidFileLock(
            self.lock_path,
            error=SweepJournalLockedError,
            contended=(
                f"journal {self.path} is locked by a running sweep "
                "(pid {holder}, lock file {path}); two concurrent "
                "sweeps must not share one journal"
            ),
            stale=(
                "reclaiming stale sweep-journal lock {path} (holder pid "
                "{holder} is gone)"
            ),
            exhausted=(
                "could not acquire journal lock {path}: another sweep "
                "keeps re-creating it"
            ),
        )

    @property
    def lock_path(self) -> Path:
        """The sidecar PID-sentinel file guarding exclusive journal access."""
        return Path(f"{self.path}.lock")

    def acquire(self) -> None:
        """Take the journal's exclusive lock (PID sentinel, O_EXCL create).

        Creates ``<journal>.lock`` atomically; the file holds this
        process's PID.  If the lock already exists and its PID belongs to a
        live process, the journal is in use by a concurrent sweep and a
        :class:`SweepJournalLockedError` is raised *before* any journal
        bytes are written -- two interleaved appenders would corrupt the
        journal for both runs.  A lock whose PID is dead (a killed sweep)
        is reclaimed with a :class:`RuntimeWarning`.  (The mechanics are
        the shared :class:`repro.dist.locks.PidFileLock`.)

        Raises:
            SweepJournalLockedError: when a live process holds the lock.
        """
        self._lock.acquire(stacklevel=3)

    def _lock_holder(self) -> Optional[int]:
        """PID recorded in the lock file (``None`` when unreadable)."""
        return self._lock.holder()

    def release(self) -> None:
        """Drop the exclusive lock taken by :meth:`acquire` (idempotent)."""
        self._lock.release()

    def load(
        self, store: Optional[PackedResultStore] = None
    ) -> Dict[str, Tuple[ExperimentResult, bool]]:
        """Read the journal into ``{cache_key: (result, cache_hit)}``.

        Missing files load as empty; malformed or torn lines are skipped
        with a :class:`RuntimeWarning`.  Later entries for the same key win
        (harmless: identical keys imply identical results).

        Args:
            store: the packed result store slim ``"point-ref"`` records
                resolve against, in one batched :func:`_load_cached` read.
                Refs that cannot be resolved (no store given, an unusable
                store, or the record is gone/damaged) are skipped with a
                warning -- the points simply recompute.
        """
        entries: Dict[str, Tuple[Optional[ExperimentResult], bool]] = {}
        refs: set = set()
        if not self.path.exists():
            return {}
        with open(self.path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    warnings.warn(
                        f"skipping unreadable journal line {number} of "
                        f"{self.path} (torn write?)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                kind = payload.get("kind")
                if kind == "point":
                    try:
                        result = ExperimentResult.from_dict(payload["result"])
                        key = str(payload["cache_key"])
                    except (KeyError, TypeError, ValueError) as error:
                        warnings.warn(
                            f"skipping invalid journal entry at line "
                            f"{number} of {self.path} "
                            f"({type(error).__name__}: {error})",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        continue
                    entries[key] = (result, bool(payload.get("cache_hit")))
                    refs.discard(key)
                elif kind == "point-ref":
                    key = payload.get("cache_key")
                    if not isinstance(key, str):
                        warnings.warn(
                            f"skipping invalid journal ref at line {number} "
                            f"of {self.path} (missing cache_key)",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        continue
                    entries[key] = (None, bool(payload.get("cache_hit")))
                    refs.add(key)
        if refs:
            fetched = _load_cached(store, refs)
            for key in refs:
                result = fetched.get(key)
                if result is None:
                    warnings.warn(
                        f"journal {self.path} references packed store "
                        f"record {key} that cannot be read"
                        + ("" if store is not None else " (no store given)")
                        + "; the point will be recomputed",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    del entries[key]
                else:
                    entries[key] = (result, entries[key][1])
        return {
            key: (result, hit)
            for key, (result, hit) in entries.items()
            if result is not None
        }

    def start(self, resume: bool = False) -> None:
        """Begin a journaled run: truncate (fresh run) or touch (resume)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            return
        from .. import __version__

        header = {
            "kind": "header",
            "journal": "repro.api.sweep",
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(
        self,
        entries: Sequence[Tuple[SweepPoint, str, ExperimentResult, bool]],
        locations: Optional[Mapping[str, Tuple[int, int]]] = None,
    ) -> None:
        """Append one shard's ``(point, cache_key, result, hit)`` outcomes.

        All lines of the shard are written in one call, then flushed and
        fsynced, so a kill can only ever tear the final line -- which
        :meth:`load` skips -- never a finished shard.

        Args:
            locations: packed-store ``{cache_key: (offset, length)}``
                record locations.  Entries whose key appears here are
                journaled as slim ``"point-ref"`` records (the result
                payload already being durable in the store); entries whose
                key is absent -- e.g. a store append skipped because a
                concurrent writer held the pack lock -- fall back to full
                ``"point"`` records, so the journal stays self-sufficient
                for exactly the points the store does not hold.
        """
        if not entries:
            return
        locations = locations or {}
        lines = []
        for point, key, result, hit in entries:
            payload = {
                "kind": "point",
                "schema_version": SCHEMA_VERSION,
                "cache_key": key,
                "experiment": point.experiment,
                "config": point.config,
                "seed": point.seed,
                "engine": point.engine,
                "params": point.params,
                "cache_hit": bool(hit),
            }
            location = locations.get(key)
            if location is not None:
                payload["kind"] = "point-ref"
                payload["store"] = {
                    "offset": int(location[0]),
                    "length": int(location[1]),
                }
            else:
                payload["result"] = result.to_dict()
            lines.append(json.dumps(payload, sort_keys=True) + "\n")
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("".join(lines))
            handle.flush()
            os.fsync(handle.fileno())


# ---------------------------------------------------------------------------
# The sweep service front door
# ---------------------------------------------------------------------------
def _create_transport(
    transport_name: str,
    sweep_dir: Optional[Union[str, Path]],
    transport_options: Optional[Mapping[str, Any]],
) -> ShardTransport:
    """Instantiate the named transport with the sweep's transport knobs.

    Raises:
        ValueError: unknown transport name (the message lists the
            registered names), or options the transport rejects (e.g.
            ``sweep_dir=`` with a local transport).
    """
    try:
        spec = get_transport(transport_name)
    except KeyError as error:
        raise ValueError(str(error.args[0])) from None
    options: Dict[str, Any] = dict(transport_options or {})
    if sweep_dir is not None:
        options.setdefault("sweep_dir", sweep_dir)
    return spec.create(**options)


def run_sweep(
    experiments: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    configs: Sequence[str] = ("paper-28nm",),
    seeds: Sequence[int] = (0,),
    max_workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    params_by_experiment: Optional[Mapping[str, Mapping[str, Any]]] = None,
    engine: str = DEFAULT_ENGINE,
    shards: Optional[int] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    transport: Optional[str] = None,
    sweep_dir: Optional[Union[str, Path]] = None,
    transport_options: Optional[Mapping[str, Any]] = None,
) -> SweepResult:
    """Run a grid of experiment points as a sharded, journaled sweep.

    The grid is expanded by :func:`build_grid` and partitioned into shards
    by :class:`ShardPlanner` (journal-restored points excluded, warm and
    cold points separated, cold points grouped per worker session).  The
    coordinator restores every warm point in one batched store read; the
    cold shards run cache-less on the selected transport, and each
    finished shard is appended to the store in one batch and streamed to
    the JSONL run journal, so killing the sweep loses at most the
    in-flight shards.

    Args:
        experiments: experiment ids (default: every non-training experiment).
        models: workload names for the model-parameterised experiments.
        configs: registered configuration preset names.
        seeds: RNG seeds.
        max_workers: worker threads/processes (default: one per shard,
            capped at the CPU count; ``1`` forces in-process execution for
            the ``thread`` backend).
        cache_dir: directory of the packed result cache
            (:class:`repro.store.PackedResultStore`; ``None`` disables
            caching).  A directory of legacy per-file ``{cache_key}.json``
            entries is migrated on open.  With a journal, shards journal
            slim store-ref records.
        params_by_experiment: extra per-experiment parameters.
        engine: cycle-model engine evaluating every point (``"vectorized"``
            by default; part of each point's cache key).
        shards: target shard count (default: twice the worker count).
        journal: path of the append-only ``sweep.jsonl`` run journal
            (``None`` disables journaling).
        resume: restore finished points from ``journal`` instead of
            recomputing them.  Requires ``journal``.  The completed sweep's
            ``results`` are always byte-identical to an uninterrupted run;
            when journaling without a pre-populated ``cache_dir`` the whole
            serialised payload is byte-identical.  (The cache hit/miss
            counters always report the work *this* invocation performed, so
            a point the killed run cached but did not journal legitimately
            counts as a hit on resume.)
        transport: shard transport executing the sweep, by registry name
            (see :func:`repro.dist.transport.register_transport`):
            ``"thread"`` (default; warm-cache / I/O-bound re-runs),
            ``"process"`` (:class:`~concurrent.futures.ProcessPoolExecutor`;
            the fast path for cold CPU-bound grids -- the mapping
            equations hold the GIL, so threads serialise), ``"serial"``
            (in-process, for debugging) or ``"broker"`` (the distributed
            shared-directory fabric ``repro worker`` processes attach to;
            requires ``sweep_dir``).  Every transport produces a
            byte-identical :class:`SweepResult`.
        sweep_dir: shared coordination directory of a distributed
            transport (workers attach with ``repro worker <sweep_dir>``).
        transport_options: extra keyword arguments for the transport
            factory (e.g. the broker's ``lease_ttl_s`` / ``poll_s`` /
            ``max_attempts`` / ``coordinator_executes``).

    Returns:
        A :class:`SweepResult` with the per-point results in grid order,
        cache hit/miss counts, and (non-serialised) transport/shard/timing
        statistics in :attr:`~repro.api.results.SweepResult.stats`.

    Raises:
        ValueError: on an unknown transport, invalid transport options, or
            ``resume`` without a journal.
        SweepPointError: when a grid point fails (identifies the point;
            the failing shard's successful points are cached first).
        repro.dist.WorkerLostError: a distributed shard exhausted its
            retry budget (its workers kept dying).
    """
    if transport is None:
        transport = DEFAULT_TRANSPORT
    transport_obj = _create_transport(transport, sweep_dir, transport_options)
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")
    if max_workers is not None and max_workers <= 0:
        raise ValueError("max_workers must be positive")
    started = time.perf_counter()
    grid = build_grid(
        experiments=experiments,
        models=models,
        configs=configs,
        seeds=seeds,
        params_by_experiment=params_by_experiment,
        engine=engine,
    )
    run_journal = SweepJournal(journal) if journal is not None else None
    if run_journal is not None:
        # Exclusive PID-sentinel lock: a second sweep pointed at the same
        # journal fails fast instead of interleaving shard appends.
        run_journal.acquire()
    try:
        return _run_sweep_locked(
            grid=grid,
            run_journal=run_journal,
            resume=resume,
            cache_dir=cache_dir,
            shards=shards,
            max_workers=max_workers,
            transport_obj=transport_obj,
            transport_name=transport,
            started=started,
        )
    finally:
        if run_journal is not None:
            run_journal.release()


def _run_sweep_locked(
    grid: List[SweepPoint],
    run_journal: Optional[SweepJournal],
    resume: bool,
    cache_dir: Optional[Union[str, Path]],
    shards: Optional[int],
    max_workers: Optional[int],
    transport_obj: ShardTransport,
    transport_name: str,
    started: float,
) -> SweepResult:
    """Body of :func:`run_sweep`, run while holding the journal lock."""
    planner = ShardPlanner(
        cache_dir=cache_dir, shards=shards, max_workers=max_workers
    )
    store = planner.store
    restored: Dict[str, Tuple[ExperimentResult, bool]] = {}
    if run_journal is not None and resume:
        restored = run_journal.load(store=store)
    plan = planner.plan(grid, journaled_keys=restored.keys())
    keys = plan.cache_keys

    outcomes: List[Optional[Tuple[ExperimentResult, bool]]] = [None] * len(grid)
    for index in plan.journaled:
        outcomes[index] = restored[keys[index]]
    if run_journal is not None:
        run_journal.start(resume=resume)

    def _finish(
        points_by_index: Mapping[int, SweepPoint],
        batch: Sequence[Tuple[int, ExperimentResult, bool]],
        locations: Mapping[str, Tuple[int, int]],
    ) -> None:
        """Record one finished batch: fill outcomes, journal.

        A batch is one executed shard or the whole warm restore, so 10k
        warm points cost ONE fsynced journal write.  Points with a store
        location journal as slim refs, the rest in full.
        """
        for index, result, hit in batch:
            outcomes[index] = (result, hit)
        if run_journal is not None:
            run_journal.append(
                [
                    (points_by_index[index], keys[index], result, hit)
                    for index, result, hit in batch
                ],
                locations=locations,
            )

    def _finish_shard(
        shard: SweepShard,
        shard_outcomes: Sequence[Tuple[int, ExperimentResult, bool]],
    ) -> None:
        """Persist one executed shard in one store append, then record it."""
        locations = _store_cached(
            store, [(keys[index], result) for index, result, _ in shard_outcomes]
        )
        _finish(dict(zip(shard.indices, shard.points)), shard_outcomes, locations)

    # The coordinator owns the cache: it restores every warm point through
    # ONE batched store read, and only cold shards go to the transport,
    # whose workers run cache-less (the store has a single-writer rule, and
    # a distributed worker may not even see the cache directory).
    exec_shards = [s for s in plan.shards if not s.warm]
    warm_points: Dict[int, SweepPoint] = {
        index: point
        for shard in plan.shards
        if shard.warm
        for index, point in zip(shard.indices, shard.points)
    }
    if warm_points:
        fetched = _load_cached(store, (keys[index] for index in warm_points))
        warm_hits = [
            (index, fetched[keys[index]], True)
            for index in warm_points
            if keys[index] in fetched
        ]
        if warm_hits:
            locations = (
                store.locate(keys[index] for index, _, _ in warm_hits)
                if store is not None and run_journal is not None
                else {}
            )
            _finish(warm_points, warm_hits, locations)
        lost = [(i, p) for i, p in warm_points.items() if keys[i] not in fetched]
        if lost:
            # Records damaged (or truncated away) between planning and
            # restore recompute exactly like cold points.
            resolved: Dict[str, DBPIMConfig] = {}
            for _, point in lost:
                if point.config not in resolved:
                    resolved[point.config] = get_config(point.config)
            exec_shards.append(
                SweepShard(
                    index=len(plan.shards),
                    indices=tuple(index for index, _ in lost),
                    points=tuple(point for _, point in lost),
                    configs=tuple(resolved.items()),
                )
            )

    workers = max_workers or max(1, min(len(exec_shards), os.cpu_count() or 1))
    # One store append per shard, one index rewrite for the whole sweep.
    with store.deferred_index() if store is not None else nullcontext():
        try:
            # The transport owns the execution strategy (inline, pool, or a
            # worker fleet over a shared directory); run_shard is the
            # runner every transport executes.
            transport_obj.run(exec_shards, run_shard, _finish_shard, workers)
        except SweepPointError as error:
            # A failing shard still caches its successful points.
            _store_cached(
                store,
                [(keys[index], result) for index, result, _ in error.completed],
            )
            raise

    completed = [outcome for outcome in outcomes if outcome is not None]
    if len(completed) != len(grid):  # pragma: no cover - defensive
        raise RuntimeError("sweep finished with unexecuted grid points")
    hits = sum(1 for _, hit in completed if hit)
    stats = SweepStats(
        transport_name,
        max_workers=workers,
        shards=len(plan.shards),
        warm_points=plan.warm_points,
        cold_points=plan.cold_points,
        journaled_points=len(plan.journaled),
        elapsed_s=time.perf_counter() - started,
    )
    return SweepResult(
        results=tuple(result for result, _ in completed),
        cache_hits=hits,
        cache_misses=len(completed) - hits,
        stats=stats,
    )
