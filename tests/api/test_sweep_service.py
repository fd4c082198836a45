"""Tests for the sharded sweep service: planning, executors, journal.

The sweep cache / grid basics are covered by ``test_sweep.py``; this module
pins the service layer added on top -- deterministic shard planning keyed by
cache state, process/thread/serial result equality, resume-from-journal
after a simulated interruption, per-point failure attribution and
cache-corruption recovery.
"""

import json
import os
import subprocess
import sys

import pytest

import repro.api.sweep as sweep_module
from repro.api import (
    Experiment,
    ExperimentResult,
    ShardPlanner,
    SweepJournal,
    SweepJournalLockedError,
    SweepPointError,
    SweepResult,
    build_dbpim_config,
    build_grid,
    run_shard,
    run_sweep,
)
from repro.api.sweep import SessionPool, SweepPoint, execute_points, run_point

GRID_KWARGS = dict(experiments=("fig7", "table4"), models=("alexnet", "mobilenetv2"))


class TestShardPlanner:
    def test_plan_is_deterministic(self, tmp_path):
        grid = build_grid(**GRID_KWARGS)
        planner = ShardPlanner(cache_dir=tmp_path, shards=2)
        assert planner.plan(grid) == planner.plan(grid)

    def test_cold_points_grouped_by_seed_and_engine(self):
        grid = build_grid(
            experiments=("table4",),
            configs=("paper-28nm", "dense-baseline"),
            seeds=(0, 1),
        )
        plan = ShardPlanner(shards=2).plan(grid)
        for shard in plan.shards:
            keys = {(p.seed, p.engine) for p in shard.points}
            assert len(keys) == 1  # one (seed, engine) worker group per shard
        # Configs are deliberately mixed within a shard so points differing
        # only in configuration can fuse onto one grid pass; every distinct
        # config must ship with the shard, in first-appearance order.
        mixed = [s for s in plan.shards if len({p.config for p in s.points}) > 1]
        assert mixed
        for shard in mixed:
            shipped = [name for name, _ in shard.configs]
            seen = list(dict.fromkeys(p.config for p in shard.points))
            assert shipped == seen

    def test_shard_count_respects_target(self):
        grid = build_grid(experiments=("fig7",))  # five single-model points
        plan = ShardPlanner(shards=2).plan(grid)
        assert 1 <= len(plan.shards) <= 2
        assert sorted(i for s in plan.shards for i in s.indices) == list(
            range(len(grid))
        )

    def test_warm_and_cold_points_split_by_cache_state(self, tmp_path):
        grid = build_grid(**GRID_KWARGS)
        # Prime the cache with exactly one point.
        run_point(grid[0], cache_dir=tmp_path)
        plan = ShardPlanner(cache_dir=tmp_path, shards=4).plan(grid)
        assert plan.warm_points == 1 and plan.cold_points == len(grid) - 1
        warm = [s for s in plan.shards if s.warm]
        assert len(warm) == 1 and warm[0].points == (grid[0],)

    def test_journaled_keys_excluded_from_shards(self):
        grid = build_grid(**GRID_KWARGS)
        keys = [point.cache_key() for point in grid]
        plan = ShardPlanner(shards=4).plan(grid, journaled_keys=keys[:2])
        assert plan.journaled == (0, 1)
        covered = sorted(i for s in plan.shards for i in s.indices)
        assert covered == list(range(2, len(grid)))

    def test_shards_ship_resolved_configs(self):
        grid = build_grid(experiments=("table4",), configs=("dense-baseline",))
        plan = ShardPlanner().plan(grid)
        ((name, config),) = plan.shards[0].configs
        assert name == "dense-baseline" and not config.weight_sparsity

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ShardPlanner(shards=0)
        with pytest.raises(ValueError, match="max_workers"):
            ShardPlanner(max_workers=-1)


class TestExecutorEquality:
    def test_all_backends_produce_identical_results(self):
        serial = run_sweep(executor="serial", **GRID_KWARGS)
        thread = run_sweep(executor="thread", max_workers=2, **GRID_KWARGS)
        process = run_sweep(
            executor="process", max_workers=2, shards=3, **GRID_KWARGS
        )
        assert serial.results == thread.results == process.results
        assert (
            serial.cache_misses
            == thread.cache_misses
            == process.cache_misses
            == len(serial.results)
        )

    def test_cross_config_fused_shard_matches_point_at_a_time(self):
        # Points differing only in configuration land on one shard and are
        # precomputed through the config-fused grid kernel (one
        # simulate_grid pass priming every per-config session); the
        # split-back results must be byte-identical to executing every
        # point individually on its own session.
        grid = build_grid(
            experiments=("fig7",),
            models=("alexnet",),
            configs=(
                "paper-28nm",
                "dense-baseline",
                "weight-sparsity-only",
                "input-sparsity-only",
            ),
            seeds=(0,),
        )
        plan = ShardPlanner(shards=1).plan(grid)
        assert len(plan.shards) == 1  # one (seed, engine) group
        outcomes = run_shard(plan.shards[0])
        reference = tuple(run_point(p)[0] for p in grid)
        assert tuple(r for _, r, _ in sorted(outcomes)) == reference

    def test_merged_shard_execution_matches_point_at_a_time(self):
        # One shard holding several single-model fig7 points merges them
        # into one batched run; the split results must be identical to
        # executing every point individually.
        sweep = run_sweep(executor="serial", shards=1, **GRID_KWARGS)
        reference = tuple(run_point(p)[0] for p in build_grid(**GRID_KWARGS))
        assert sweep.results == reference

    def test_process_backend_uses_and_fills_cache(self, tmp_path):
        cold = run_sweep(
            executor="process", max_workers=2, cache_dir=tmp_path, **GRID_KWARGS
        )
        assert cold.cache_hits == 0 and cold.cache_misses == len(cold.results)
        warm = run_sweep(
            executor="process", max_workers=2, cache_dir=tmp_path, **GRID_KWARGS
        )
        assert warm.cache_hits == len(warm.results) and warm.cache_misses == 0
        assert warm.results == cold.results

    def test_process_backend_ships_user_registered_configs(self, tmp_path):
        # A session on an unregistered config: the preset only exists in
        # this process, so process workers must receive it with the shard.
        session = Experiment(config=build_dbpim_config(num_macros=2))
        sweep = session.run_sweep(
            experiments=("table4",), executor="process", max_workers=2
        )
        assert len(sweep) == 1
        assert sweep.results[0].config == session.config_name

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_sweep(experiments=("table4",), executor="mpi")

    def test_stats_attached_but_not_serialised(self):
        sweep = run_sweep(executor="serial", experiments=("table4",))
        assert sweep.stats is not None
        assert sweep.stats.executor == "serial"
        assert sweep.stats.cold_points == 1
        assert sweep.stats.elapsed_s > 0
        assert "stats" not in sweep.to_dict()
        rebuilt = SweepResult.from_json(sweep.to_json())
        assert rebuilt.stats is None and rebuilt == sweep


class TestExecutionCore:
    def test_mixed_call_matches_run_point_and_returns_failures(self):
        # One call: two configs, a multi-model point merged with a
        # single-model one, two points with one cache key, a model-free
        # point and a point that cannot run.
        points = [
            SweepPoint("fig7", params={"models": ["alexnet"]}),
            SweepPoint(
                "fig7", config="dense-baseline", params={"models": ["alexnet"]}
            ),
            SweepPoint("fig7", params={"models": ["mobilenetv2", "alexnet"]}),
            SweepPoint("fig7", params={"models": ["alexnet"]}),
            SweepPoint(
                "fig7",
                config="dense-baseline",
                params={"models": ["no-such-model"]},
            ),
            SweepPoint("table4", config="dense-baseline"),
        ]
        assert points[3].cache_key() == points[0].cache_key()
        pool = SessionPool()
        outcomes = execute_points(points, pool)
        assert len(outcomes) == len(points)
        assert len(pool) == 2  # one session per (config, seed, engine)
        failure = outcomes[4]
        assert isinstance(failure, SweepPointError)
        assert failure.point == points[4]
        assert "no-such-model" in str(failure)
        assert isinstance(failure.__cause__, KeyError)
        for point, outcome in zip(points, outcomes):
            if point is points[4]:
                continue
            assert isinstance(outcome, ExperimentResult)
            assert outcome.to_json() == run_point(point)[0].to_json()

    def test_pool_shares_one_profile_cache_per_seed_and_engine(self):
        pool = SessionPool()
        base = pool.get("paper-28nm", 0, "vectorized")
        clone = pool.get("dense-baseline", 0, "vectorized")
        other_seed = pool.get("paper-28nm", 1, "vectorized")
        assert pool.get("paper-28nm", 0, "vectorized") is base
        assert clone.config_name == "dense-baseline" and clone.seed == 0
        assert clone._profiles is base._profiles
        assert other_seed._profiles is not base._profiles
        assert len(pool) == 3


class TestFailureAttribution:
    def test_failing_point_identified_and_chained(self, monkeypatch):
        real_experiment = sweep_module.Experiment

        class Exploding(real_experiment):
            def run(self, experiment, **params):
                # Fires on the merged batch too, so the shard's per-point
                # fallback must localise the failure to the single point.
                if "mobilenetv2" in (params.get("models") or []):
                    raise RuntimeError("injected fault")
                return super().run(experiment, **params)

        monkeypatch.setattr(sweep_module, "Experiment", Exploding)
        with pytest.raises(SweepPointError) as info:
            run_sweep(executor="thread", max_workers=2, **GRID_KWARGS)
        message = str(info.value)
        assert "mobilenetv2" in message and "fig7" in message
        assert "injected fault" in message
        assert info.value.point is not None
        assert info.value.point.params["models"] == ["mobilenetv2"]

    def test_failing_shard_caches_its_successful_points(
        self, tmp_path, monkeypatch
    ):
        real_experiment = sweep_module.Experiment

        class Exploding(real_experiment):
            def run(self, experiment, **params):
                if "mobilenetv2" in (params.get("models") or []):
                    raise RuntimeError("injected fault")
                return super().run(experiment, **params)

        monkeypatch.setattr(sweep_module, "Experiment", Exploding)
        plan = ShardPlanner(shards=1).plan(build_grid(**GRID_KWARGS))
        (shard,) = plan.shards
        with pytest.raises(SweepPointError, match="mobilenetv2"):
            run_shard(shard, cache_dir=tmp_path)
        cached = {path.stem for path in tmp_path.glob("*.json")}
        healthy = {
            point.cache_key()
            for point in shard.points
            if point.params.get("models") != ["mobilenetv2"]
        }
        assert len(healthy) == len(shard) - 1
        assert cached == healthy

    def test_error_is_picklable_with_point(self):
        import pickle

        point = SweepPoint(experiment="fig7", params={"models": ["alexnet"]})
        error = SweepPointError("boom", point)
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == "boom" and clone.point == point


class TestJournal:
    def test_fresh_run_journals_every_point(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sweep = run_sweep(executor="serial", journal=journal, **GRID_KWARGS)
        lines = journal.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert len(lines) == len(sweep.results) + 1
        entries = SweepJournal(journal).load()
        assert len(entries) == len(sweep.results)
        for result, hit in entries.values():
            assert isinstance(result, ExperimentResult) and hit is False

    def test_resume_skips_journaled_points_and_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "sweep.jsonl"
        full = run_sweep(executor="serial", journal=journal, **GRID_KWARGS)
        # Simulate a kill after the first journaled shard: keep the header
        # plus two finished points.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")

        executed = []
        real_experiment = sweep_module.Experiment

        class Counting(real_experiment):
            def run(self, experiment, **params):
                executed.append((experiment, params.get("models")))
                return super().run(experiment, **params)

        monkeypatch.setattr(sweep_module, "Experiment", Counting)
        resumed = run_sweep(
            executor="serial", journal=journal, resume=True, **GRID_KWARGS
        )
        assert resumed.to_json() == full.to_json()  # byte-identical payload
        assert resumed.stats.journaled_points == 2
        assert len(executed) == 1  # only the missing point was recomputed
        # The journal now covers the whole grid; a further resume runs
        # nothing at all.
        executed.clear()
        again = run_sweep(
            executor="serial", journal=journal, resume=True, **GRID_KWARGS
        )
        assert again.to_json() == full.to_json() and executed == []

    def test_resume_with_cache_keeps_results_identical(self, tmp_path):
        # A kill can land between a point's cache write and its shard's
        # journal append.  On resume such points legitimately count as
        # cache hits (counters report this invocation's work), but the
        # results payload must still match the uninterrupted run exactly.
        cache = tmp_path / "cache"
        journal = tmp_path / "sweep.jsonl"
        full = run_sweep(
            executor="serial", cache_dir=cache, journal=journal, **GRID_KWARGS
        )
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")  # header + 1 point
        resumed = run_sweep(
            executor="serial",
            cache_dir=cache,
            journal=journal,
            resume=True,
            **GRID_KWARGS,
        )
        assert resumed.results == full.results
        assert resumed.stats.journaled_points == 1
        # The journaled point keeps its recorded miss flag; every
        # unjournaled point was already cached by the "killed" run and so
        # legitimately resumes as a hit.
        assert resumed.cache_hits == len(full.results) - 1
        assert resumed.cache_misses == 1

    def test_torn_tail_line_is_skipped_with_warning(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(executor="serial", journal=journal, experiments=("table4",))
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "point", "cache_key": "tr')  # torn write
        with pytest.warns(RuntimeWarning, match="torn"):
            entries = SweepJournal(journal).load()
        assert len(entries) == 1
        resumed = run_sweep(
            executor="serial",
            journal=journal,
            resume=True,
            experiments=("table4",),
        )
        assert resumed.stats.journaled_points == 1

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(executor="serial", journal=journal, **GRID_KWARGS)
        run_sweep(executor="serial", journal=journal, experiments=("table4",))
        assert len(SweepJournal(journal).load()) == 1  # truncated, not mixed

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="requires a journal"):
            run_sweep(experiments=("table4",), resume=True)

    def test_journal_records_cache_hits(self, tmp_path):
        cache = tmp_path / "cache"
        journal = tmp_path / "sweep.jsonl"
        run_sweep(executor="serial", cache_dir=cache, experiments=("table4",))
        run_sweep(
            executor="serial",
            cache_dir=cache,
            journal=journal,
            experiments=("table4",),
        )
        ((_, hit),) = SweepJournal(journal).load().values()
        assert hit is True


class TestCacheRobustness:
    def test_corrupt_entry_warns_and_recovers(self, tmp_path):
        run_sweep(experiments=("table4",), cache_dir=tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("garbage{{{", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable sweep-cache"):
            recovered = run_sweep(experiments=("table4",), cache_dir=tmp_path)
        assert recovered.cache_misses == 1
        warm = run_sweep(experiments=("table4",), cache_dir=tmp_path)
        assert warm.cache_hits == 1

    def test_save_leaves_no_temp_files(self, tmp_path):
        result, _ = run_point(SweepPoint(experiment="table4"))
        target = tmp_path / "entry.json"
        result.save(target)
        result.save(target)  # overwrite is atomic too
        assert ExperimentResult.load(target) == result
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


class TestSessionRunSweep:
    def test_session_pins_config_seed_engine(self, tmp_path):
        session = Experiment(config="dense-baseline", seed=3, engine="scalar")
        sweep = session.run_sweep(
            experiments=("fig7",), models=("alexnet",), cache_dir=tmp_path
        )
        (result,) = sweep.results
        assert result.config == "dense-baseline" and result.seed == 3
        direct = session.run("fig7", models=["alexnet"])
        assert result == direct

    def test_run_shard_overrides_divergent_local_preset(self):
        # A spawn-started worker resolves preset names against a fresh
        # registry; if the parent overrode a name, the shipped config must
        # win over the local contents, not silently lose to them.
        from repro.api import register_config

        shipped = build_dbpim_config(num_macros=2)
        register_config("svc-divergent", shipped, overwrite=True)
        grid = build_grid(experiments=("table4",), configs=("svc-divergent",))
        plan = ShardPlanner().plan(grid)  # ships the resolved `shipped`
        # Simulate the worker's divergent registry state.
        register_config(
            "svc-divergent", build_dbpim_config(num_macros=8), overwrite=True
        )
        ((_, result, _),) = run_shard(plan.shards[0])
        expected = Experiment(config=shipped).run("table4")
        assert result.rows == expected.rows

    def test_run_shard_entrypoint_sorts_by_grid_index(self, tmp_path):
        grid = build_grid(**GRID_KWARGS)
        plan = ShardPlanner(shards=1).plan(grid)
        (shard,) = [s for s in plan.shards if len(s) > 1]
        outcomes = run_shard(shard, cache_dir=tmp_path)
        assert [index for index, _, _ in outcomes] == sorted(shard.indices)
        assert all(hit is False for _, _, hit in outcomes)


class TestJournalLock:
    """The exclusive journal lock: two live sweeps must not share a journal."""

    def test_acquire_is_exclusive_and_release_idempotent(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = SweepJournal(path)
        first.acquire()
        assert first.lock_path.exists()
        assert int(first.lock_path.read_text().strip()) == os.getpid()
        second = SweepJournal(path)
        with pytest.raises(SweepJournalLockedError, match="locked by a running"):
            second.acquire()
        first.release()
        first.release()  # idempotent
        assert not first.lock_path.exists()
        second.acquire()  # free again
        second.release()

    def test_stale_lock_from_dead_process_is_reclaimed(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        # A PID that is guaranteed dead: a subprocess we already reaped.
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(probe.stdout.strip())
        journal = SweepJournal(path)
        journal.lock_path.write_text(f"{dead_pid}\n")
        with pytest.warns(RuntimeWarning, match="reclaiming stale"):
            journal.acquire()
        assert int(journal.lock_path.read_text().strip()) == os.getpid()
        journal.release()

    def test_run_sweep_fails_fast_on_held_journal(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        holder = SweepJournal(journal)
        holder.acquire()
        try:
            with pytest.raises(SweepJournalLockedError):
                run_sweep(executor="serial", journal=journal, **GRID_KWARGS)
            # Fail-fast means no journal bytes were written at all.
            assert not journal.exists()
        finally:
            holder.release()

    def test_run_sweep_releases_lock_even_on_failure(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sweep = run_sweep(executor="serial", journal=journal, **GRID_KWARGS)
        assert sweep.results
        assert not SweepJournal(journal).lock_path.exists()
        with pytest.raises(SweepPointError):
            run_sweep(
                executor="serial",
                journal=tmp_path / "bad.jsonl",
                experiments=("fig7",),
                models=("alexnet",),
                params_by_experiment={"fig7": {"wat": 1}},
            )
        assert not SweepJournal(tmp_path / "bad.jsonl").lock_path.exists()
