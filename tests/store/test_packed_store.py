"""Tests for the packed sweep result store (``repro.store``).

Pins the store's contracts: corruption tolerance (a torn data tail or a
damaged/missing/stale index never loses intact records -- the index is
rebuilt from the data file, and the next append truncates the torn tail),
single-writer locking (live-holder rejection, stale-lock reclaim),
migrate-on-open of legacy per-file caches, byte-identical ``SweepResult`` s
from cold and warm caches, and slim journal resume restoring results
byte-for-byte through the store.
"""

import json
import os
import pickle
import struct
import warnings

import pytest

from repro.api import Experiment, build_grid, run_sweep
from repro.api.sweep import SweepJournal, cache_keys_for_grid
from repro.store import (
    DATA_FILENAME,
    INDEX_FILENAME,
    PackedResultStore,
    PackedStoreError,
    PackedStoreLockedError,
)

GRID_KWARGS = dict(experiments=("fig7", "table4"), models=("alexnet", "mobilenetv2"))


@pytest.fixture(scope="module")
def results_by_key():
    """A handful of real (cache_key, ExperimentResult) pairs to store."""
    session = Experiment()
    grid = build_grid(**GRID_KWARGS)
    keys = cache_keys_for_grid(grid)
    pairs = {}
    for key, point in zip(keys, grid):
        pairs[key] = session.run(point.experiment, **point.params)
    return pairs


def _populate(tmp_path, results_by_key):
    store = PackedResultStore(tmp_path)
    store.append_many(list(results_by_key.items()))
    return store


def _write_legacy_files(directory, results_by_key):
    """A cache directory as the retired per-file backend wrote it."""
    directory.mkdir(parents=True, exist_ok=True)
    for key, result in results_by_key.items():
        result.save(directory / f"{key}.json")


class TestRoundTrip:
    def test_append_probe_get_many(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        assert store.probe(keys + ["absent"]) == frozenset(keys)
        fetched = store.get_many(keys)
        assert fetched == results_by_key
        assert store.get(keys[0]) == results_by_key[keys[0]]
        assert store.get("absent") is None
        assert len(store) == len(keys)

    def test_fresh_instance_reads_index_from_disk(
        self, tmp_path, results_by_key
    ):
        _populate(tmp_path, results_by_key)
        reader = PackedResultStore(tmp_path)
        assert reader.get_many(results_by_key) == results_by_key

    def test_append_is_idempotent_per_key(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        size = store.data_path.stat().st_size
        locations = store.append_many(list(results_by_key.items()))
        assert store.data_path.stat().st_size == size  # nothing re-written
        assert set(locations) == set(results_by_key)

    def test_locate_covers_present_keys_only(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        locations = store.locate(keys + ["absent"])
        assert set(locations) == set(keys)
        offset, length = locations[keys[0]]
        assert offset > 0 and length > 0

    def test_maybe_refresh_sees_other_writer(self, tmp_path, results_by_key):
        keys = list(results_by_key)
        first, rest = keys[:1], keys[1:]
        writer = PackedResultStore(tmp_path)
        writer.append_many([(first[0], results_by_key[first[0]])])
        reader = PackedResultStore(tmp_path)
        assert reader.probe(keys) == frozenset(first)
        writer2 = PackedResultStore(tmp_path)  # a separate process, in spirit
        writer2.append_many([(k, results_by_key[k]) for k in rest])
        reader.maybe_refresh()
        assert reader.probe(keys) == frozenset(keys)


class TestCorruptionRecovery:
    def test_truncated_tail_keeps_intact_records(
        self, tmp_path, results_by_key
    ):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        locations = store.locate(keys)
        last_key = max(keys, key=lambda k: locations[k][0])
        data = store.data_path.read_bytes()
        store.data_path.write_bytes(data[:-7])  # tear the final record
        fresh = PackedResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="rebuilding|damaged"):
            present = fresh.probe(keys)
        assert present == frozenset(k for k in keys if k != last_key)
        fetched = fresh.get_many(keys)
        assert fetched == {
            k: results_by_key[k] for k in keys if k != last_key
        }

    def test_corrupted_index_rebuilds_from_data(
        self, tmp_path, results_by_key
    ):
        store = _populate(tmp_path, results_by_key)
        store.index_path.write_text("{ not json", encoding="utf-8")
        fresh = PackedResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="unreadable pack index"):
            assert fresh.probe(results_by_key) == frozenset(results_by_key)
        assert fresh.get_many(results_by_key) == results_by_key

    def test_missing_index_rebuilds_silently(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        store.index_path.unlink()
        fresh = PackedResultStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fresh.probe(results_by_key) == frozenset(results_by_key)
        assert fresh.rebuild_index() == len(results_by_key)
        assert fresh.index_path.exists()

    def test_stale_index_after_unindexed_append_rescans(
        self, tmp_path, results_by_key
    ):
        keys = list(results_by_key)
        first, last = keys[:-1], keys[-1]
        store = _populate(tmp_path, {k: results_by_key[k] for k in first})
        # Simulate a writer that died after appending but before replacing
        # the index: append a raw record without touching pack.index.
        payload = pickle.dumps(
            (last, results_by_key[last]), protocol=pickle.HIGHEST_PROTOCOL
        )
        import zlib

        with open(store.data_path, "ab") as handle:
            handle.write(struct.pack("<II", zlib.crc32(payload), len(payload)))
            handle.write(payload)
        fresh = PackedResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="rebuilding"):
            assert fresh.probe(keys) == frozenset(keys)
        assert fresh.get_many([last]) == {last: results_by_key[last]}

    def test_bad_magic_raises(self, tmp_path):
        (tmp_path / DATA_FILENAME).write_bytes(b"not a pack at all")
        with pytest.raises(PackedStoreError, match="bad magic"):
            PackedResultStore(tmp_path).probe(["key"])

    def test_damaged_record_read_is_a_miss(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        locations = store.locate(keys)
        victim = keys[0]
        offset, _ = locations[victim]
        data = bytearray(store.data_path.read_bytes())
        data[offset + 12] ^= 0xFF  # flip a payload byte; CRC now mismatches
        store.data_path.write_bytes(bytes(data))
        reader = PackedResultStore(tmp_path)  # index still lists the victim
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            fetched = reader.get_many(keys)
        assert victim not in fetched
        assert fetched == {
            k: results_by_key[k] for k in keys if k != victim
        }

    def test_damaged_record_is_rewritten_by_next_append(
        self, tmp_path, results_by_key
    ):
        store = _populate(tmp_path, results_by_key)
        victim = next(iter(results_by_key))
        offset, _ = store.locate([victim])[victim]
        data = bytearray(store.data_path.read_bytes())
        data[offset + 12] ^= 0xFF
        store.data_path.write_bytes(bytes(data))
        reader = PackedResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert reader.get_many([victim]) == {}
        reader.append_many([(victim, results_by_key[victim])])
        fresh = PackedResultStore(tmp_path)
        assert fresh.get_many(results_by_key) == results_by_key

    def test_scan_skips_damaged_record_and_keeps_later_ones(
        self, tmp_path, results_by_key
    ):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        locations = store.locate(keys)
        victim = min(keys, key=lambda k: locations[k][0])  # the first record
        data = bytearray(store.data_path.read_bytes())
        data[locations[victim][0] + 12] ^= 0xFF
        store.data_path.write_bytes(bytes(data))
        store.index_path.unlink()
        fresh = PackedResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="skipping damaged record"):
            present = fresh.probe(keys)
        assert present == frozenset(k for k in keys if k != victim)

    def test_append_after_torn_tail_survives_index_rebuild(
        self, tmp_path, results_by_key
    ):
        (a, b, c), values = list(results_by_key)[:3], results_by_key
        store = PackedResultStore(tmp_path)
        store.append_many([(a, values[a])])
        with open(store.data_path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # a killed writer's torn tail
        with pytest.warns(RuntimeWarning, match="rebuilding|damaged"):
            PackedResultStore(tmp_path).append_many([(b, values[b])])
        store.index_path.unlink()
        rebuilt = PackedResultStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no tear left to warn about
            assert rebuilt.probe([a, b, c]) == frozenset([a, b])
        rebuilt.append_many([(c, values[c])])
        fresh = PackedResultStore(tmp_path)
        assert fresh.get_many([a, b, c]) == {k: values[k] for k in (a, b, c)}


class TestWriterLock:
    def test_live_holder_rejects_second_writer(
        self, tmp_path, results_by_key
    ):
        store = PackedResultStore(tmp_path)
        store._acquire_lock()
        try:
            other = PackedResultStore(tmp_path)
            with pytest.raises(PackedStoreLockedError, match="live"):
                other.append_many(list(results_by_key.items()))
        finally:
            store._release_lock()

    def test_stale_lock_is_reclaimed(self, tmp_path, results_by_key):
        store = PackedResultStore(tmp_path)
        store.directory.mkdir(parents=True, exist_ok=True)
        store.lock_path.write_text("999999999\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="stale pack lock"):
            store.append_many(list(results_by_key.items()))
        assert not store.lock_path.exists()
        assert store.probe(results_by_key) == frozenset(results_by_key)


class TestDeferredIndex:
    def test_index_is_written_once_on_exit(self, tmp_path, results_by_key):
        store = PackedResultStore(tmp_path)
        with store.deferred_index():
            for item in results_by_key.items():
                store.append_many([item])
            assert not store.index_path.exists()
            assert store.get_many(results_by_key) == results_by_key
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a current index: no rescan
            reader = PackedResultStore(tmp_path)
            assert reader.get_many(results_by_key) == results_by_key

    def test_interleaved_writer_keeps_every_record(
        self, tmp_path, results_by_key
    ):
        keys = list(results_by_key)
        store = PackedResultStore(tmp_path)
        store.append_many([(keys[0], results_by_key[keys[0]])])
        with pytest.warns(RuntimeWarning, match="rebuilding"):
            with store.deferred_index():
                store.append_many([(keys[1], results_by_key[keys[1]])])
                # Another process appends while the index is deferred: it
                # rescans, so it keeps this block's unindexed record.
                other = PackedResultStore(tmp_path)
                other.append_many([(keys[2], results_by_key[keys[2]])])
                store.append_many([(k, results_by_key[k]) for k in keys[3:]])
        fresh = PackedResultStore(tmp_path)
        assert fresh.get_many(keys) == results_by_key


class TestMigrateOnOpen:
    def test_legacy_files_are_ingested_once_on_open(
        self, tmp_path, results_by_key
    ):
        _write_legacy_files(tmp_path, results_by_key)
        store = PackedResultStore(tmp_path)
        assert store.get_many(results_by_key) == results_by_key
        size = store.data_path.stat().st_size
        # pack.data now exists: a later open reads it and ingests nothing.
        again = PackedResultStore(tmp_path)
        assert again.get_many(results_by_key) == results_by_key
        assert again.data_path.stat().st_size == size
        # source files stay where they were.
        assert len(list(tmp_path.glob("*.json"))) == len(results_by_key)

    def test_first_append_migrates_under_its_own_lock(
        self, tmp_path, results_by_key
    ):
        keys = list(results_by_key)
        legacy, new = keys[:-1], keys[-1]
        _write_legacy_files(tmp_path, {k: results_by_key[k] for k in legacy})
        store = PackedResultStore(tmp_path)
        store.append_many([(new, results_by_key[new])])
        assert not store.lock_path.exists()
        assert PackedResultStore(tmp_path).get_many(keys) == results_by_key

    def test_migration_skips_unreadable_entries(
        self, tmp_path, results_by_key
    ):
        _write_legacy_files(tmp_path, results_by_key)
        (tmp_path / "deadbeef.json").write_text("{ torn", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            assert len(PackedResultStore(tmp_path)) == len(results_by_key)


class TestSweepsOnTheStore:
    def test_cold_and_warm_results_are_byte_identical(self, tmp_path):
        reference = run_sweep(
            **GRID_KWARGS, cache_dir=tmp_path / "a", transport="serial"
        )
        cold = run_sweep(
            **GRID_KWARGS, cache_dir=tmp_path / "b", transport="serial"
        )
        warm_a = run_sweep(
            **GRID_KWARGS, cache_dir=tmp_path / "a", transport="serial"
        )
        warm_b = run_sweep(
            **GRID_KWARGS, cache_dir=tmp_path / "b", transport="serial"
        )
        assert cold.to_json() == reference.to_json()
        assert warm_b.to_json() == warm_a.to_json()
        assert warm_b.cache_hits == len(warm_b.results)
        assert warm_b.cache_misses == 0

    def test_legacy_file_cache_restores_as_hits(self, tmp_path):
        reference = run_sweep(**GRID_KWARGS, transport="serial")
        cache = tmp_path / "cache"
        keys = cache_keys_for_grid(build_grid(**GRID_KWARGS))
        _write_legacy_files(cache, dict(zip(keys, reference.results)))
        warm = run_sweep(**GRID_KWARGS, cache_dir=cache, transport="serial")
        # Same results bytes; the hit counters legitimately differ (the
        # cold reference computed, the migrated run was fully warm).
        assert warm.results == reference.results
        assert [r.to_dict() for r in warm.results] == [
            r.to_dict() for r in reference.results
        ]
        assert warm.cache_hits == len(warm.results)

    def test_planner_probe_matches_store_state(self, tmp_path):
        from repro.api import ShardPlanner

        cache = tmp_path / "cache"
        run_sweep(experiments=("table4",), cache_dir=cache, transport="serial")
        grid = build_grid(**GRID_KWARGS) + build_grid(experiments=("table4",))
        stored = PackedResultStore(cache).probe(cache_keys_for_grid(grid))
        expected_warm = sum(
            1 for key in cache_keys_for_grid(grid) if key in stored
        )
        planner = ShardPlanner(cache_dir=cache)
        plan = planner.plan(grid)
        assert plan.warm_points == expected_warm  # the stored table4 points
        assert expected_warm > 0
        assert plan.cold_points == len(grid) - expected_warm

    @pytest.mark.parametrize(
        "damage", ["bad magic", "unsupported codec"], ids=["magic", "codec"]
    )
    def test_unusable_pack_degrades_to_an_uncached_sweep(
        self, tmp_path, damage
    ):
        cache = tmp_path / "cache"
        journal = tmp_path / "sweep.jsonl"
        reference = run_sweep(experiments=("table4",), transport="serial")
        if damage == "bad magic":
            cache.mkdir()
            (cache / DATA_FILENAME).write_bytes(b"not a pack at all")
        else:
            run_sweep(experiments=("table4",), cache_dir=cache)
            index = json.loads((cache / INDEX_FILENAME).read_text())
            index["codec"] = "zstd"
            (cache / INDEX_FILENAME).write_text(json.dumps(index))
        with pytest.warns(RuntimeWarning, match="skipping result-cache"):
            swept = run_sweep(
                experiments=("table4",),
                cache_dir=cache,
                journal=journal,
                transport="serial",
            )
        assert swept.results == reference.results
        assert swept.cache_misses == 1
        # The store could not take the result: the journal holds it in full.
        (line,) = journal.read_text().splitlines()[1:]
        assert json.loads(line)["kind"] == "point"


class TestSlimJournal:
    def test_packed_journal_uses_point_refs(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(
            **GRID_KWARGS,
            cache_dir=tmp_path / "cache",
            journal=journal,
            transport="serial",
        )
        kinds = [
            json.loads(line)["kind"]
            for line in journal.read_text().splitlines()
        ]
        assert kinds[0] == "header"
        assert set(kinds[1:]) == {"point-ref"}
        for line in journal.read_text().splitlines()[1:]:
            payload = json.loads(line)
            assert "result" not in payload
            assert payload["store"]["length"] > 0

    def test_slim_resume_is_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        journal = tmp_path / "sweep.jsonl"
        reference = run_sweep(
            **GRID_KWARGS,
            cache_dir=cache,
            journal=journal,
            transport="serial",
        )
        # Simulate an interruption: drop the tail of the journal, keeping
        # the header and the first journaled shard lines.
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[: 1 + len(lines) // 2]))
        resumed = run_sweep(
            **GRID_KWARGS,
            cache_dir=cache,
            journal=journal,
            transport="serial",
            resume=True,
        )
        # Identical results bytes; the hit counters report this
        # invocation's work (un-journaled points restore from the store as
        # hits -- the same documented semantics as the files backend).
        assert [r.to_dict() for r in resumed.results] == [
            r.to_dict() for r in reference.results
        ]
        assert resumed.stats.journaled_points > 0
        assert resumed.stats.journaled_points + resumed.cache_hits == len(
            reference.results
        )

    def test_ref_with_lost_record_recomputes(self, tmp_path):
        cache = tmp_path / "cache"
        journal = tmp_path / "sweep.jsonl"
        reference = run_sweep(
            experiments=("table4",),
            cache_dir=cache,
            journal=journal,
            transport="serial",
        )
        # Destroy the store: every journal ref now dangles.
        for name in (DATA_FILENAME, INDEX_FILENAME):
            (cache / name).unlink()
        with pytest.warns(RuntimeWarning, match="cannot be read"):
            resumed = run_sweep(
                experiments=("table4",),
                cache_dir=cache,
                journal=journal,
                transport="serial",
                    resume=True,
            )
        assert resumed.to_json() == reference.to_json()
        assert resumed.stats.journaled_points == 0  # recomputed, not restored

    def test_full_records_still_load_alongside_refs(self, tmp_path):
        cache = tmp_path / "cache"
        journal_path = tmp_path / "sweep.jsonl"
        reference = run_sweep(
            **GRID_KWARGS,
            cache_dir=cache,
            journal=journal_path,
            transport="serial",
        )
        # Rewrite one ref line as a legacy full record; load must accept
        # the mix (lock-contended shards journal in full).
        lines = journal_path.read_text().splitlines()
        payload = json.loads(lines[1])
        store = PackedResultStore(cache)
        result = store.get(payload["cache_key"])
        payload.pop("store")
        payload["kind"] = "point"
        payload["result"] = result.to_dict()
        lines[1] = json.dumps(payload, sort_keys=True)
        journal_path.write_text("".join(line + "\n" for line in lines))
        journal = SweepJournal(journal_path)
        entries = journal.load(store=store)
        assert len(entries) == len(reference.results)
        assert entries[payload["cache_key"]][0] == result


class TestLoadWithoutStore:
    def test_refs_without_store_warn_and_skip(self, tmp_path):
        cache = tmp_path / "cache"
        journal_path = tmp_path / "sweep.jsonl"
        run_sweep(
            experiments=("table4",),
            cache_dir=cache,
            journal=journal_path,
            transport="serial",
        )
        journal = SweepJournal(journal_path)
        with pytest.warns(RuntimeWarning, match="no store given"):
            assert journal.load() == {}
