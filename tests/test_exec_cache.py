"""The on-disk result cache: keys, atomicity, and registry/CLI reuse.

The cache's contract has three legs: keys are content-addressed (any
``repro`` source edit orphans every entry; key parts never collide by
concatenation), reads degrade to misses on *any* corruption, and the
experiments registry plus the ``repro run``/``repro sweep`` CLI share
one directory across processes so repeated invocations warm-start.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cli import main
from repro.errors import ExecutionError
from repro.exec import (
    CheckpointStore,
    ResultCache,
    cache_key,
    default_cache_dir,
    package_fingerprint,
)
from repro.experiments import registry as experiment_registry
from repro.experiments import clear_result_cache, run_all, run_experiment
from repro.experiments.result import ExperimentResult
from repro.tabular import Table


class TestCacheKeys:
    def test_key_is_hex_digest(self):
        key = cache_key("sweep", "name", 8, 0)
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_parts_do_not_collide_by_concatenation(self):
        assert cache_key("ab", "c") != cache_key("a", "bc")
        assert cache_key("a", "") != cache_key("a")

    def test_empty_key_rejected(self):
        with pytest.raises(ExecutionError):
            cache_key()

    def test_package_fingerprint_is_stable_hex(self):
        first = package_fingerprint()
        assert first == package_fingerprint()
        assert len(first) == 64

    def test_default_cache_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
        assert default_cache_dir() == tmp_path / "explicit"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert default_cache_dir().name == "repro"

    def test_malformed_keys_rejected(self):
        cache = ResultCache("unused")
        for key in ("", "a/b", "a\\b", "a.b"):
            with pytest.raises(ExecutionError):
                cache.path_for(key)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        table = Table({"x": [1.0, 2.0], "label": ["a", "b"]})
        key = cache_key("test", "round-trip")
        assert cache.get(key) is None
        cache.put(key, table)
        assert cache.get(key) == table
        assert cache.path_for(key).exists()

    def test_put_is_best_effort_on_unwritable_locations(self, tmp_path):
        # The cache is an accelerator: a run that already computed its
        # result must never crash while memoizing it.
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "nested")
        key = cache_key("test", "unwritable")
        assert cache.put(key, [1, 2, 3]) is False
        assert cache.get(key) is None

    def test_put_reports_success(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.put(cache_key("test", "ok"), 42) is True

    def test_put_swallows_unpicklable_values(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("test", "unpicklable")
        assert cache.put(key, lambda: None) is False
        assert cache.get(key) is None
        leftovers = list((tmp_path / "v1").glob("*.tmp"))
        assert leftovers == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("test", "corrupt")
        cache.put(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key, default="fallback") == "fallback"
        truncated = pickle.dumps([1, 2, 3])[:-4]
        cache.path_for(key).write_bytes(truncated)
        assert cache.get(key) is None
        # Bytes that *do* parse as pickle opcodes but blow up inside the
        # VM (here: a REDUCE calling len() with the wrong arity) must
        # also read as a miss, not crash the consulting sweep.
        cache.path_for(key).write_bytes(b"c__builtin__\nlen\n(tR.")
        assert cache.get(key, default="fallback") == "fallback"

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(5):
            cache.put(cache_key("test", index), index)
        leftovers = [p for p in (tmp_path / "v1").iterdir() if p.suffix != ".pkl"]
        assert leftovers == []

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(cache_key("test", index), index)
        assert cache.clear() == 3
        assert cache.get(cache_key("test", 0)) is None
        assert cache.clear() == 0

    def test_clear_sweeps_orphaned_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key("test", "entry"), 1)
        # A writer killed between mkstemp and os.replace leaves a .tmp.
        orphan = tmp_path / "v1" / ".deadbeef-orphan.tmp"
        orphan.write_bytes(b"partial write")
        assert cache.clear() == 1
        assert not orphan.exists()


class TestRegistryDiskCache:
    def _count_runs(self, call):
        calls = {"count": 0}
        original = experiment_registry.get_experiment

        def counting(experiment_id):
            calls["count"] += 1
            return original(experiment_id)

        experiment_registry.get_experiment = counting
        try:
            result = call()
        finally:
            experiment_registry.get_experiment = original
        return calls["count"], result

    def test_disk_cache_survives_in_process_cache_clear(self, tmp_path):
        clear_result_cache()
        first = run_experiment("tab01", cache_dir=tmp_path)
        assert list((tmp_path / "v1").glob("*.pkl"))
        # A fresh process has no in-process entries; simulate that and
        # check the driver is not re-run.
        clear_result_cache()
        runs, second = self._count_runs(
            lambda: run_experiment("tab01", cache_dir=tmp_path)
        )
        assert runs == 0
        assert second.title == first.title
        assert second.tables.keys() == first.tables.keys()
        clear_result_cache()

    def test_wrong_typed_disk_entry_is_recomputed(self, tmp_path):
        clear_result_cache()
        run_experiment("tab01", cache_dir=tmp_path)
        entry = next((tmp_path / "v1").glob("*.pkl"))
        entry.write_bytes(pickle.dumps("not an ExperimentResult"))
        clear_result_cache()
        runs, result = self._count_runs(
            lambda: run_experiment("tab01", cache_dir=tmp_path)
        )
        assert runs == 1
        assert isinstance(result, ExperimentResult)
        clear_result_cache()

    def test_run_all_reuses_disk_entries(self, tmp_path):
        clear_result_cache()
        warm = run_all(cache_dir=tmp_path)
        assert len(list((tmp_path / "v1").glob("*.pkl"))) == len(warm)
        clear_result_cache()
        runs, results = self._count_runs(lambda: run_all(cache_dir=tmp_path))
        assert runs == 0
        assert list(results) == list(warm)
        clear_result_cache()


class TestCliCache:
    def test_sweep_cache_dir_warm_start(self, tmp_path, capsys):
        argv = [
            "sweep",
            "fleet_growth_lifetime",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert list((tmp_path / "v1").glob("*.pkl"))
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_sweep_draws_cache_dir_warm_start(self, tmp_path, capsys):
        argv = [
            "sweep",
            "provisioning_mix",
            "--draws",
            "8",
            "--seed",
            "3",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        # A different seed is a different key, not a stale hit.
        assert main(argv[:-4] + ["--seed", "4", "--cache-dir", str(tmp_path)]) == 0
        assert "seed 4" in capsys.readouterr().out

    def test_sweep_jobs_share_one_cache_entry(self, tmp_path, capsys):
        argv = ["sweep", "provisioning_mix", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        entries = sorted((tmp_path / "v1").glob("*.pkl"))
        # Sharded runs are bit-identical, so jobs/chunk-size are not in
        # the key: the warm entry serves every parallelism level.
        assert main(argv + ["--jobs", "2", "--chunk-size", "3"]) == 0
        capsys.readouterr()
        assert sorted((tmp_path / "v1").glob("*.pkl")) == entries

    def test_run_all_cache_dir_warm_start(self, tmp_path, capsys):
        clear_result_cache()
        argv = ["run", "all", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        clear_result_cache()
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        clear_result_cache()

    def test_no_cache_conflicts_with_cache_dir(self, tmp_path, capsys):
        assert main(
            [
                "sweep",
                "fleet_growth_lifetime",
                "--no-cache",
                "--cache-dir",
                str(tmp_path),
            ]
        ) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "fleet_growth_lifetime", "--no-cache"]) == 0
        capsys.readouterr()
        assert not list(tmp_path.rglob("*.pkl"))

    def test_default_cache_dir_used_without_flags(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "fleet_growth_lifetime"]) == 0
        capsys.readouterr()
        assert list(tmp_path.rglob("*.pkl"))


# ----------------------------------------------------------------------
# Concurrent-writer stress and checkpoint-namespace hygiene


def _blob(writer: int) -> bytes:
    """A payload whose integrity is checkable from its own content."""
    return bytes([writer % 256]) * 65536


def _hammer_cache(directory: str, key: str, writer: int, rounds: int) -> None:
    """Worker: race put/get on one ResultCache key; die on a torn read."""
    import warnings

    # A corrupt entry surfaces as a RuntimeWarning miss — with atomic
    # temp+rename writes a reader must only ever see a complete entry,
    # so any corruption here is a failure, not a degradation.
    warnings.simplefilter("error", RuntimeWarning)
    cache = ResultCache(directory)
    for _ in range(rounds):
        assert cache.put(key, {"writer": writer, "blob": _blob(writer)})
        value = cache.get(key)
        if value is not None:
            assert value["blob"] == _blob(value["writer"])
    assert cache.stats.corrupt == 0


def _hammer_checkpoints(directory: str, writer: int, rounds: int) -> None:
    """Worker: race put/get on one CheckpointStore chunk range."""
    import warnings

    warnings.simplefilter("error", RuntimeWarning)
    store = CheckpointStore(
        directory, spec_parts=("stress", "shared"), consume=True
    )
    for _ in range(rounds):
        assert store.put(0, 64, {"writer": writer, "blob": _blob(writer)})
        hit, value = store.get(0, 64)
        if hit:
            assert value["blob"] == _blob(value["writer"])


class TestConcurrentWriters:
    """Processes racing temp+rename on one key never tear a read."""

    WRITERS = 4
    ROUNDS = 120

    def _race(self, target, args_for):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=target, args=args_for(writer))
            for writer in range(self.WRITERS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        codes = [worker.exitcode for worker in workers]
        assert codes == [0] * self.WRITERS, codes

    def test_result_cache_same_key_stress(self, tmp_path):
        key = "f" * 64
        self._race(
            _hammer_cache,
            lambda writer: (str(tmp_path), key, writer, self.ROUNDS),
        )
        # While the storm ran, each write was atomic; afterwards the
        # entry is one writer's complete payload.
        reader = ResultCache(tmp_path)
        value = reader.get(key)
        assert value is not None
        assert value["blob"] == _blob(value["writer"])
        assert reader.stats.corrupt == 0
        # No orphaned temp files survived the racing mkstemp/replace.
        schema_dir = tmp_path / "v1"
        assert not list(schema_dir.glob("*.tmp"))

    def test_checkpoint_store_same_range_stress(self, tmp_path):
        self._race(
            _hammer_checkpoints,
            lambda writer: (str(tmp_path), writer, self.ROUNDS),
        )
        store = CheckpointStore(
            tmp_path, spec_parts=("stress", "shared"), consume=True
        )
        hit, value = store.get(0, 64)
        assert hit
        assert value["blob"] == _blob(value["writer"])


def _range_chunk(payload, start, stop):
    """Module-level chunk kernel for the checkpoint-lifecycle test."""
    return [value * 3 for value in payload[start:stop]]


class TestCheckpointNamespace:
    """complete()/clear() leave no stale checkpoints behind."""

    def test_complete_removes_stale_geometry_entries(self, tmp_path):
        store = CheckpointStore(
            tmp_path, spec_parts=("sweep", "x"), consume=True
        )
        # Two chunk geometries of the same spec — a range-by-range
        # discard driven by either plan could never name the other's.
        store.put(0, 5, "a")
        store.put(5, 10, "b")
        store.put(0, 10, "stale geometry")
        assert store.complete() == 3
        assert not store.directory.exists()
        fresh = CheckpointStore(
            tmp_path, spec_parts=("sweep", "x"), consume=True
        )
        assert fresh.get(0, 10) == (False, None)

    def test_complete_leaves_other_specs_alone(self, tmp_path):
        mine = CheckpointStore(tmp_path, spec_parts=("a",), consume=True)
        other = CheckpointStore(tmp_path, spec_parts=("b",), consume=True)
        mine.put(0, 5, "mine")
        other.put(0, 5, "other")
        mine.complete()
        assert other.get(0, 5) == (True, "other")

    def test_result_cache_clear_sweeps_checkpoint_tree(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"result": 1})
        store = CheckpointStore(tmp_path, spec_parts=("s",), consume=True)
        store.put(0, 5, "chunk")
        # Checkpoints are swept alongside the results that supersede
        # them but do not count toward the removed-entry total.
        assert cache.clear() == 1
        assert not (tmp_path / "checkpoints").exists()
        fresh = CheckpointStore(tmp_path, spec_parts=("s",), consume=True)
        assert fresh.get(0, 5) == (False, None)

    def test_sharded_success_completes_the_namespace(self, tmp_path):
        from repro.exec import ShardPlan, run_sharded

        store = CheckpointStore(
            tmp_path, spec_parts=("sweep", "lifecycle"), consume=False
        )
        # Leftover from a hypothetical earlier run under a different
        # chunk geometry: the success path must remove it too.
        store.put(3, 17, "stale leftover")
        plan = ShardPlan(num_scenarios=20, chunk_size=5)
        payload = list(range(20))
        result = run_sharded(
            _range_chunk,
            payload,
            plan.num_scenarios,
            chunk_size=plan.chunk_size,
            jobs=1,
            combine=lambda chunks: [v for chunk in chunks for v in chunk],
            checkpoint=store,
        )
        assert result == [value * 3 for value in payload]
        assert not store.directory.exists()
