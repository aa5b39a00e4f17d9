"""Sharded execution must be bit-identical to monolithic execution.

The contract of :mod:`repro.exec`: for *any* ``chunk_size``/``jobs``
partition, every sweep — deterministic and uncertain — produces
element-identical results (values, row order, axis columns, quantiles)
to the monolithic reference. Hypothesis drives the chunk geometry over
the inline path (``jobs=1``, which exercises the full
shard-plan/chunk-kernel/concat machinery); a smaller set of pinned
cases drives real process pools, including chunk counts that do not
divide the scenario count and pools larger than the chunk list.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.uncertainty import LogNormal, Normal
from repro.errors import ChunkFailedError, ExecutionError
from repro.exec import (
    CheckpointStore,
    FaultRule,
    FaultSpec,
    Shard,
    ShardPlan,
    install_faults,
    kernel_name,
    resolve_kernel,
    run_sharded,
)
from repro.scenarios import (
    ScenarioGrid,
    example_service_mix,
    facebook_like_fleet,
    run_sweep,
    run_uncertain_sweep,
    sweep_fleet,
    sweep_provisioning,
)
from repro.tabular import Table
from repro.traces import (
    DEFAULT_POLICIES,
    canonical_workloads,
    evaluate_policies,
    profile_catalog,
)
from repro.uncertainty import (
    UncertainResult,
    sweep_fleet_uncertain,
    sweep_provisioning_uncertain,
    sweep_temporal_shifting_uncertain,
)

_BASE = facebook_like_fleet()

_FLEET_GRID = ScenarioGrid(
    **{
        "annual_growth": [0.0, 0.1, 0.25, 0.4, 0.5],
        "server.lifetime_years": [2.0, 3.0, 4.0],
    }
)

_UNCERTAIN_GRID = ScenarioGrid(
    **{
        "annual_growth": [0.0, 0.15, 0.3],
        "server.lifetime_years": [3.0, 4.0],
        "utilization": [Normal(0.45, 0.05)],
    }
)


def _assert_tables_identical(left: Table, right: Table) -> None:
    assert left.column_names == right.column_names
    assert left.num_rows == right.num_rows
    for name in left.column_names:
        assert left.column(name) == right.column(name), name


def _assert_uncertain_identical(
    left: UncertainResult, right: UncertainResult
) -> None:
    _assert_tables_identical(left.axes, right.axes)
    assert left.draws == right.draws and left.seed == right.seed
    assert left.metric_names == right.metric_names
    for metric in left.metric_names:
        assert np.array_equal(
            left.samples[metric], right.samples[metric], equal_nan=True
        ), metric
    # Quantile summaries are derived from the samples, so they must
    # collapse too — pinned explicitly because the CLI renders them.
    _assert_tables_identical(left.quantile_table(), right.quantile_table())


class TestShardPlan:
    def test_shards_cover_axis_exactly(self):
        for n in (1, 2, 5, 16, 17):
            for chunk in (1, 2, 3, 16, 40):
                shards = ShardPlan(num_scenarios=n, chunk_size=chunk).shards()
                assert shards[0].start == 0
                assert shards[-1].stop == n
                for before, after in zip(shards, shards[1:]):
                    assert before.stop == after.start
                assert all(shard.size <= chunk for shard in shards)

    def test_chunk_size_bounds_every_shard(self):
        plan = ShardPlan.plan(100, chunk_size=7, jobs=3)
        assert plan.chunk_size == 7
        assert max(shard.size for shard in plan) == 7

    def test_default_chunking_is_whole_axis_inline(self):
        plan = ShardPlan.plan(100)
        assert plan.num_chunks == 1

    def test_default_chunking_splits_across_jobs(self):
        plan = ShardPlan.plan(100, jobs=4)
        assert plan.num_chunks == 4
        assert max(shard.size for shard in plan) == 25

    def test_more_jobs_than_scenarios(self):
        plan = ShardPlan.plan(3, jobs=8)
        assert plan.num_chunks == 3

    def test_invalid_plans_raise(self):
        with pytest.raises(ExecutionError):
            ShardPlan.plan(0)
        with pytest.raises(ExecutionError):
            ShardPlan.plan(10, chunk_size=0)
        with pytest.raises(ExecutionError):
            ShardPlan.plan(10, jobs=0)
        with pytest.raises(ExecutionError):
            Shard(index=0, start=3, stop=3)

    @given(
        n=st.integers(1, 200),
        chunk=st.integers(1, 220),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, chunk):
        shards = ShardPlan(num_scenarios=n, chunk_size=chunk).shards()
        covered = [i for shard in shards for i in range(shard.start, shard.stop)]
        assert covered == list(range(n))


class TestKernelNames:
    def test_round_trip(self):
        from repro.scenarios.runner import _fleet_chunk

        assert resolve_kernel(kernel_name(_fleet_chunk)) is _fleet_chunk

    def test_lambda_rejected(self):
        with pytest.raises(ExecutionError):
            kernel_name(lambda payload, start, stop: None)

    def test_nested_function_rejected(self):
        def nested(payload, start, stop):
            return None

        with pytest.raises(ExecutionError):
            kernel_name(nested)

    def test_malformed_names_rejected(self):
        for name in ("", "no-colon", "mod:", ":fn", "mod:a.b"):
            with pytest.raises(ExecutionError):
                resolve_kernel(name)
        with pytest.raises(ExecutionError):
            resolve_kernel("not_a_module_anywhere:fn")
        with pytest.raises(ExecutionError):
            resolve_kernel("repro.exec:missing_kernel")

    def test_run_sharded_rejects_bad_jobs(self):
        from repro.scenarios.runner import _fleet_chunk

        with pytest.raises(ExecutionError):
            run_sharded(_fleet_chunk, None, 4, chunk_size=4, jobs=0)


class TestDeterministicShardedEquivalence:
    @pytest.fixture(scope="class")
    def fleet_reference(self):
        return sweep_fleet(_BASE, _FLEET_GRID)

    @given(chunk=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_fleet_any_chunk_size(self, fleet_reference, chunk):
        sharded = sweep_fleet(_BASE, _FLEET_GRID, chunk_size=chunk)
        _assert_tables_identical(sharded, fleet_reference)

    def test_fleet_process_pool(self, fleet_reference):
        for jobs, chunk in ((2, None), (2, 4), (3, 2), (8, 7)):
            sharded = sweep_fleet(
                _BASE, _FLEET_GRID, jobs=jobs, chunk_size=chunk
            )
            _assert_tables_identical(sharded, fleet_reference)

    @given(chunk=st.integers(1, 25))
    @settings(max_examples=12, deadline=None)
    def test_provisioning_any_chunk_size(self, chunk):
        workloads, general, server_types = example_service_mix()
        kwargs = dict(
            utilization_targets=[0.4, 0.5, 0.6, 0.7, 0.8],
            demand_scales=[0.5, 1.0, 2.0, 4.0],
        )
        reference = sweep_provisioning(
            workloads, general, server_types, **kwargs
        )
        sharded = sweep_provisioning(
            workloads, general, server_types, chunk_size=chunk, **kwargs
        )
        _assert_tables_identical(sharded, reference)

    @given(chunk=st.integers(1, 12))
    @settings(max_examples=8, deadline=None)
    def test_trace_evaluator_any_chunk_size(self, chunk):
        catalog = profile_catalog(48, stochastic_seeds=(0,))
        workloads = canonical_workloads()
        reference = evaluate_policies(
            catalog, workloads, DEFAULT_POLICIES, capacity_kw=2500.0
        )
        sharded = evaluate_policies(
            catalog,
            workloads,
            DEFAULT_POLICIES,
            capacity_kw=2500.0,
            chunk_size=chunk,
        )
        _assert_tables_identical(sharded, reference)

    def test_named_sweeps_sharded(self):
        for name in ("fleet_growth_lifetime", "provisioning_mix"):
            reference = run_sweep(name)
            _assert_tables_identical(
                run_sweep(name, chunk_size=3), reference
            )
            _assert_tables_identical(
                run_sweep(name, jobs=2, chunk_size=5), reference
            )


class TestUncertainShardedEquivalence:
    @pytest.fixture(scope="class")
    def fleet_reference(self):
        return sweep_fleet_uncertain(_BASE, _UNCERTAIN_GRID, draws=16, seed=7)

    @given(chunk=st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_fleet_any_chunk_size(self, fleet_reference, chunk):
        sharded = sweep_fleet_uncertain(
            _BASE, _UNCERTAIN_GRID, draws=16, seed=7, chunk_size=chunk
        )
        _assert_uncertain_identical(sharded, fleet_reference)

    def test_fleet_process_pool(self, fleet_reference):
        sharded = sweep_fleet_uncertain(
            _BASE, _UNCERTAIN_GRID, draws=16, seed=7, jobs=2, chunk_size=2
        )
        _assert_uncertain_identical(sharded, fleet_reference)

    @given(chunk=st.integers(1, 7), seed=st.integers(0, 2**10))
    @settings(max_examples=8, deadline=None)
    def test_provisioning_any_chunk_size(self, chunk, seed):
        workloads, general, server_types = example_service_mix()
        kwargs = dict(
            utilization_targets=[0.4, 0.6, 0.8],
            demand_scales=[LogNormal.from_median(1.0, 0.35), 2.0],
            draws=12,
            seed=seed,
        )
        reference = sweep_provisioning_uncertain(
            workloads, general, server_types, **kwargs
        )
        sharded = sweep_provisioning_uncertain(
            workloads, general, server_types, chunk_size=chunk, **kwargs
        )
        _assert_uncertain_identical(sharded, reference)

    @given(chunk=st.integers(1, 10))
    @settings(max_examples=6, deadline=None)
    def test_temporal_any_chunk_size(self, chunk):
        reference = sweep_temporal_shifting_uncertain(48, draws=2, seed=5)
        sharded = sweep_temporal_shifting_uncertain(
            48, draws=2, seed=5, chunk_size=chunk
        )
        _assert_uncertain_identical(sharded, reference)

    def test_named_uncertain_sweep_sharded(self):
        reference = run_uncertain_sweep("provisioning_mix", 8, 3)
        sharded = run_uncertain_sweep(
            "provisioning_mix", 8, 3, jobs=2, chunk_size=2
        )
        _assert_uncertain_identical(sharded, reference)


class TestFaultInjectedEquivalence:
    """Recovered faults must leave no trace in the results.

    Each test pins a deterministic failure schedule — which chunks
    fail, how, and on which attempts — and asserts the recovered sweep
    is element-identical to the clean monolithic reference. The fleet
    grid has 15 scenarios; ``chunk_size=4`` puts the shard starts at
    0, 4, 8, and 12.
    """

    @pytest.fixture(scope="class")
    def fleet_reference(self):
        return sweep_fleet(_BASE, _FLEET_GRID)

    def test_raise_schedule_inline(self, fleet_reference):
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(0, 8), attempts=(1,)),)
        )
        with install_faults(spec):
            sharded = sweep_fleet(_BASE, _FLEET_GRID, chunk_size=4, retries=1)
        _assert_tables_identical(sharded, fleet_reference)

    def test_crash_schedule_pool(self, fleet_reference):
        spec = FaultSpec(
            rules=(FaultRule(kind="crash", starts=(4,), attempts=(1,)),)
        )
        with install_faults(spec):
            sharded = sweep_fleet(
                _BASE, _FLEET_GRID, jobs=2, chunk_size=4, retries=2
            )
        _assert_tables_identical(sharded, fleet_reference)

    def test_hang_schedule_pool(self, fleet_reference):
        spec = FaultSpec(
            rules=(
                FaultRule(kind="hang", starts=(8,), attempts=(1,), seconds=30.0),
            )
        )
        with install_faults(spec):
            sharded = sweep_fleet(
                _BASE,
                _FLEET_GRID,
                jobs=2,
                chunk_size=4,
                retries=1,
                timeout=1.0,
            )
        _assert_tables_identical(sharded, fleet_reference)

    def test_corrupt_schedule_pool(self, fleet_reference):
        spec = FaultSpec(
            rules=(FaultRule(kind="corrupt", starts=(4, 12), attempts=(1,)),)
        )
        with install_faults(spec):
            sharded = sweep_fleet(
                _BASE, _FLEET_GRID, jobs=2, chunk_size=4, retries=1
            )
        _assert_tables_identical(sharded, fleet_reference)

    def test_chaos_schedule_pool(self, fleet_reference):
        starts = [
            shard.start
            for shard in ShardPlan(num_scenarios=15, chunk_size=4).shards()
        ]
        spec = FaultSpec.chaos(starts, seed=3, rate=0.75)
        assert spec, "chaos schedule at rate=0.75 must inject something"
        with install_faults(spec):
            sharded = sweep_fleet(
                _BASE, _FLEET_GRID, jobs=2, chunk_size=4, retries=1
            )
        _assert_tables_identical(sharded, fleet_reference)

    def test_env_var_schedule(self, fleet_reference, monkeypatch):
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(12,), attempts=(1,)),)
        )
        monkeypatch.setenv("REPRO_FAULTS", spec.to_json())
        sharded = sweep_fleet(_BASE, _FLEET_GRID, chunk_size=4, retries=1)
        _assert_tables_identical(sharded, fleet_reference)

    def test_uncertain_sweep_under_faults(self):
        reference = sweep_fleet_uncertain(
            _BASE, _UNCERTAIN_GRID, draws=16, seed=7
        )
        spec = FaultSpec(
            rules=(FaultRule(kind="crash", starts=(0,), attempts=(1,)),)
        )
        with install_faults(spec):
            sharded = sweep_fleet_uncertain(
                _BASE,
                _UNCERTAIN_GRID,
                draws=16,
                seed=7,
                jobs=2,
                chunk_size=2,
                retries=1,
            )
        _assert_uncertain_identical(sharded, reference)

    def test_skip_mode_partial_matches_reference_rows(self, fleet_reference):
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(4,), attempts=None),)
        )
        with install_faults(spec):
            partial, report = sweep_fleet(
                _BASE, _FLEET_GRID, chunk_size=4, on_error="skip"
            )
        assert report.shard_ranges() == [(4, 8)]
        assert report.skipped_scenarios() == 4
        kept = [i for i in range(15) if not 4 <= i < 8]
        assert partial.num_rows == len(kept)
        for name in fleet_reference.column_names:
            full = fleet_reference.column(name)
            assert partial.column(name) == [full[i] for i in kept], name


def _logging_square_chunk(payload, start, stop):
    """Counting kernel: records every chunk call before computing it."""
    log_path, values = payload
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{start}:{stop}\n")
    return [value * value for value in values[start:stop]]


def _concat(chunks):
    """Flatten list chunks."""
    return [value for chunk in chunks for value in chunk]


class TestCheckpointResume:
    def test_resume_recomputes_only_unfinished_chunks(self, tmp_path):
        log = tmp_path / "calls.log"
        log.touch()
        values = list(range(12))
        payload = (str(log), values)
        plan = ShardPlan(num_scenarios=12, chunk_size=3)
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(6,), attempts=None),)
        )
        store = CheckpointStore(
            tmp_path / "cache", spec_parts=("resume-test",), consume=False
        )
        with pytest.raises(ChunkFailedError):
            run_sharded(
                _logging_square_chunk,
                payload,
                plan.num_scenarios,
                chunk_size=plan.chunk_size,
                combine=_concat,
                retries=1,
                checkpoint=store,
                faults=spec,
            )
        # The inline runner aborts at the failing chunk (whose injected
        # fault fires before the kernel), so exactly the chunks before
        # it completed and were checkpointed.
        assert log.read_text().splitlines() == ["0:3", "3:6"]

        log.write_text("")
        resume = CheckpointStore(
            tmp_path / "cache", spec_parts=("resume-test",), consume=True
        )
        result = run_sharded(
            _logging_square_chunk,
            payload,
            plan.num_scenarios,
            chunk_size=plan.chunk_size,
            combine=_concat,
            checkpoint=resume,
        )
        assert result == [value * value for value in values]
        # The kernel-call counter proves only unfinished chunks reran.
        assert log.read_text().splitlines() == ["6:9", "9:12"]

        # A fully successful run discards its checkpoints, so a later
        # resume of the same spec starts clean.
        leftover = CheckpointStore(
            tmp_path / "cache", spec_parts=("resume-test",), consume=True
        )
        for start in (0, 3, 6, 9):
            assert leftover.get(start, start + 3) == (False, None)

    def test_resume_result_is_bit_identical(self, tmp_path):
        reference = sweep_fleet(_BASE, _FLEET_GRID)
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(8,), attempts=None),)
        )
        store = CheckpointStore(
            tmp_path, spec_parts=("fleet-resume",), consume=False
        )
        with install_faults(spec):
            with pytest.raises(ChunkFailedError):
                sweep_fleet(
                    _BASE,
                    _FLEET_GRID,
                    chunk_size=4,
                    retries=1,
                    checkpoint=store,
                )
        resume = CheckpointStore(
            tmp_path, spec_parts=("fleet-resume",), consume=True
        )
        resumed = sweep_fleet(
            _BASE, _FLEET_GRID, chunk_size=4, checkpoint=resume
        )
        _assert_tables_identical(resumed, reference)


class TestCliResume:
    def test_sweep_resume_after_injected_failure(self, tmp_path):
        import repro

        src_dir = Path(repro.__file__).resolve().parents[1]
        env = os.environ.copy()
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        base_cmd = [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            "fleet_growth_lifetime",
            "--chunk-size",
            "4",
        ]
        cache = str(tmp_path / "cache")

        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(8,), attempts=None),)
        )
        faulted_env = dict(env, REPRO_FAULTS=spec.to_json())
        first = subprocess.run(
            base_cmd + ["--cache-dir", cache],
            env=faulted_env,
            capture_output=True,
            text=True,
        )
        assert first.returncode != 0, first.stderr

        resumed = subprocess.run(
            base_cmd + ["--cache-dir", cache, "--resume"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert resumed.returncode == 0, resumed.stderr

        clean = subprocess.run(
            base_cmd + ["--cache-dir", str(tmp_path / "clean")],
            env=env,
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stderr
        assert resumed.stdout == clean.stdout

    def test_resume_without_cache_is_an_error(self, tmp_path):
        import repro

        src_dir = Path(repro.__file__).resolve().parents[1]
        env = os.environ.copy()
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "sweep",
                "fleet_growth_lifetime",
                "--resume",
                "--no-cache",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "--resume" in result.stderr


class TestSweepSpecCompatibility:
    def test_legacy_zero_arg_builders_still_run(self):
        # SweepSpec predates the execution layer; registered specs with
        # zero-arg builders must keep working at default settings.
        from repro.scenarios.runner import SWEEPS, SweepSpec

        legacy = SweepSpec(
            name="legacy_test_spec",
            description="a pre-exec-layer spec",
            build=lambda: Table({"a": [1.0]}),
            build_uncertain=None,
        )
        SWEEPS[legacy.name] = legacy
        try:
            assert run_sweep(legacy.name).column("a") == [1.0]
        finally:
            del SWEEPS[legacy.name]
