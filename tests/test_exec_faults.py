"""The fault-tolerance layer: retries, timeouts, checkpoints, injection.

Every recovery path of :func:`repro.exec.run_sharded` is driven here
by the deterministic fault harness — no killing processes on timers,
no sleeping and hoping. Faults are declared per (chunk, attempt), so
each test replays the exact same failure schedule every run.
"""

from __future__ import annotations

import concurrent.futures
import json

import numpy as np
import pytest

from repro.errors import ChunkFailedError, CorruptChunkError, ExecutionError
from repro.exec import (
    CheckpointStore,
    ChunkFailure,
    FailureReport,
    FaultRule,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    ShardPlan,
    active_fault_spec,
    cache_key,
    install_faults,
    run_sharded,
)
from repro.exec.faults import corrupt_bytes, perform_fault
from repro.exec.runner import _open_envelope


def _square_chunk(payload, start, stop):
    """Module-level chunk kernel: squares of ``payload[start:stop]``."""
    return [value * value for value in payload[start:stop]]


_PAYLOAD = list(range(20))
_PLAN = ShardPlan(num_scenarios=20, chunk_size=5)
_EXPECTED = [value * value for value in _PAYLOAD]


def _flat(chunks):
    """Concatenate list chunks."""
    return [value for chunk in chunks for value in chunk]


class TestRetryPolicy:
    def test_coerce(self):
        assert RetryPolicy.coerce(None).max_attempts == 1
        assert RetryPolicy.coerce(0).max_attempts == 1
        assert RetryPolicy.coerce(3).max_attempts == 4
        policy = RetryPolicy(max_attempts=7)
        assert RetryPolicy.coerce(policy) is policy

    def test_coerce_rejects_junk(self):
        for value in (-1, 2.5, "3", True):
            with pytest.raises(ExecutionError):
                RetryPolicy.coerce(value)

    def test_validation(self):
        with pytest.raises(ExecutionError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExecutionError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ExecutionError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ExecutionError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ExecutionError):
            RetryPolicy(max_delay=-1.0)

    def test_delays_are_deterministic(self):
        policy = RetryPolicy(seed=11)
        for stream in (0, 5, 10):
            for attempt in (1, 2, 3):
                assert policy.delay(stream, attempt) == policy.delay(
                    stream, attempt
                )
        # Different streams and attempts jitter independently.
        assert policy.delay(0, 1) != policy.delay(5, 1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, jitter=0.0, max_delay=0.3
        )
        assert policy.delay(0, 1) == pytest.approx(0.1)
        assert policy.delay(0, 2) == pytest.approx(0.2)
        assert policy.delay(0, 3) == pytest.approx(0.3)  # capped
        assert policy.delay(0, 6) == pytest.approx(0.3)

    def test_none_policy_never_sleeps(self):
        policy = RetryPolicy.none()
        assert policy.max_attempts == 1
        assert policy.delay(3, 1) == 0.0

    def test_delay_rejects_bad_attempt(self):
        with pytest.raises(ExecutionError):
            RetryPolicy().delay(0, 0)


class TestFaultSpec:
    def test_rule_matching(self):
        rule = FaultRule(kind="raise", starts=(0, 10), attempts=(1, 2))
        assert rule.matches(0, 1) and rule.matches(10, 2)
        assert not rule.matches(5, 1) and not rule.matches(0, 3)
        everywhere = FaultRule(kind="raise", starts=None, attempts=None)
        assert everywhere.matches(123, 9)

    def test_first_matching_rule_wins(self):
        spec = FaultSpec(
            rules=(
                FaultRule(kind="hang", starts=(0,), attempts=(1,)),
                FaultRule(kind="raise", starts=None, attempts=(1,)),
            )
        )
        assert spec.match(0, 1).kind == "hang"
        assert spec.match(5, 1).kind == "raise"
        assert spec.match(5, 2) is None

    def test_json_round_trip(self):
        spec = FaultSpec(
            rules=(
                FaultRule(kind="crash", starts=(4,), attempts=(1, 2)),
                FaultRule(kind="hang", starts=None, attempts=(1,), seconds=0.25),
            )
        )
        assert FaultSpec.from_json(spec.to_json()) == spec

    def test_from_json_rejects_junk(self):
        for text in ("not json", "[]", '{"rules": [{"starts": [1]}]}'):
            with pytest.raises(ExecutionError):
                FaultSpec.from_json(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecutionError):
            FaultRule(kind="meltdown")

    def test_env_resolution_order(self, monkeypatch):
        env_spec = FaultSpec(rules=(FaultRule(kind="raise"),))
        monkeypatch.setenv("REPRO_FAULTS", env_spec.to_json())
        assert active_fault_spec() == env_spec
        installed = FaultSpec(rules=(FaultRule(kind="hang"),))
        with install_faults(installed):
            assert active_fault_spec() is installed
            explicit = FaultSpec(rules=(FaultRule(kind="crash"),))
            assert active_fault_spec(explicit) is explicit
        assert active_fault_spec() == env_spec
        monkeypatch.delenv("REPRO_FAULTS")
        assert active_fault_spec() is None

    def test_chaos_is_seeded(self):
        starts = list(range(0, 100, 5))
        first = FaultSpec.chaos(starts, seed=42, rate=0.5)
        second = FaultSpec.chaos(starts, seed=42, rate=0.5)
        assert first == second
        assert first != FaultSpec.chaos(starts, seed=43, rate=0.5)
        # Chaos faults fire on attempt 1 only, so one retry recovers.
        assert all(rule.attempts == (1,) for rule in first.rules)

    def test_corrupt_bytes_always_differs(self):
        for payload in (b"", b"x", b"hello world"):
            assert corrupt_bytes(payload) != payload

    def test_inline_crash_degrades_to_raise(self):
        rule = FaultRule(kind="crash", starts=(0,))
        with pytest.raises(InjectedFault):
            perform_fault(rule, start=0, in_worker=False)


class TestInlineRecovery:
    def test_raise_fault_retried(self):
        spec = FaultSpec(rules=(FaultRule(kind="raise", starts=(5,), attempts=(1,)),))
        result = run_sharded(
            _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size, combine=_flat, retries=1, faults=spec
        )
        assert result == _EXPECTED

    def test_corrupt_fault_retried(self):
        spec = FaultSpec(
            rules=(FaultRule(kind="corrupt", starts=(0,), attempts=(1,)),)
        )
        result = run_sharded(
            _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size, combine=_flat, retries=1, faults=spec
        )
        assert result == _EXPECTED

    def test_no_retry_budget_propagates_kernel_exception(self):
        # The pre-fault-tolerance contract: at default settings the
        # chunk's own exception surfaces unchanged.
        spec = FaultSpec(rules=(FaultRule(kind="raise", starts=(5,), attempts=None),))
        with pytest.raises(InjectedFault):
            run_sharded(
                _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size, combine=_flat, faults=spec
            )

    def test_no_retry_budget_propagates_from_pool(self):
        spec = FaultSpec(rules=(FaultRule(kind="raise", starts=(5,), attempts=None),))
        with pytest.raises(InjectedFault):
            run_sharded(
                _square_chunk,
                _PAYLOAD,
                _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size,
                jobs=2,
                combine=_flat,
                faults=spec,
            )

    def test_exhaustion_raises_structured_error(self):
        spec = FaultSpec(rules=(FaultRule(kind="raise", starts=(5,), attempts=None),))
        with pytest.raises(ChunkFailedError) as excinfo:
            run_sharded(
                _square_chunk,
                _PAYLOAD,
                _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size,
                combine=_flat,
                retries=2,
                faults=spec,
            )
        error = excinfo.value
        assert (error.index, error.start, error.stop) == (1, 5, 10)
        assert error.attempts == 3
        assert error.kind == "error"
        assert isinstance(error.__cause__, InjectedFault)

    def test_skip_mode_returns_partial_and_report(self):
        spec = FaultSpec(rules=(FaultRule(kind="raise", starts=(5,), attempts=None),))
        report = FailureReport()
        result = run_sharded(
            _square_chunk,
            _PAYLOAD,
            _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size,
            combine=_flat,
            skip=report,
            faults=spec,
        )
        assert result == [v * v for v in _PAYLOAD[:5] + _PAYLOAD[10:]]
        assert report and report.num_failed == 1
        assert report.shard_ranges() == [(5, 10)]
        assert report.skipped_scenarios() == 5
        assert report.failures[0].kind == "error"
        # The report serializes for machine consumption.
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["failures"][0]["start"] == 5

    def test_skip_mode_with_no_failures_reports_clean(self):
        report = FailureReport()
        result = run_sharded(
            _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size, combine=_flat, skip=report
        )
        assert result == _EXPECTED
        assert not report and report.num_completed == 4
        assert "all 4 chunks completed" in report.summary()

    def test_all_chunks_failed_raises_even_in_skip_mode(self):
        spec = FaultSpec(rules=(FaultRule(kind="raise", starts=None, attempts=None),))
        report = FailureReport()
        with pytest.raises(ChunkFailedError):
            run_sharded(
                _square_chunk,
                _PAYLOAD,
                _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size,
                combine=_flat,
                skip=report,
                faults=spec,
            )
        # The report is filled before the run raises.
        assert report.num_failed == 4 and report.num_chunks == 4
        assert report.shard_ranges() == [(0, 5), (5, 10), (10, 15), (15, 20)]

    def test_one_report_collects_across_runs(self):
        spec = FaultSpec(rules=(FaultRule(kind="raise", starts=(5,), attempts=None),))
        report = FailureReport()
        for _ in range(2):
            run_sharded(
                _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size, skip=report, faults=spec,
            )
        assert report.num_chunks == 8 and report.num_completed == 6
        assert report.shard_ranges() == [(5, 10), (5, 10)]

    def test_invalid_options_rejected(self):
        with pytest.raises(ExecutionError):
            run_sharded(
                _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size, skip="ignore",
            )
        with pytest.raises(ExecutionError):
            run_sharded(
                _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size, timeout=-1.0, jobs=2,
            )
        with pytest.raises(ExecutionError):
            # Inline chunks cannot be cancelled, so a timeout needs jobs > 1.
            run_sharded(
                _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size, timeout=5.0,
            )


class TestPoolRecovery:
    def test_worker_crash_recovered(self):
        spec = FaultSpec(rules=(FaultRule(kind="crash", starts=(10,), attempts=(1,)),))
        result = run_sharded(
            _square_chunk,
            _PAYLOAD,
            _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size,
            jobs=2,
            combine=_flat,
            retries=2,
            faults=spec,
        )
        assert result == _EXPECTED

    def test_hang_recovered_via_timeout(self):
        spec = FaultSpec(
            rules=(
                FaultRule(kind="hang", starts=(0,), attempts=(1,), seconds=30.0),
            )
        )
        result = run_sharded(
            _square_chunk,
            _PAYLOAD,
            _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size,
            jobs=2,
            combine=_flat,
            retries=1,
            timeout=0.3,
            faults=spec,
        )
        assert result == _EXPECTED

    def test_corrupt_result_detected_and_retried(self):
        spec = FaultSpec(
            rules=(FaultRule(kind="corrupt", starts=(15,), attempts=(1,)),)
        )
        result = run_sharded(
            _square_chunk,
            _PAYLOAD,
            _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size,
            jobs=2,
            combine=_flat,
            retries=1,
            faults=spec,
        )
        assert result == _EXPECTED

    def test_crash_exhaustion_names_the_shard(self):
        spec = FaultSpec(rules=(FaultRule(kind="crash", starts=(0,), attempts=None),))
        with pytest.raises(ChunkFailedError) as excinfo:
            run_sharded(
                _square_chunk,
                _PAYLOAD,
                _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size,
                jobs=2,
                combine=_flat,
                retries=1,
                faults=spec,
            )
        assert excinfo.value.kind == "crash"
        assert (excinfo.value.start, excinfo.value.stop) == (0, 5)

    def test_timeout_exhaustion_skip_mode(self):
        spec = FaultSpec(
            rules=(FaultRule(kind="hang", starts=(5,), attempts=None, seconds=30.0),)
        )
        report = FailureReport()
        result = run_sharded(
            _square_chunk,
            _PAYLOAD,
            _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size,
            jobs=2,
            combine=_flat,
            timeout=0.3,
            skip=report,
            faults=spec,
        )
        assert result == [v * v for v in _PAYLOAD[:5] + _PAYLOAD[10:]]
        assert report.failures[0].kind == "timeout"
        assert report.shard_ranges() == [(5, 10)]


class TestEnvelope:
    def test_round_trip(self):
        import hashlib
        import pickle

        value = {"rows": list(range(10))}
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        assert _open_envelope((digest, blob), start=0, stop=5) == value

    def test_corruption_detected(self):
        import hashlib
        import pickle

        blob = pickle.dumps([1, 2, 3], protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        with pytest.raises(CorruptChunkError):
            _open_envelope((digest, corrupt_bytes(blob)), start=0, stop=5)

    def test_malformed_envelope_detected(self):
        with pytest.raises(CorruptChunkError):
            _open_envelope("not an envelope", start=0, stop=5)


class TestPoolShutdown:
    def test_keyboard_interrupt_cancels_queued_chunks(self, monkeypatch):
        """Ctrl-C must shut the pool down with cancel_futures=True."""
        from repro.exec import runner

        pools = []

        class RecordingPool:
            def __init__(self, max_workers=None, initializer=None, initargs=()):
                self.shutdown_calls = []
                self._processes = {}
                pools.append(self)

            def submit(self, fn, *args):
                return concurrent.futures.Future()

            def shutdown(self, wait=True, cancel_futures=False):
                self.shutdown_calls.append(
                    {"wait": wait, "cancel_futures": cancel_futures}
                )

        def interrupted_wait(futures, timeout=None, return_when=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "_pool_executor", RecordingPool)
        monkeypatch.setattr(runner, "_wait", interrupted_wait)
        with pytest.raises(KeyboardInterrupt):
            run_sharded(
                _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size, jobs=2, combine=_flat,
            )
        assert len(pools) == 1
        assert pools[0].shutdown_calls == [
            {"wait": False, "cancel_futures": True}
        ]

    def test_driver_error_cancels_queued_chunks(self, monkeypatch):
        """Any driver-side crash tears the pool down the same way."""
        from repro.exec import runner

        pools = []

        class RecordingPool:
            def __init__(self, max_workers=None, initializer=None, initargs=()):
                self.shutdown_calls = []
                self._processes = {}
                pools.append(self)

            def submit(self, fn, *args):
                return concurrent.futures.Future()

            def shutdown(self, wait=True, cancel_futures=False):
                self.shutdown_calls.append(
                    {"wait": wait, "cancel_futures": cancel_futures}
                )

        def broken_wait(futures, timeout=None, return_when=None):
            raise RuntimeError("driver bug")

        monkeypatch.setattr(runner, "_pool_executor", RecordingPool)
        monkeypatch.setattr(runner, "_wait", broken_wait)
        with pytest.raises(RuntimeError):
            run_sharded(
                _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size, jobs=2, combine=_flat,
            )
        assert pools[0].shutdown_calls == [
            {"wait": False, "cancel_futures": True}
        ]


class TestCheckpointStore:
    def test_put_get_round_trip(self, tmp_path):
        store = CheckpointStore(
            tmp_path, spec_parts=("sweep", "demo"), consume=True
        )
        assert store.get(0, 5) == (False, None)
        assert store.put(0, 5, [1, 2, 3])
        assert store.get(0, 5) == (True, [1, 2, 3])

    def test_consume_flag_gates_reads(self, tmp_path):
        writer = CheckpointStore(
            tmp_path, spec_parts=("sweep", "demo"), consume=False
        )
        writer.put(0, 5, "chunk")
        # A fresh (non-resume) run must not read leftovers...
        assert writer.get(0, 5) == (False, None)
        # ...but a resume run sees them.
        reader = CheckpointStore(
            tmp_path, spec_parts=("sweep", "demo"), consume=True
        )
        assert reader.get(0, 5) == (True, "chunk")

    def test_spec_parts_partition_the_store(self, tmp_path):
        first = CheckpointStore(tmp_path, spec_parts=("a",), consume=True)
        second = CheckpointStore(tmp_path, spec_parts=("b",), consume=True)
        first.put(0, 5, "first")
        assert second.get(0, 5) == (False, None)
        assert first.spec_key != second.spec_key

    def test_falsy_chunks_are_hits(self, tmp_path):
        store = CheckpointStore(tmp_path, spec_parts=("x",), consume=True)
        store.put(0, 1, [])
        hit, chunk = store.get(0, 1)
        assert hit and chunk == []

    def test_discard(self, tmp_path):
        store = CheckpointStore(tmp_path, spec_parts=("x",), consume=True)
        store.put(0, 5, "a")
        store.put(5, 10, "b")
        assert store.discard([(0, 5), (5, 10), (10, 15)]) == 2
        assert store.get(0, 5) == (False, None)


class TestCacheFormatVersion:
    def test_version_is_part_of_every_key(self, monkeypatch):
        from repro.exec import cache as cache_module

        before = cache_key("sweep", "demo")
        monkeypatch.setattr(
            cache_module,
            "CACHE_FORMAT_VERSION",
            cache_module.CACHE_FORMAT_VERSION + 1,
        )
        after = cache_key("sweep", "demo")
        assert before != after

    def test_keys_remain_stable_within_a_version(self):
        assert cache_key("a", "b") == cache_key("a", "b")
        assert cache_key("a", "bc") != cache_key("ab", "c")


class TestReportShapes:
    def test_chunk_failure_fields(self):
        failure = ChunkFailure(
            index=2, start=10, stop=15, attempts=3, kind="crash", error="boom"
        )
        assert failure.size == 5
        assert failure.to_dict()["kind"] == "crash"

    def test_report_accounting(self):
        failures = (
            ChunkFailure(
                index=0, start=0, stop=5, attempts=2, kind="error", error="x"
            ),
            ChunkFailure(
                index=3, start=15, stop=20, attempts=2, kind="timeout", error="y"
            ),
        )
        report = FailureReport(failures=failures, num_chunks=4)
        assert report.num_failed == 2 and report.num_completed == 2
        assert report.skipped_scenarios() == 10
        assert "2 of 4 chunks failed" in report.summary()
        assert report.to_dict()["num_chunks"] == 4
