"""Trace correctness: the fault harness as an observability oracle.

Fault rules key on ``(shard start, attempt)``, so
:func:`repro.exec.predict_outcomes` can compute in advance the exact
sequence of chunk-attempt outcomes a run will record — and a traced,
fault-injected run must then emit exactly those ``attempt`` events.
These tests pin that agreement for the inline path and every pooled
fault kind, plus the other hard invariant of :mod:`repro.obs`:
tracing must never perturb results (traced == untraced, bitwise).
"""

from __future__ import annotations

import pytest

from repro.exec import (
    FaultRule,
    FaultSpec,
    ShardPlan,
    install_faults,
    predict_outcomes,
    run_sharded,
)
from repro.obs import TraceRecorder, install_recorder
from repro.scenarios import ScenarioGrid, facebook_like_fleet, run_sweep, sweep_fleet
from repro.uncertainty import sweep_fleet_uncertain


def _square_chunk(payload, start, stop):
    """Module-level chunk kernel: squares of ``payload[start:stop]``."""
    return [value * value for value in payload[start:stop]]


_PAYLOAD = list(range(20))
_PLAN = ShardPlan(num_scenarios=20, chunk_size=5)
_EXPECTED = [value * value for value in _PAYLOAD]
_STARTS = [shard.start for shard in _PLAN.shards()]


def _flat(chunks):
    """Concatenate list chunks."""
    return [value for chunk in chunks for value in chunk]


def _attempt_sequences(recorder):
    """``{stream: [outcome, ...]}`` from a recorder's attempt events."""
    sequences: dict[int, list[str]] = {}
    for line in recorder.events:
        if line.get("kind") == "attempt":
            sequences.setdefault(line["stream"], []).append(line["outcome"])
    return sequences


def _run_traced(spec, *, jobs=1, retries=2, timeout=None):
    recorder = TraceRecorder()
    with install_recorder(recorder), install_faults(spec):
        result = run_sharded(
            _square_chunk,
            _PAYLOAD,
            _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size,
            jobs=jobs,
            retries=retries,
            timeout=timeout,
            combine=_flat,
        )
    assert result == _EXPECTED
    return recorder


class TestOraclePredictions:
    def test_inline_raise_sequence_is_exact(self):
        spec = FaultSpec(
            rules=(
                FaultRule(kind="raise", starts=(0,), attempts=(1, 2)),
                FaultRule(kind="raise", starts=(10,), attempts=(1,)),
            )
        )
        recorder = _run_traced(spec, jobs=1, retries=3)
        predicted = predict_outcomes(
            spec, _STARTS, max_attempts=4, pooled=False
        )
        assert _attempt_sequences(recorder) == predicted
        assert predicted[0] == ["error", "error", "ok"]
        assert predicted[10] == ["error", "ok"]
        assert predicted[5] == ["ok"]

    def test_inline_crash_degrades_to_error(self):
        # Inline chunks cannot crash a worker process; the injected
        # crash degrades to a raise, and the oracle predicts "error".
        spec = FaultSpec(
            rules=(FaultRule(kind="crash", starts=(5,), attempts=(1,)),)
        )
        recorder = _run_traced(spec, jobs=1, retries=2)
        predicted = predict_outcomes(
            spec, _STARTS, max_attempts=3, pooled=False
        )
        assert _attempt_sequences(recorder) == predicted
        assert predicted[5] == ["error", "ok"]

    def test_inline_hang_is_ok_without_timeout(self):
        # An inline run cannot arm a timeout, so a hang rule (with a
        # tiny sleep) just delays the chunk; the oracle predicts "ok".
        spec = FaultSpec(
            rules=(
                FaultRule(
                    kind="hang", starts=(0,), attempts=(1,), seconds=0.01
                ),
            )
        )
        recorder = _run_traced(spec, jobs=1, retries=2)
        predicted = predict_outcomes(
            spec, _STARTS, max_attempts=3, pooled=False, timeout_armed=False
        )
        assert _attempt_sequences(recorder) == predicted
        assert predicted[0] == ["ok"]

    def test_pooled_raise_and_corrupt_sequences_are_exact(self):
        spec = FaultSpec(
            rules=(
                FaultRule(kind="raise", starts=(0,), attempts=(1, 2)),
                FaultRule(kind="corrupt", starts=(10,), attempts=(1,)),
            )
        )
        recorder = _run_traced(spec, jobs=2, retries=3)
        predicted = predict_outcomes(
            spec, _STARTS, max_attempts=4, pooled=True
        )
        assert _attempt_sequences(recorder) == predicted
        assert predicted[10] == ["corrupt", "ok"]

    def test_pooled_crash_predicts_the_crashed_chunk(self):
        # A pooled crash takes the shared pool down, so bystander
        # chunks may be co-charged; the oracle is exact only for the
        # crashed chunk's own sequence, and every chunk must still
        # recover to a final "ok".
        spec = FaultSpec(
            rules=(FaultRule(kind="crash", starts=(5,), attempts=(1,)),)
        )
        recorder = _run_traced(spec, jobs=2, retries=3)
        predicted = predict_outcomes(
            spec, _STARTS, max_attempts=4, pooled=True
        )
        assert predicted[5] == ["crash", "ok"]
        sequences = _attempt_sequences(recorder)
        assert sequences[5][0] == "crash"
        for start in _STARTS:
            assert sequences[start][-1] == "ok"
            for outcome in sequences[start][:-1]:
                assert outcome == "crash"

    def test_pooled_hang_times_out_as_predicted(self):
        spec = FaultSpec(
            rules=(
                FaultRule(kind="hang", starts=(0,), attempts=(1,), seconds=30.0),
            )
        )
        recorder = _run_traced(spec, jobs=2, retries=2, timeout=0.25)
        predicted = predict_outcomes(
            spec, _STARTS, max_attempts=3, pooled=True, timeout_armed=True
        )
        assert predicted[0] == ["timeout", "ok"]
        sequences = _attempt_sequences(recorder)
        assert sequences[0] == predicted[0]
        # A hang stalls only its own worker; the other chunks run clean.
        for start in _STARTS[1:]:
            assert sequences[start] == ["ok"]

    def test_clean_run_predicts_all_ok(self):
        recorder = _run_traced(None, jobs=1, retries=2)
        predicted = predict_outcomes(
            None, _STARTS, max_attempts=3, pooled=False
        )
        assert predicted == {start: ["ok"] for start in _STARTS}
        assert _attempt_sequences(recorder) == predicted

    def test_retry_events_accompany_failed_attempts(self):
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(0,), attempts=(1, 2)),)
        )
        recorder = _run_traced(spec, jobs=1, retries=3)
        retries = [
            line for line in recorder.events if line.get("kind") == "retry"
        ]
        assert [line["attempt"] for line in retries] == [1, 2]
        assert all(line["stream"] == 0 for line in retries)
        assert all(line["delay_s"] >= 0.0 for line in retries)

    def test_rejects_nonpositive_max_attempts(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            predict_outcomes(None, _STARTS, max_attempts=0)


_GRID = ScenarioGrid(
    **{
        "annual_growth": [0.0, 0.1, 0.2, 0.3],
        "server.lifetime_years": [3.0, 4.0, 6.0],
        "utilization": [0.45, 0.65],
    }
)


class TestTracingIsInvisibleToResults:
    """The tier-1 pin: tracing on == tracing off, bit for bit."""

    def test_point_sweep_bit_identical(self, tmp_path):
        base = facebook_like_fleet()
        plain = sweep_fleet(base, _GRID, chunk_size=5)
        recorder = TraceRecorder(tmp_path / "trace.jsonl")
        with install_recorder(recorder):
            traced = sweep_fleet(base, _GRID, chunk_size=5)
        recorder.close()
        assert traced == plain
        assert len(recorder.events) > 0  # the trace actually recorded

    def test_uncertain_sweep_bit_identical(self, tmp_path):
        base = facebook_like_fleet()
        plain = sweep_fleet_uncertain(
            base, _GRID, draws=32, seed=7, chunk_size=5
        )
        recorder = TraceRecorder(tmp_path / "trace.jsonl")
        with install_recorder(recorder):
            traced = sweep_fleet_uncertain(
                base, _GRID, draws=32, seed=7, chunk_size=5
            )
        recorder.close()
        assert traced.axes == plain.axes
        assert set(traced.samples) == set(plain.samples)
        for name in traced.samples:
            assert (traced.samples[name] == plain.samples[name]).all()

    def test_faulted_pooled_sweep_bit_identical(self):
        plain = run_sharded(
            _square_chunk, _PAYLOAD, _PLAN.num_scenarios,
            chunk_size=_PLAN.chunk_size, jobs=2, combine=_flat
        )
        spec = FaultSpec(
            rules=(
                FaultRule(kind="raise", starts=(0,), attempts=(1,)),
                FaultRule(kind="corrupt", starts=(10,), attempts=(1,)),
            )
        )
        recorder = TraceRecorder()
        with install_recorder(recorder), install_faults(spec):
            traced = run_sharded(
                _square_chunk,
                _PAYLOAD,
                _PLAN.num_scenarios,
                chunk_size=_PLAN.chunk_size,
                jobs=2,
                retries=2,
                combine=_flat,
            )
        assert traced == plain == _EXPECTED

    def test_registered_sweep_bit_identical_via_runner(self):
        plain = run_sweep("fleet_growth_lifetime")
        recorder = TraceRecorder()
        with install_recorder(recorder):
            traced = run_sweep("fleet_growth_lifetime")
        assert traced == plain
        spans = [
            line
            for line in recorder.events
            if line.get("type") == "span" and line["kind"] == "sweep"
        ]
        assert spans and spans[0]["name"] == "fleet_growth_lifetime"
        assert spans[0]["rows"] == plain.num_rows


class TestWorkerTelemetry:
    def test_pooled_run_ships_worker_events(self):
        recorder = _run_traced(None, jobs=2, retries=1)
        workers = [
            line
            for line in recorder.events
            if line.get("kind") == "chunk_worker"
        ]
        assert len(workers) == len(_STARTS)
        for line in workers:
            assert line["proc"] == "worker"
            assert line["dur_s"] >= 0.0
            assert line["rows"] == 5
        assert recorder.summary()["histograms"]["chunk.duration"]["count"] == len(
            _STARTS
        )

    def test_inline_run_times_chunks_without_worker_events(self):
        recorder = _run_traced(None, jobs=1, retries=1)
        kinds = [line["kind"] for line in recorder.events]
        assert "chunk_worker" not in kinds
        # Inline attempts carry their own duration instead.
        attempts = [
            line for line in recorder.events if line["kind"] == "attempt"
        ]
        assert all("dur_s" in line for line in attempts)
        assert recorder.summary()["histograms"]["chunk.duration"]["count"] == len(
            _STARTS
        )
