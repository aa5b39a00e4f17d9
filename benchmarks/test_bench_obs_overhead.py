"""Benchmark: observability overhead — tracing must be nearly free.

:mod:`repro.obs` promises two things about cost. With no recorder
installed every instrumentation site hits the shared ``NULL_RECORDER``
no-op, so an untraced run pays nothing measurable. With a
:class:`~repro.obs.TraceRecorder` writing JSONL, a traced sweep must
stay within 1.05x of the untraced run — the trace is spans and
per-chunk events, not per-scenario work, so its cost cannot scale with
the sweep.

Both sides are captured as pytest-benchmark entries (the ratio lands
in each PR's ``BENCH_<tag>.json``), and ``test_gate_tracing_overhead``
hard-asserts the 1.05x target plus a small absolute epsilon so machine
noise on a ~60ms body cannot flake the suite.
"""

from __future__ import annotations

from _timing import best_of_alternating
from repro.obs import TraceRecorder, install_recorder
from repro.scenarios import ScenarioGrid, facebook_like_fleet, sweep_fleet

_GRID_1K = ScenarioGrid(
    **{
        "annual_growth": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75],
        "server.lifetime_years": [2.0, 3.0, 4.0, 5.0, 6.0],
        "facility.pue": [1.07, 1.1, 1.15, 1.25, 1.4],
        "utilization": [0.25, 0.45, 0.65, 0.85],
    }
)
_CHUNK = 50  # 20 chunks -> 20+ attempt events per traced run


def _traced_sweep(base, path):
    recorder = TraceRecorder(path)
    try:
        with install_recorder(recorder):
            return sweep_fleet(base, _GRID_1K, chunk_size=_CHUNK)
    finally:
        recorder.close()


def test_bench_fleet_sweep_1k_untraced(benchmark):
    """Baseline: the 1k fleet sweep with no recorder installed."""
    base = facebook_like_fleet()
    table = benchmark(lambda: sweep_fleet(base, _GRID_1K, chunk_size=_CHUNK))
    assert table.num_rows == 1000


def test_bench_fleet_sweep_1k_traced(benchmark, tmp_path):
    """Same sweep under a TraceRecorder writing JSONL to disk."""
    base = facebook_like_fleet()
    table = benchmark(lambda: _traced_sweep(base, tmp_path / "bench.jsonl"))
    assert table.num_rows == 1000


def test_gate_tracing_overhead(tmp_path):
    """The acceptance gate: traced <= 1.05x untraced (plus 5ms noise).

    Min-of-5 timing on each side after a shared warmup, untraced and
    traced rounds alternating; the epsilon absorbs scheduler jitter
    that a ratio alone would amplify on a fast body. A real per-event
    cost regression (anything per-scenario slipping into the recorder
    path) blows well past both.
    """
    base = facebook_like_fleet()
    # Warm imports/kernels before timing either side.
    sweep_fleet(base, _GRID_1K, chunk_size=_CHUNK)
    untraced, traced = best_of_alternating(
        lambda: sweep_fleet(base, _GRID_1K, chunk_size=_CHUNK),
        lambda: _traced_sweep(base, tmp_path / "gate.jsonl"),
        rounds=5,
    )
    budget = untraced * 1.05 + 0.005
    assert traced <= budget, (
        f"traced sweep {traced:.4f}s vs untraced {untraced:.4f}s "
        f"({traced / untraced:.3f}x); gate is 1.05x + 5ms"
    )


def test_traced_sweep_is_bit_identical(tmp_path):
    """Tracing must never perturb results: traced == untraced, bitwise."""
    base = facebook_like_fleet()
    plain = sweep_fleet(base, _GRID_1K, chunk_size=_CHUNK)
    traced = _traced_sweep(base, tmp_path / "ident.jsonl")
    assert traced == plain
