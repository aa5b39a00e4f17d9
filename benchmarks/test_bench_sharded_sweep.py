"""Benchmark: sharded sweep executor — chunked memory, multi-core scaling.

Measures the :mod:`repro.exec` layer on the two sweeps the issue
gates: the 1000-scenario deterministic fleet sweep and the
200-scenario × 256-draw uncertain fleet sweep, each at ``jobs=1``
(chunked inline: the overhead side — chunking must stay within noise
of monolithic) and at ``jobs=4`` / ``jobs=cpu_count`` (one pedantic
round each: pool startup is part of the honest cost).

The wall-clock speedup *gate* (>=2x at 4 jobs for the 1k fleet sweep)
lives in ``test_gate_sharded_fleet_speedup_at_4_jobs`` and is skipped
on machines with fewer than 4 cores — a process pool cannot beat the
inline path without cores to run on, and a gate that fails on every
laptop teaches people to ignore gates. The equivalence half of the
contract (sharded == monolithic bit for bit) is asserted here at
every configuration regardless of core count.
"""

from __future__ import annotations

import os
import time

import pytest

from _timing import best_of_alternating
from repro.analysis.uncertainty import Normal, Triangular
from repro.scenarios import ScenarioGrid, facebook_like_fleet, sweep_fleet
from repro.uncertainty import sweep_fleet_uncertain

_CORES = os.cpu_count() or 1

_GRID_1K = ScenarioGrid(
    **{
        "annual_growth": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75],
        "server.lifetime_years": [2.0, 3.0, 4.0, 5.0, 6.0],
        "facility.pue": [1.07, 1.1, 1.15, 1.25, 1.4],
        "utilization": [0.25, 0.45, 0.65, 0.85],
    }
)

_GRID_UNCERTAIN = ScenarioGrid(
    **{
        "annual_growth": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75],
        "server.lifetime_years": [2.0, 3.0, 4.0, 5.0, 6.0],
        "facility.pue": [
            Triangular(1.07, 1.10, 1.30),
            Triangular(1.10, 1.25, 1.50),
        ],
        "utilization": [Normal(0.45, 0.06), Normal(0.65, 0.06)],
    }
)
_DRAWS = 256
_SEED = 11


def test_bench_sharded_fleet_sweep_1k_chunked(benchmark):
    """Inline chunked run: memory bounded to 128-scenario kernels."""
    base = facebook_like_fleet()
    reference = sweep_fleet(base, _GRID_1K)
    table = benchmark(lambda: sweep_fleet(base, _GRID_1K, chunk_size=128))
    assert table.num_rows == 1000
    assert table == reference


def test_bench_sharded_fleet_sweep_1k_jobs4(benchmark):
    """Process-pool run at 4 jobs (single pedantic round, pool included)."""
    base = facebook_like_fleet()
    reference = sweep_fleet(base, _GRID_1K)
    table = benchmark.pedantic(
        lambda: sweep_fleet(base, _GRID_1K, jobs=4), rounds=1, iterations=1
    )
    assert table == reference


def test_bench_sharded_uncertain_sweep_chunked(benchmark):
    """200 x 256 uncertain sweep, inline with 25-scenario chunks."""
    base = facebook_like_fleet()
    result = benchmark.pedantic(
        lambda: sweep_fleet_uncertain(
            base, _GRID_UNCERTAIN, draws=_DRAWS, seed=_SEED, chunk_size=25
        ),
        rounds=1,
        iterations=1,
    )
    assert result.num_scenarios == 200
    assert result.draws == _DRAWS


def test_bench_sharded_uncertain_sweep_jobs_cpu(benchmark):
    """200 x 256 uncertain sweep across one job per core."""
    base = facebook_like_fleet()
    result = benchmark.pedantic(
        lambda: sweep_fleet_uncertain(
            base, _GRID_UNCERTAIN, draws=_DRAWS, seed=_SEED, jobs=max(_CORES, 2)
        ),
        rounds=1,
        iterations=1,
    )
    assert result.num_scenarios == 200


def test_bench_sharded_fleet_sweep_1k_retry_armed(benchmark):
    """Clean-path run with a retry budget armed: overhead must be noise."""
    base = facebook_like_fleet()
    reference = sweep_fleet(base, _GRID_1K)
    table = benchmark(
        lambda: sweep_fleet(base, _GRID_1K, chunk_size=128, retries=2)
    )
    assert table == reference


def _best_of(call, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.skipif(
    _CORES < 4,
    reason=f"speedup gate needs >= 4 cores, machine has {_CORES}",
)
def test_gate_sharded_fleet_speedup_at_4_jobs():
    """The acceptance gate: >=2x wall-clock at 4 jobs vs inline."""
    base = facebook_like_fleet()
    # Warm imports/kernels before timing either side.
    sweep_fleet(base, _GRID_1K)
    inline = _best_of(lambda: sweep_fleet(base, _GRID_1K), rounds=3)
    sharded = _best_of(lambda: sweep_fleet(base, _GRID_1K, jobs=4), rounds=3)
    assert inline / sharded >= 2.0, (
        f"sharded 1k fleet sweep at 4 jobs: {inline / sharded:.2f}x "
        f"(inline {inline:.3f}s, jobs=4 {sharded:.3f}s); gate is 2x"
    )


def test_gate_retry_overhead_on_clean_path():
    """Arming retries must not slow a fault-free sweep.

    The target is <5% overhead; the hard assert is a generous 1.25x so
    machine noise cannot flake the suite — the measured ratio lands in
    the benchmark JSON via ``test_bench_sharded_fleet_sweep_1k_retry_armed``
    where the trajectory is tracked per PR. Min-of-3 on each side, the
    plain and armed rounds alternating.
    """
    base = facebook_like_fleet()
    # Warm imports/kernels before timing either side.
    sweep_fleet(base, _GRID_1K, chunk_size=128)
    plain, armed = best_of_alternating(
        lambda: sweep_fleet(base, _GRID_1K, chunk_size=128),
        lambda: sweep_fleet(base, _GRID_1K, chunk_size=128, retries=2),
        rounds=3,
    )
    ratio = armed / plain
    assert ratio <= 1.25, (
        f"retry-armed clean path: {ratio:.3f}x the plain run "
        f"(plain {plain:.3f}s, armed {armed:.3f}s); gate is 1.25x"
    )
