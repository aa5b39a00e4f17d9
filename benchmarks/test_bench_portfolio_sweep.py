"""Benchmark: 100k-device x 64-scenario portfolio sweep, batch vs scalar.

The portfolio layer's reason to exist: the same fleet decision space
through ``sweep_portfolio`` (struct-of-arrays kernels over every
device x scenario cell at once) and through the per-device
``simulate_device`` scalar loop. The batched side runs the full
100,000-device catalog (6.4M device-scenario rows); the scalar side is
a documented 100-device subsample — at ~75us per scalar row, the full
loop would take over eight minutes per round without changing the
verdict. Both sides are measured with a single pedantic round.

The acceptance gate is >=10x *per-row* throughput between the two
sides; ``test_bench_portfolio_throughput_gate`` enforces it directly
(the recorded means cover different row counts, so the snapshot
comparison alone cannot). ``test_bench_portfolio_chunked_rss_gate``
holds ``chunk_size`` to its promise as the memory bound: chunks reduce
to per-cell partials, so the sweep never holds the 6.4M-row detail.
``test_bench_portfolio_distinct_columns_gate`` holds the kernel to
pricing each stage on the distinct columns it reads: the cartesian grid
must cost well under a zipped set of as many cells with none shared.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

from _timing import best_of_alternating
from repro.portfolio import (
    default_catalog,
    simulate_device,
    sweep_portfolio,
)
from repro.scenarios import ScenarioGrid, ScenarioSet

_GRID = ScenarioGrid(
    **{
        "node_shift": [0.0, 1.0, 2.0, 3.0],
        "fab_intensity_g_per_kwh": [583.0, 400.0, 250.0, 100.0],
        "lifetime_scale": [1.0, 1.1, 1.25, 1.5],
    }
)

#: 64 cells in which no stage shares a column: every record has its own
#: fab intensity and lifetime scale (``node_shift`` cycles as in _GRID).
_ZIPPED = ScenarioSet.zipped(
    node_shift=[float(index % 4) for index in range(64)],
    fab_intensity_g_per_kwh=[100.0 + 7.5 * index for index in range(64)],
    lifetime_scale=[1.0 + index / 128.0 for index in range(64)],
)

_COPIES = 12_500  # x 8 archetypes = 100k devices
_CACHE: dict = {}


def _fleet(copies: int) -> tuple:
    """``copies`` spins of the default catalog with per-spin variation.

    Die areas wobble so the yield/wafer math cannot be memoized away,
    and unit counts are scaled so fleet totals stay comparable to the
    8-archetype sweep.
    """
    if copies not in _CACHE:
        base = default_catalog()
        _CACHE[copies] = tuple(
            dataclasses.replace(
                spec,
                name=f"{spec.name}_{spin}",
                die_area_mm2=spec.die_area_mm2 * (1.0 + 0.1 * (spin % 7) / 7.0),
                units=spec.units / copies,
            )
            for spin in range(copies)
            for spec in base
        )
    return _CACHE[copies]


def _scalar_loop(catalog, records) -> int:
    rows = 0
    for record in records:
        for spec in catalog:
            simulate_device(dataclasses.replace(spec, **record))
            rows += 1
    return rows


def test_bench_portfolio_sweep_batch_100k_x64(benchmark):
    catalog = _fleet(_COPIES)
    assert len(catalog) == 100_000
    assert len(_GRID) == 64
    table = benchmark.pedantic(
        lambda: sweep_portfolio(catalog, _GRID), rounds=1, iterations=1
    )
    assert table.num_rows == 64
    assert table.column("devices") == [100_000] * 64
    assert all(value > 0.0 for value in table.column("embodied_t"))


def test_bench_portfolio_sweep_scalar_100_x64(benchmark):
    catalog = _fleet(_COPIES)[:100]
    records = list(_GRID)
    rows = benchmark.pedantic(
        lambda: _scalar_loop(catalog, records), rounds=1, iterations=1
    )
    assert rows == 6400


def test_bench_portfolio_throughput_gate():
    """Batched per-row throughput must beat the scalar loop >=10x."""
    catalog = _fleet(2_500)  # 20k devices keeps the gate check snappy
    began = time.perf_counter()
    table = sweep_portfolio(catalog, _GRID)
    batch_per_row = (time.perf_counter() - began) / (
        len(catalog) * len(_GRID)
    )
    assert table.num_rows == 64

    subsample = catalog[:100]
    records = list(_GRID)[:8]
    began = time.perf_counter()
    rows = _scalar_loop(subsample, records)
    scalar_per_row = (time.perf_counter() - began) / rows

    speedup = scalar_per_row / batch_per_row
    assert speedup >= 10.0, (
        f"batched sweep only {speedup:.1f}x faster per row "
        f"({batch_per_row * 1e6:.2f}us vs {scalar_per_row * 1e6:.2f}us)"
    )


def test_bench_portfolio_distinct_columns_gate():
    """The 4x4x4 grid costs <= 0.7x a zipped set with no shared columns.

    Both sweep 20k devices over 64 cells. The grid's fab and yield stage
    reads 16 distinct columns and its lifetime stage 4; the zipped set
    gives every stage 64. A kernel that prices all 64 cells per stage
    runs both at about the same cost.
    """
    catalog = _fleet(2_500)
    assert len(_GRID) == len(_ZIPPED) == 64
    sweep_portfolio(catalog, _GRID)  # warm imports and allocator
    grid_s, zipped_s = best_of_alternating(
        lambda: sweep_portfolio(catalog, _GRID),
        lambda: sweep_portfolio(catalog, _ZIPPED),
        rounds=3,
    )
    assert grid_s <= 0.7 * zipped_s, (
        f"4x4x4 grid sweep {grid_s:.3f}s vs zipped {zipped_s:.3f}s "
        f"({grid_s / zipped_s:.2f}x); gate is 0.7x"
    )


_RSS_SCRIPT = """
import dataclasses, resource
from repro.portfolio import default_catalog, sweep_portfolio
from repro.scenarios import ScenarioGrid

grid = ScenarioGrid(**{
    "node_shift": [0.0, 1.0, 2.0, 3.0],
    "fab_intensity_g_per_kwh": [583.0, 400.0, 250.0, 100.0],
    "lifetime_scale": [1.0, 1.1, 1.25, 1.5],
})
catalog = tuple(
    dataclasses.replace(
        spec,
        name=f"{spec.name}_{spin}",
        die_area_mm2=spec.die_area_mm2 * (1.0 + 0.1 * (spin % 7) / 7.0),
        units=spec.units / 12_500,
    )
    for spin in range(12_500)
    for spec in default_catalog()
)
table = sweep_portfolio(catalog, grid, chunk_size=5000)
assert table.num_rows == 64 and table.column("devices") == [100_000] * 64
try:
    with open("/proc/self/status") as status:
        peak = next(line for line in status if line.startswith("VmHWM:"))
    print(peak.split()[1])
except (OSError, StopIteration):
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_bench_portfolio_chunked_rss_gate():
    """100k devices x 64 cells at ``chunk_size=5000`` stays under 250 MB.

    Runs in a fresh interpreter so the peak belongs to this sweep
    alone. The child reports its address space's high-water mark
    (``VmHWM``, KiB) where Linux exposes it: ``ru_maxrss`` survives
    ``exec`` and would carry the forking test process's own peak.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    )}
    done = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    peak_mb = int(done.stdout.split()[-1]) / 1024
    assert peak_mb < 250.0, f"sweep peak RSS {peak_mb:.0f} MB at chunk_size=5000"
