"""Benchmark: 200-scenario x 256-draw fleet sweep, draw matrix vs loop.

The uncertainty engine's reason to exist: the same distribution-tagged
grid through ``sweep_fleet_uncertain`` (one seeded draw matrix, one
51200-scenario ``simulate_fleet_batch`` call) and through the
per-draw scalar reference (one ``monte_carlo`` over ``simulate_fleet``
per scenario — 51200 scalar simulations). The acceptance gate is
>=10x between the two recorded means; the batched side is additionally
handicapped by sampling all eight fleet metrics where the scalar loop
extracts one.

The scalar loop is measured with a single pedantic round: at ~10s+
per pass, statistical rounds would dominate the suite's runtime
without changing the verdict.

``test_bench_uncertain_quantile_table_200x256`` times the summary
step on the same 200 x 256 result: ``quantile_table()`` (one numpy
reduction per metric over the draw axis) against the per-scenario
``UncertaintyResult`` loop it replaced, with a same-process >=10x gate
and an exact-equality check.
"""

import time

import numpy as np

from repro.analysis.uncertainty import (
    Normal,
    Triangular,
    UncertaintyResult,
    is_distribution,
    monte_carlo,
)
from repro.datacenter.fleet import simulate_fleet
from repro.scenarios import ScenarioGrid, apply_overrides, facebook_like_fleet
from repro.tabular import Table
from repro.uncertainty import DEFAULT_QUANTILES, quantile_column, sweep_fleet_uncertain

_DRAWS = 256
_SEED = 11

_GRID = ScenarioGrid(
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


def _scalar_reference(records):
    """The per-draw loop: one monte_carlo per scenario over simulate_fleet."""
    base = facebook_like_fleet()
    results = []
    for record in records:
        fixed = {
            name: value
            for name, value in record.items()
            if not is_distribution(value)
        }
        spec = {
            name: value
            for name, value in record.items()
            if is_distribution(value)
        }

        def model(point, fixed=fixed):
            final = simulate_fleet(apply_overrides(base, {**fixed, **point}))[-1]
            return final.capex_fraction_market

        results.append(monte_carlo(model, spec, samples=_DRAWS, seed=_SEED))
    return results


def test_bench_uncertain_sweep_batch_200x256(benchmark):
    assert len(_GRID) == 200
    base = facebook_like_fleet()
    result = benchmark(
        lambda: sweep_fleet_uncertain(base, _GRID, draws=_DRAWS, seed=_SEED)
    )
    assert result.num_scenarios == 200
    assert result.samples_for("capex_fraction_market").shape == (200, _DRAWS)
    # Spot-check the draw matrix against the scalar reference.
    record = _GRID.scenarios()[137]
    reference = _scalar_reference([record])[0]
    assert list(result.samples_for("capex_fraction_market")[137]) == list(
        reference.samples
    )


def test_bench_uncertain_sweep_scalar_200x256(benchmark):
    records = _GRID.scenarios()
    results = benchmark.pedantic(
        lambda: _scalar_reference(records), rounds=1, iterations=1
    )
    assert len(results) == 200
    assert results[0].samples.shape == (_DRAWS,)


def _per_row_quantile_table(result, quantiles=DEFAULT_QUANTILES):
    """The per-scenario reference: one ``UncertaintyResult`` per row."""
    columns = {name: result.axes.column(name) for name in result.axes.column_names}
    for metric, matrix in result.samples.items():
        rows = [UncertaintyResult(row) for row in matrix]
        columns[f"{metric}_mean"] = np.array([row.mean for row in rows])
        for q in quantiles:
            columns[f"{metric}_{quantile_column(q)}"] = np.array(
                [row.percentile(q) for row in rows]
            )
    return Table(columns)


def _best_of(runs, call):
    best = float("inf")
    for _ in range(runs):
        began = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - began)
    return best


def test_bench_uncertain_quantile_table_200x256(benchmark):
    """quantile_table() must equal the per-row loop and beat it >=10x."""
    result = sweep_fleet_uncertain(
        facebook_like_fleet(), _GRID, draws=_DRAWS, seed=_SEED
    )
    table = benchmark(result.quantile_table)
    reference = _per_row_quantile_table(result)
    assert table.column_names == reference.column_names
    for name in result.axes.column_names:
        assert table.column(name) == reference.column(name)
    for name in table.column_names[len(result.axes.column_names):]:
        assert np.array_equal(table.array(name), reference.array(name), equal_nan=True)

    vectorized = _best_of(5, result.quantile_table)
    per_row = _best_of(3, lambda: _per_row_quantile_table(result))
    speedup = per_row / vectorized
    assert speedup >= 10.0, (
        f"quantile_table only {speedup:.1f}x faster than the per-row loop "
        f"({vectorized * 1e3:.1f}ms vs {per_row * 1e3:.1f}ms)"
    )
