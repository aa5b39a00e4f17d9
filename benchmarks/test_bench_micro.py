"""Micro-benchmarks for the library's hot primitives.

These gate the substrates a downstream analysis would hammer: table
group-bys over large corpora, Pareto extraction over many points, and
the full experiment registry end to end.
"""

import random

from repro.core.pareto import ParetoPoint, pareto_frontier
from repro.experiments.registry import run_all
from repro.tabular import Table


def _big_table(rows: int = 20_000) -> Table:
    rng = random.Random(7)
    return Table.from_records(
        [
            {
                "vendor": rng.choice(["apple", "google", "huawei", "microsoft"]),
                "year": rng.randint(2008, 2020),
                "kg": rng.uniform(10.0, 1500.0),
            }
            for _ in range(rows)
        ]
    )


def test_bench_table_aggregate(benchmark):
    table = _big_table()
    result = benchmark(
        lambda: table.aggregate(
            by=["vendor", "year"], total=("kg", sum), count=("kg", len)
        )
    )
    assert result.num_rows <= 4 * 13


def test_bench_table_sort_and_filter(benchmark):
    table = _big_table()

    def pipeline() -> Table:
        return table.where("year", ">=", 2015).sort_by("kg", reverse=True)

    result = benchmark(pipeline)
    assert result.num_rows == sum(year >= 2015 for year in table.column("year"))


def test_bench_pareto_large(benchmark):
    rng = random.Random(13)
    points = [
        ParetoPoint(
            label=f"p{i}",
            performance=rng.uniform(0.0, 100.0),
            cost=rng.uniform(1.0, 100.0),
        )
        for i in range(2_000)
    ]
    frontier = benchmark(lambda: pareto_frontier(points))
    assert frontier


def test_bench_full_evaluation(benchmark):
    """The entire paper evaluation (every registered experiment)."""
    results = benchmark(run_all)
    assert len(results) >= 22
    assert all(result.all_checks_pass for result in results.values())
