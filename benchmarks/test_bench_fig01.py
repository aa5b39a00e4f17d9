"""Benchmark: regenerate Figure 1 (ICT energy projections).

Prints/validates the paper's series: ICT at ~5% of global demand in
2015, 7% (optimistic) and 20% (expected) by 2030.
"""

from repro.experiments.fig01_ict_projections import run


def test_bench_fig01(benchmark):
    result = benchmark(run)
    assert result.all_checks_pass
    expected_2030 = result.table("expected").where("year", "==", 2030).row(0)
    assert expected_2030["ict_share"] > 0.18
    optimistic_2030 = result.table("optimistic").where("year", "==", 2030).row(0)
    assert 0.06 < optimistic_2030["ict_share"] < 0.08
