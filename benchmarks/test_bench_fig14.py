"""Benchmark: regenerate Figure 14 (TSMC wafer renewable sweep)."""

from repro.experiments.fig14_tsmc_wafer import run


def test_bench_fig14(benchmark):
    result = benchmark(run)
    assert result.all_checks_pass
    sweep = result.table("sweep")
    assert sweep.num_rows == 7
    final = sweep.where("factor", "==", 64.0).row(0)
    assert abs(1.0 / final["total"] - 2.7) < 0.15
