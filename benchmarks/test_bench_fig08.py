"""Benchmark: regenerate Figure 8 (performance/carbon Pareto)."""

from repro.experiments.fig08_pareto import run


def test_bench_fig08(benchmark):
    result = benchmark(run)
    assert result.all_checks_pass
    frontier_2019 = result.table("frontiers").where("frontier", "==", "2019")
    assert "iphone_11_pro" in frontier_2019.column("product")
    assert max(frontier_2019.column("throughput_ips")) == 75.0
