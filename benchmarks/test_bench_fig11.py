"""Benchmark: regenerate Figure 11 (Facebook/Google scope series)."""

from repro.experiments.fig11_scope_series import run


def test_bench_fig11(benchmark):
    result = benchmark(run)
    assert result.all_checks_pass
    fb_2019 = result.table("facebook").where("year", "==", 2019).row(0)
    assert abs(fb_2019["scope3_t"] / fb_2019["scope2_market_t"] - 23.0) < 0.5
    goog_2018 = result.table("google").where("year", "==", 2018).row(0)
    assert goog_2018["scope3_t"] == 14_000_000.0
