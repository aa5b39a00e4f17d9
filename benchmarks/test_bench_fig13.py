"""Benchmark: regenerate Figure 13 (Intel/AMD vs energy source)."""

from repro.experiments.fig13_renewable_shift import run


def test_bench_fig13(benchmark):
    result = benchmark(run)
    assert result.all_checks_pass
    intel_wind = result.table("intel").where("source", "==", "wind").row(0)
    assert intel_wind["non_use_share"] > 0.80
    amd_baseline = result.table("amd").where(
        "source", "==", "america_average"
    ).row(0)
    assert abs(amd_baseline["use_share"] - 0.45) < 0.01
