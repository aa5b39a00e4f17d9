"""Benchmark: regenerate Figure 6 (device LCA splits and absolutes)."""

from repro.experiments.fig06_device_lca import run


def test_bench_fig06(benchmark):
    result = benchmark(run)
    assert result.all_checks_pass
    per_power = result.table("per_power_class")
    battery = per_power.where("power_class", "==", "battery_powered").row(0)
    assert 0.70 <= battery["manufacturing_mean"] <= 0.80
