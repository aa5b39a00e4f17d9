"""Benchmark: regenerate Figure 10 (break-even images and days)."""

from repro.experiments.fig10_breakeven import run


def test_bench_fig10(benchmark):
    result = benchmark(run)
    assert result.all_checks_pass
    table = result.table("break_even")
    mnv3_cpu = table.where("model", "==", "mobilenet_v3").where(
        "processor", "==", "cpu"
    ).row(0)
    assert abs(mnv3_cpu["break_even_images"] - 5e9) / 5e9 < 0.02
    assert abs(mnv3_cpu["break_even_days"] - 350.0) < 7.0
    mnv3_dsp = table.where("model", "==", "mobilenet_v3").where(
        "processor", "==", "dsp"
    ).row(0)
    assert not mnv3_dsp["within_lifetime"]
