"""End-to-end tests over every experiment driver.

Each experiment must (a) produce non-empty tables, (b) pass every
paper-anchor check it declares, and (c) render to text without error.
These tests are the repository's statement that the paper's evaluation
reproduces.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENT_IDS,
    get_experiment,
    run_experiment,
)
from repro.experiments.result import Check, ExperimentResult
from repro.tabular import col


@pytest.fixture(scope="module")
def results() -> dict[str, ExperimentResult]:
    return {exp_id: run_experiment(exp_id) for exp_id in EXPERIMENT_IDS}


def test_registry_covers_every_paper_artifact():
    figures = {f"fig{n:02d}" for n in (1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)}
    tables = {f"tab{n:02d}" for n in (1, 2, 3, 4)}
    assert figures | tables <= set(EXPERIMENT_IDS)


def test_unknown_experiment_rejected():
    with pytest.raises(ExperimentError):
        get_experiment("fig99")


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_experiment_produces_tables(results, exp_id):
    result = results[exp_id]
    assert result.experiment_id == exp_id
    assert result.tables
    for table in result.tables.values():
        assert table.num_rows > 0


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_all_paper_checks_pass(results, exp_id):
    result = results[exp_id]
    failed = result.failed_checks()
    detail = ", ".join(
        f"{check.name} (expected {check.expected:.4g}, got {check.measured:.4g})"
        for check in failed
    )
    assert not failed, f"{exp_id}: {detail}"


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_render_is_nonempty_text(results, exp_id):
    text = results[exp_id].render()
    assert results[exp_id].title in text
    assert "paper vs measured" in text


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_checks_table_matches_checks(results, exp_id):
    result = results[exp_id]
    table = result.checks_table()
    assert table.num_rows == len(result.checks)
    assert all(table.column("ok"))


def test_result_check_lookup(results):
    result = results["fig10"]
    check = result.check("mobilenet_v3_cpu_days")
    assert check.ok
    with pytest.raises(ExperimentError):
        result.check("nonexistent")


def test_result_table_lookup(results):
    result = results["fig14"]
    assert result.table("sweep").num_rows == 7
    with pytest.raises(ExperimentError):
        result.table("nonexistent")


class TestCheckType:
    def test_deviation_relative(self):
        check = Check("x", expected=100.0, measured=105.0, rel_tolerance=0.10)
        assert check.deviation == pytest.approx(0.05)
        assert check.ok

    def test_zero_expected_uses_absolute(self):
        check = Check("x", expected=0.0, measured=0.0, rel_tolerance=0.0)
        assert check.ok

    def test_boolean_checks(self):
        assert Check.boolean("claim", True).ok
        assert not Check.boolean("claim", False).ok

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ExperimentError):
            Check("x", expected=1.0, measured=1.0, rel_tolerance=-0.1)


class TestHeadlineNumbers:
    """The paper's four contribution bullets, asserted directly."""

    def test_iphone_manufacturing_shift_49_to_86(self, results):
        pies = results["fig02"].table("opex_capex_pies")
        assert pies.row(0)["capex"] == pytest.approx(0.49, abs=0.01)
        assert pies.row(1)["capex"] == pytest.approx(0.86, abs=0.01)

    def test_pixel3_three_year_amortization(self, results):
        table = results["fig10"].table("break_even")
        mnv3_dsp = table.where(
            (col("model") == "mobilenet_v3") & (col("processor") == "dsp")
        ).row(0)
        assert mnv3_dsp["break_even_days"] > 3 * 365

    def test_facebook_23x_capex_ratio(self, results):
        check = results["fig11"].check("facebook_2019_scope3_to_scope2_ratio")
        assert check.measured == pytest.approx(23.0, rel=0.02)

    def test_renewables_leave_manufacturing_dominant(self, results):
        assert results["fig13"].check("intel_wind_manufacturing_over_80pct").ok
        assert results["fig14"].check("reduction_at_64x").ok
