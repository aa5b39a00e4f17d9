"""Regression tests for subtle paths found during development."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.grids import US_GRID
from repro.datacenter.facility import Facility
from repro.datacenter.fleet import FleetParameters, simulate_fleet
from repro.datacenter.scheduler import BatchJob, schedule_carbon_aware
from repro.datacenter.server import WEB_SERVER
from repro.core.intensity import market_based_intensity
from repro.units import Carbon, CarbonIntensity


class TestSecondRefreshWave:
    def test_cohorts_refresh_twice_over_long_horizons(self):
        """With a 4-year server life, a 10-year run must repurchase the
        initial cohort around years 4 and 8."""
        params = FleetParameters(
            server=WEB_SERVER,
            facility=Facility(
                "dc", pue=1.1, construction_carbon=Carbon.zero()
            ),
            location_intensity=US_GRID.intensity,
            initial_servers=10_000,
            annual_growth=0.0,
            years=10,
        )
        reports = simulate_fleet(params)
        added = [report.servers_added for report in reports]
        refresh_years = [
            index for index, count in enumerate(added) if index > 0 and count > 0
        ]
        assert 4 in refresh_years
        assert 8 in refresh_years
        # Fleet size never changes with zero growth.
        assert all(report.servers == 10_000 for report in reports)


class TestSchedulerHorizonEdges:
    def test_job_ending_exactly_at_horizon(self):
        grid = np.full(24, 100.0)
        job = BatchJob("edge", duration_hours=4, power_kw=50.0, arrival_hour=20)
        result = schedule_carbon_aware([job], grid, capacity_kw=100.0)
        assert result.placement_for("edge").start_hour == 20

    def test_deadline_beyond_horizon_is_clamped(self):
        grid = np.full(24, 100.0)
        job = BatchJob(
            "late", duration_hours=2, power_kw=50.0, arrival_hour=0,
            deadline_hour=100,
        )
        result = schedule_carbon_aware([job], grid, capacity_kw=100.0)
        placement = result.placement_for("late")
        assert placement.start_hour + 2 <= 24


class TestMarketBasedEdgeCases:
    def test_contract_dirtier_than_location_raises_intensity(self):
        """A biomass PPA on an Icelandic grid is worse than doing
        nothing — the formula must not hide that."""
        location = CarbonIntensity.g_per_kwh(28.0)
        biomass = CarbonIntensity.g_per_kwh(230.0)
        blended = market_based_intensity(location, 0.5, renewable=biomass)
        assert blended.grams_per_kwh > location.grams_per_kwh

    def test_zero_location_grid(self):
        blended = market_based_intensity(
            CarbonIntensity.g_per_kwh(0.0), 0.5,
            renewable=CarbonIntensity.g_per_kwh(10.0),
        )
        assert blended.grams_per_kwh == pytest.approx(5.0)


class TestChartDegenerateInputs:
    def test_line_chart_single_point_series(self):
        from repro.report.charts import line_chart

        chart = line_chart([5.0], {"s": [3.0]})
        assert "A" in chart

    def test_bar_chart_all_zero_values(self):
        from repro.report.charts import bar_chart

        chart = bar_chart(["a", "b"], [0.0, 0.0])
        assert chart.count("|") == 4
