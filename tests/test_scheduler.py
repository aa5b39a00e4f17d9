"""Tests for the diurnal grid and carbon-aware scheduler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datacenter.grid_sim import DiurnalGridModel
from repro.datacenter.scheduler import (
    BatchJob,
    schedule_carbon_agnostic,
    schedule_carbon_aware,
)
from repro.errors import SimulationError


class TestDiurnalGrid:
    def test_midday_cleaner_than_evening(self):
        grid = DiurnalGridModel()
        assert (
            grid.intensity_at(13.0).grams_per_kwh
            < grid.intensity_at(20.0).grams_per_kwh
        )

    def test_cleanest_hour_is_around_solar_noon(self):
        window = DiurnalGridModel().trace(24).cleanest_window(1)
        assert 11 <= int(window.start_hour) <= 15

    def test_profile_is_24h_periodic(self):
        grid = DiurnalGridModel()
        assert grid.intensity_at(5.0).grams_per_kwh == pytest.approx(
            grid.intensity_at(29.0).grams_per_kwh
        )

    def test_series_positive_and_long_enough(self):
        series = DiurnalGridModel().hourly_series(72)
        assert series.shape == (72,)
        assert np.all(series >= 1.0)

    def test_noise_is_seeded(self):
        a = DiurnalGridModel(noise_g_per_kwh=20.0, seed=5).hourly_series(24)
        b = DiurnalGridModel(noise_g_per_kwh=20.0, seed=5).hourly_series(24)
        assert np.array_equal(a, b)

    def test_solar_depth_cannot_exceed_base(self):
        with pytest.raises(SimulationError):
            DiurnalGridModel(base_g_per_kwh=100.0, solar_depth_g_per_kwh=150.0)

    def test_series_needs_positive_length(self):
        with pytest.raises(SimulationError):
            DiurnalGridModel().hourly_series(0)


class TestBatchJobValidation:
    def test_infeasible_deadline_rejected(self):
        with pytest.raises(SimulationError):
            BatchJob("x", duration_hours=5, power_kw=10.0, arrival_hour=0,
                     deadline_hour=4)

    def test_energy(self):
        job = BatchJob("x", duration_hours=4, power_kw=100.0)
        assert job.energy.kilowatt_hours == pytest.approx(400.0)

    def test_positive_duration_and_power(self):
        with pytest.raises(SimulationError):
            BatchJob("x", duration_hours=0, power_kw=10.0)
        with pytest.raises(SimulationError):
            BatchJob("x", duration_hours=1, power_kw=0.0)


def _flat_grid(hours: int, value: float = 100.0) -> np.ndarray:
    return np.full(hours, value)


def _valley_grid(hours: int = 24) -> np.ndarray:
    # Dirty everywhere except hours 10-14.
    grid = np.full(hours, 500.0)
    grid[10:15] = 50.0
    return grid


class TestAgnosticScheduler:
    def test_starts_at_arrival_when_capacity_allows(self):
        jobs = [BatchJob("a", 2, 100.0, arrival_hour=3)]
        result = schedule_carbon_agnostic(jobs, _flat_grid(24), capacity_kw=200.0)
        assert result.placement_for("a").start_hour == 3

    def test_queues_when_capacity_exhausted(self):
        jobs = [
            BatchJob("a", 4, 150.0, arrival_hour=0),
            BatchJob("b", 4, 150.0, arrival_hour=0),
        ]
        result = schedule_carbon_agnostic(jobs, _flat_grid(24), capacity_kw=200.0)
        starts = sorted(p.start_hour for p in result.placements)
        assert starts == [0, 4]

    def test_carbon_matches_manual_integral(self):
        grid = _valley_grid()
        jobs = [BatchJob("a", 2, 100.0, arrival_hour=0)]
        result = schedule_carbon_agnostic(jobs, grid, capacity_kw=200.0)
        expected = (grid[0] + grid[1]) * 100.0
        assert result.total_carbon.grams == pytest.approx(expected)

    def test_over_capacity_job_rejected(self):
        jobs = [BatchJob("a", 1, 300.0)]
        with pytest.raises(SimulationError):
            schedule_carbon_agnostic(jobs, _flat_grid(24), capacity_kw=200.0)

    def test_job_beyond_horizon_rejected(self):
        jobs = [BatchJob("a", 30, 100.0)]
        with pytest.raises(SimulationError):
            schedule_carbon_agnostic(jobs, _flat_grid(24), capacity_kw=200.0)


class TestAwareScheduler:
    def test_moves_job_into_clean_valley(self):
        jobs = [BatchJob("a", 2, 100.0, arrival_hour=0)]
        result = schedule_carbon_aware(jobs, _valley_grid(), capacity_kw=200.0)
        assert 10 <= result.placement_for("a").start_hour <= 13

    def test_respects_deadline_even_if_dirty(self):
        jobs = [BatchJob("a", 2, 100.0, arrival_hour=0, deadline_hour=6)]
        result = schedule_carbon_aware(jobs, _valley_grid(), capacity_kw=200.0)
        placement = result.placement_for("a")
        assert placement.start_hour + 2 <= 6

    def test_respects_capacity_in_valley(self):
        jobs = [
            BatchJob("a", 5, 150.0, arrival_hour=0),
            BatchJob("b", 5, 150.0, arrival_hour=0),
        ]
        result = schedule_carbon_aware(jobs, _valley_grid(), capacity_kw=200.0)
        starts = {p.job.name: p.start_hour for p in result.placements}
        assert starts["a"] != starts["b"]

    def test_never_worse_than_agnostic_on_single_job(self):
        jobs = [BatchJob("a", 3, 120.0, arrival_hour=0)]
        grid = _valley_grid()
        aware = schedule_carbon_aware(jobs, grid, capacity_kw=200.0)
        agnostic = schedule_carbon_agnostic(jobs, grid, capacity_kw=200.0)
        assert aware.total_carbon.grams <= agnostic.total_carbon.grams

    def test_flat_grid_gives_no_advantage(self):
        jobs = [
            BatchJob("a", 3, 100.0, arrival_hour=0),
            BatchJob("b", 2, 80.0, arrival_hour=1),
        ]
        grid = _flat_grid(24)
        aware = schedule_carbon_aware(jobs, grid, capacity_kw=500.0)
        agnostic = schedule_carbon_agnostic(jobs, grid, capacity_kw=500.0)
        assert aware.total_carbon.grams == pytest.approx(
            agnostic.total_carbon.grams
        )

    def test_missing_placement_lookup_raises(self):
        jobs = [BatchJob("a", 1, 50.0)]
        result = schedule_carbon_aware(jobs, _flat_grid(24), capacity_kw=100.0)
        with pytest.raises(SimulationError):
            result.placement_for("zz")


class TestScheduleResult:
    def _result(self):
        jobs = [
            BatchJob("a", 3, 100.0, arrival_hour=0),
            BatchJob("b", 2, 150.0, arrival_hour=1),
        ]
        return schedule_carbon_agnostic(jobs, _flat_grid(24), capacity_kw=400.0)

    def test_total_carbon_matches_placement_sum(self):
        result = self._result()
        manual = sum(p.carbon.grams for p in result.placements)
        assert result.total_carbon.grams == pytest.approx(manual)

    def test_total_carbon_is_cached(self):
        result = self._result()
        assert result.total_carbon is result.total_carbon

    def test_load_profile_accumulates_overlaps(self):
        result = self._result()
        load = result.load_profile(24)
        assert load.shape == (24,)
        # a runs hours 0-2 at 100 kW; b runs hours 1-2 at 150 kW.
        assert load[0] == pytest.approx(100.0)
        assert load[1] == pytest.approx(250.0)
        assert load[2] == pytest.approx(250.0)
        assert load[3] == pytest.approx(0.0)
        # Energy conservation: the profile integrates to the jobs' energy.
        assert load.sum() == pytest.approx(
            sum(p.job.power_kw * p.job.duration_hours for p in result.placements)
        )

    def test_load_profile_rejects_short_horizon(self):
        result = self._result()
        with pytest.raises(SimulationError):
            result.load_profile(2)
        with pytest.raises(SimulationError):
            result.load_profile(0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.builds(
            BatchJob,
            name=st.uuids().map(str),
            duration_hours=st.integers(min_value=1, max_value=6),
            power_kw=st.floats(min_value=10.0, max_value=150.0),
            arrival_hour=st.integers(min_value=0, max_value=12),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_aware_beats_or_ties_agnostic_under_loose_capacity(jobs, seed):
    grid = DiurnalGridModel(noise_g_per_kwh=30.0, seed=seed).hourly_series(48)
    capacity = sum(job.power_kw for job in jobs) + 1.0
    aware = schedule_carbon_aware(jobs, grid, capacity)
    agnostic = schedule_carbon_agnostic(jobs, grid, capacity)
    # With capacity no constraint, greedy per-job optimum can only win.
    assert aware.total_carbon.grams <= agnostic.total_carbon.grams + 1e-6
    # Both deliver every job exactly once.
    assert len(aware.placements) == len(jobs)
    # Deadlines and arrivals respected.
    for placement in aware.placements:
        assert placement.start_hour >= placement.job.arrival_hour
