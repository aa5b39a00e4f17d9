"""Tests for the traces subsystem: intensity series, profiles, workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.grids import region_names
from repro.datacenter.grid_sim import DiurnalGridModel
from repro.errors import SimulationError
from repro.traces import (
    CARBON_AGNOSTIC,
    CARBON_AWARE,
    IntensityTrace,
    WorkloadTrace,
    diurnal_workload,
    evaluate_policies,
    profile_catalog,
    regional_trace,
    renewable_ramp,
    slack_bounded,
    stochastic_variant,
    training_workload,
)


class TestIntensityTraceConstruction:
    def test_basic_construction(self):
        trace = IntensityTrace("t", [100.0, 200.0, 300.0])
        assert len(trace) == 3
        assert trace.hours == 3.0
        assert trace.mean_g_per_kwh == pytest.approx(200.0)
        assert trace.min_g_per_kwh == 100.0
        assert trace.max_g_per_kwh == 300.0

    def test_nan_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [100.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [100.0, float("inf")])

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [100.0, -1.0])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [])

    def test_2d_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [[1.0, 2.0], [3.0, 4.0]])

    def test_nameless_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("", [100.0])

    def test_non_positive_step_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [100.0], step_hours=0.0)

    def test_values_are_immutable(self):
        trace = IntensityTrace("t", [100.0, 200.0])
        with pytest.raises(ValueError):
            trace.values[0] = 5.0

    def test_construction_copies_the_input(self):
        source = np.array([100.0, 200.0])
        trace = IntensityTrace("t", source)
        source[0] = 1.0
        assert trace.values[0] == 100.0

    def test_from_records_sorts_and_infers_step(self):
        trace = IntensityTrace.from_records(
            "t",
            [
                {"hour": 2.0, "g_per_kwh": 300.0},
                {"hour": 0.0, "g_per_kwh": 100.0},
                {"hour": 1.0, "g_per_kwh": 200.0},
            ],
        )
        assert list(trace.values) == [100.0, 200.0, 300.0]
        assert trace.step_hours == 1.0

    def test_from_records_rejects_irregular_spacing(self):
        with pytest.raises(SimulationError):
            IntensityTrace.from_records(
                "t",
                [
                    {"hour": 0.0, "g_per_kwh": 1.0},
                    {"hour": 1.0, "g_per_kwh": 2.0},
                    {"hour": 3.0, "g_per_kwh": 3.0},
                ],
            )

    def test_from_records_rejects_duplicate_hours(self):
        with pytest.raises(SimulationError):
            IntensityTrace.from_records(
                "t",
                [
                    {"hour": 0.0, "g_per_kwh": 1.0},
                    {"hour": 0.0, "g_per_kwh": 2.0},
                ],
            )

    def test_from_records_rejects_missing_fields(self):
        with pytest.raises(SimulationError):
            IntensityTrace.from_records("t", [{"hour": 0.0}])


class TestIntensityTraceOperations:
    def test_refine_repeats_samples(self):
        trace = IntensityTrace("t", [100.0, 200.0])
        fine = trace.resample(0.5)
        assert list(fine.values) == [100.0, 100.0, 200.0, 200.0]
        assert fine.step_hours == 0.5
        assert fine.hours == trace.hours

    def test_coarsen_block_means(self):
        trace = IntensityTrace("t", [100.0, 200.0, 300.0, 500.0], step_hours=0.5)
        coarse = trace.resample(1.0)
        assert list(coarse.values) == [150.0, 400.0]

    def test_non_hourly_round_trip_is_exact(self):
        # Piecewise-constant semantics: refine then coarsen is lossless.
        trace = IntensityTrace("t", [137.0, 260.5, 399.25, 18.125])
        for step in (0.5, 0.25):
            round_tripped = trace.resample(step).resample(1.0)
            assert np.array_equal(round_tripped.values, trace.values)
            assert round_tripped.step_hours == trace.step_hours

    def test_coarsen_requires_divisibility(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [1.0, 2.0, 3.0]).resample(2.0)

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [1.0, 2.0]).resample(0.4)

    def test_slice_hours(self):
        trace = IntensityTrace("t", [10.0, 20.0, 30.0, 40.0])
        window = trace.slice_hours(1.0, 3.0)
        assert list(window.values) == [20.0, 30.0]

    def test_slice_beyond_trace_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [10.0, 20.0]).slice_hours(0.0, 3.0)

    def test_slice_must_align_to_step(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [10.0, 20.0]).slice_hours(0.5, 1.0)

    def test_rolling_mean_matches_manual(self):
        trace = IntensityTrace("t", [10.0, 20.0, 60.0, 100.0])
        means = trace.rolling_mean(2.0)
        assert means == pytest.approx([15.0, 40.0, 80.0])

    def test_cleanest_window_finds_valley(self):
        values = np.full(24, 500.0)
        values[10:14] = 50.0
        window = IntensityTrace("t", values).cleanest_window(4.0)
        assert window.start_hour == 10.0
        assert window.mean_g_per_kwh == pytest.approx(50.0)

    def test_cleanest_window_tie_breaks_earliest(self):
        window = IntensityTrace("t", [5.0, 5.0, 5.0, 5.0]).cleanest_window(2.0)
        assert window.start_hour == 0.0

    def test_window_longer_than_trace_rejected(self):
        with pytest.raises(SimulationError):
            IntensityTrace("t", [1.0, 2.0]).cleanest_window(3.0)

    def test_scale_validates_result(self):
        trace = IntensityTrace("t", [100.0, 200.0])
        assert list(trace.scale(0.5).values) == [50.0, 100.0]
        with pytest.raises(SimulationError):
            trace.scale(-1.0)

    def test_align_resamples_and_truncates(self):
        left = IntensityTrace("a", [100.0, 200.0, 300.0])
        right = IntensityTrace("b", [10.0] * 4, step_hours=0.5)
        aligned_left, aligned_right = left.align(right)
        assert aligned_left.step_hours == 0.5
        assert aligned_right.step_hours == 0.5
        assert aligned_left.hours == aligned_right.hours == 2.0
        assert list(aligned_left.values) == [100.0, 100.0, 200.0, 200.0]


class TestProfiles:
    def test_catalog_covers_every_region(self):
        catalog = profile_catalog(48)
        for name in region_names():
            assert name in catalog
            assert f"{name}_noisy_s0" in catalog
            assert f"{name}_ramp50" in catalog

    def test_catalog_traces_share_horizon(self):
        catalog = profile_catalog(48)
        assert {len(trace) for trace in catalog.values()} == {48}

    def test_regional_mean_tracks_table_iii_ordering(self):
        # Dirtier regions produce dirtier duck curves.
        india = regional_trace("india", 24)
        iceland = regional_trace("iceland", 24)
        assert india.mean_g_per_kwh > 10 * iceland.mean_g_per_kwh

    def test_stochastic_variant_is_seeded(self):
        a = stochastic_variant("world", 24, seed=7)
        b = stochastic_variant("world", 24, seed=7)
        assert np.array_equal(a.values, b.values)
        c = stochastic_variant("world", 24, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_renewable_ramp_tapers_but_stays_positive(self):
        base = regional_trace("united_states", 48)
        ramped = renewable_ramp(base, 0.5)
        assert ramped.values[0] == base.values[0]
        assert ramped.values[-1] == pytest.approx(0.5 * base.values[-1])
        assert np.all(ramped.values > 0.0)

    def test_ramp_fraction_validated(self):
        base = regional_trace("world", 24)
        with pytest.raises(SimulationError):
            renewable_ramp(base, 1.0)
        with pytest.raises(SimulationError):
            renewable_ramp(base, -0.1)

    def test_grid_model_trace_bridge(self):
        model = DiurnalGridModel()
        trace = model.trace(48)
        assert np.array_equal(trace.values, model.hourly_series(48))


class TestCleanestHourDelegation:
    def test_matches_legacy_scalar_scan(self):
        for model in (
            DiurnalGridModel(),
            DiurnalGridModel(base_g_per_kwh=600.0, evening_peak_g_per_kwh=10.0),
        ):
            legacy = int(
                np.argmin(
                    [model.intensity_at(float(h)).grams_per_kwh for h in range(24)]
                )
            )
            assert int(model.trace(24).cleanest_window(1).start_hour) == legacy


class TestWorkloadTrace:
    def test_generators_are_seeded(self):
        a = diurnal_workload(2, seed=5)
        b = diurnal_workload(2, seed=5)
        assert a.jobs == b.jobs
        assert training_workload(6, seed=9).jobs == training_workload(6, seed=9).jobs

    def test_span_covers_every_job(self):
        workload = diurnal_workload(2)
        for job in workload.jobs:
            assert job.arrival_hour + job.duration_hours <= workload.span_hours

    def test_from_records(self):
        workload = WorkloadTrace.from_records(
            "w",
            [
                {"name": "a", "duration_hours": 2, "power_kw": 100.0},
                {
                    "name": "b",
                    "duration_hours": 1,
                    "power_kw": 50.0,
                    "arrival_hour": 3,
                    "deadline_hour": 6,
                },
            ],
        )
        assert len(workload) == 2
        assert workload.jobs[1].deadline_hour == 6
        assert workload.total_energy_kwh == pytest.approx(250.0)
        assert workload.peak_power_kw == 100.0

    def test_from_records_missing_fields_rejected(self):
        with pytest.raises(SimulationError):
            WorkloadTrace.from_records("w", [{"name": "a"}])

    def test_duplicate_job_names_rejected(self):
        from repro.datacenter.scheduler import BatchJob

        job = BatchJob("a", 1, 10.0)
        with pytest.raises(SimulationError):
            WorkloadTrace("w", (job, job))

    def test_empty_workload_rejected(self):
        with pytest.raises(SimulationError):
            WorkloadTrace("w", ())


class TestEvaluatorEdges:
    def test_trace_shorter_than_job_horizon_raises(self):
        short = IntensityTrace("short", np.full(8, 300.0))
        workload = WorkloadTrace.from_records(
            "w", [{"name": "a", "duration_hours": 6, "power_kw": 100.0,
                   "arrival_hour": 4}]
        )
        with pytest.raises(SimulationError):
            evaluate_policies([short], [workload], capacity_kw=500.0)

    def test_policy_slack_must_be_non_negative(self):
        with pytest.raises(SimulationError):
            slack_bounded(-1)

    def test_policy_lowering_tightens_never_loosens(self):
        workload = WorkloadTrace.from_records(
            "w",
            [
                {"name": "tight", "duration_hours": 2, "power_kw": 10.0,
                 "deadline_hour": 3},
                {"name": "open", "duration_hours": 2, "power_kw": 10.0},
            ],
        )
        lowered = slack_bounded(8).lower(workload.jobs)
        assert lowered[0].deadline_hour == 3  # already tighter than slack
        assert lowered[1].deadline_hour == 10  # 0 + 2 + 8

    def test_duplicate_trace_names_rejected(self):
        trace = IntensityTrace("dup", np.full(24, 300.0))
        workload = diurnal_workload(1)
        with pytest.raises(SimulationError):
            evaluate_policies([trace, trace], [workload], capacity_kw=5000.0)

    def test_duplicate_policy_names_rejected(self):
        trace = IntensityTrace("t", np.full(48, 300.0))
        workload = diurnal_workload(1)
        with pytest.raises(SimulationError):
            evaluate_policies(
                [trace],
                [workload],
                [CARBON_AWARE, slack_bounded(4), CARBON_AWARE],
                capacity_kw=5000.0,
            )

    def test_zero_carbon_trace_reports_zero_savings(self):
        # A fully decarbonized grid is a legal trace; savings ratios
        # must come back 0, not NaN.
        zero = IntensityTrace("zero", np.zeros(48))
        workload = diurnal_workload(1)
        table = evaluate_policies([zero], [workload], capacity_kw=5000.0)
        savings = np.asarray(table.column("savings_fraction"), dtype=float)
        assert np.array_equal(savings, np.zeros(len(savings)))

    def test_savings_ordering_on_a_valley_grid(self):
        values = np.full(48, 500.0)
        values[20:30] = 50.0
        trace = IntensityTrace("valley", values)
        workload = WorkloadTrace.from_records(
            "w",
            [
                {"name": "a", "duration_hours": 4, "power_kw": 100.0},
                {"name": "b", "duration_hours": 4, "power_kw": 100.0,
                 "deadline_hour": 10},
            ],
        )
        table = evaluate_policies(
            [trace],
            [workload],
            [CARBON_AGNOSTIC, CARBON_AWARE, slack_bounded(2)],
            capacity_kw=500.0,
        )
        savings = dict(zip(table.column("policy"), table.column("savings_fraction")))
        assert savings["agnostic"] == 0.0
        assert savings["aware"] > savings["slack2"] >= 0.0
        deferral = dict(
            zip(table.column("policy"), table.column("max_deferral_hours"))
        )
        assert deferral["slack2"] <= 2.0
        assert deferral["aware"] >= 16.0  # job 'a' slid into the valley
