"""Unit tests for the uncertainty engine: draws, results, sweeps.

The statistical invariants live in test_uncertain_properties.py and the
scalar-reference pinning in test_uncertain_sweep_equivalence.py; this
file covers the engine's contracts — shapes, orderings, axis labels,
validation errors, and the CLI-facing registry plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.uncertainty import Fixed, LogNormal, Normal, Uniform
from repro.errors import SimulationError
from repro.scenarios import (
    SWEEPS,
    ScenarioGrid,
    facebook_like_fleet,
    run_uncertain_sweep,
    sweep_fleet,
    sweep_provisioning,
)
from repro.tabular import Table
from repro.uncertainty import (
    DrawMatrix,
    UncertainResult,
    build_draw_matrix,
    expand_records,
    quantile_column,
    split_scenario,
    sweep_fleet_uncertain,
    sweep_temporal_shifting_uncertain,
)


class TestDrawMatrix:
    def test_split_scenario(self):
        fixed, uncertain = split_scenario(
            {"a": 1.0, "b": Normal(2.0, 0.1), "c": "label"}
        )
        assert fixed == {"a": 1.0, "c": "label"}
        assert list(uncertain) == ["b"]

    def test_shapes_and_names(self):
        records = [
            {"a": Normal(1.0, 0.1), "b": 2.0},
            {"a": 1.5, "b": 2.0},
        ]
        matrix = build_draw_matrix(records, draws=8, seed=0)
        assert matrix.names == ("a",)
        assert matrix.values["a"].shape == (2, 8)
        # The fixed-in-one-scenario parameter broadcasts constant rows.
        assert np.all(matrix.values["a"][1] == 1.5)

    def test_overrides_cell(self):
        records = [{"a": Fixed(3.0)}]
        matrix = build_draw_matrix(records, draws=4, seed=0)
        assert matrix.overrides(0, 2) == {"a": 3.0}
        with pytest.raises(SimulationError):
            matrix.overrides(0, 4)
        with pytest.raises(SimulationError):
            matrix.overrides(1, 0)

    def test_expand_records_is_scenario_major_draw_minor(self):
        records = [
            {"a": Uniform(0.0, 1.0), "tag": "x"},
            {"a": Uniform(5.0, 6.0), "tag": "y"},
        ]
        matrix = build_draw_matrix(records, draws=3, seed=1)
        expanded = expand_records(records, matrix)
        assert len(expanded) == 6
        assert [cell["tag"] for cell in expanded] == ["x"] * 3 + ["y"] * 3
        for index in range(3):
            assert expanded[index]["a"] == float(matrix.values["a"][0, index])

    def test_validation(self):
        with pytest.raises(SimulationError):
            build_draw_matrix([], draws=4)
        with pytest.raises(SimulationError):
            build_draw_matrix([{"a": Normal(1, 0.1)}], draws=0)
        with pytest.raises(SimulationError):
            build_draw_matrix([{"a": 1.0}, {"b": 1.0}], draws=4)
        # Non-numeric value under an uncertain name is rejected.
        with pytest.raises(SimulationError):
            build_draw_matrix(
                [{"a": Normal(1, 0.1)}, {"a": "oops"}], draws=4
            )
        with pytest.raises(SimulationError):
            DrawMatrix(
                names=("a",),
                values={"a": np.zeros((2, 3))},
                draws=4,
                seed=0,
                num_scenarios=2,
            )


class TestUncertainResult:
    def _result(self):
        return UncertainResult(
            axes=Table({"x": [1.0, 2.0]}),
            samples={"m": np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])},
            draws=3,
            seed=0,
        )

    def test_quantile_column_names(self):
        assert quantile_column(5.0) == "p05"
        assert quantile_column(50) == "p50"
        assert quantile_column(97.5) == "p97_5"
        with pytest.raises(SimulationError):
            quantile_column(101.0)

    def test_quantile_table_carries_axes_and_bands(self):
        table = self._result().quantile_table()
        assert table.column_names == [
            "x", "m_mean", "m_p05", "m_p50", "m_p95",
        ]
        assert table.column("m_p50") == [2.0, 5.0]

    def test_metric_summary_rows(self):
        summary = self._result().metric_summary(1)
        assert summary.column("metric") == ["m"]
        assert summary.column("p50") == [5.0]

    def test_validation(self):
        with pytest.raises(SimulationError):
            UncertainResult(
                axes=Table({"x": [1.0]}), samples={}, draws=3, seed=0
            )
        with pytest.raises(SimulationError):
            UncertainResult(
                axes=Table({"x": [1.0]}),
                samples={"m": np.zeros((2, 3))},
                draws=3,
                seed=0,
            )
        result = self._result()
        with pytest.raises(SimulationError):
            result.samples_for("nope")
        with pytest.raises(SimulationError):
            result.distribution("m", 2)
        with pytest.raises(SimulationError):
            result.band("m", low=95.0, high=5.0)
        with pytest.raises(SimulationError):
            result.quantile_table(quantiles=(95.0, 5.0))
        with pytest.raises(SimulationError):
            result.quantile_table(quantiles=(5.0, 101.0))

    @settings(max_examples=60, deadline=None)
    @given(
        scenarios=st.integers(min_value=1, max_value=4),
        draws=st.sampled_from([1, 2, 3, 8, 9, 129, 256]),
        seed=st.integers(min_value=0, max_value=2**16),
        inf_cells=st.integers(min_value=0, max_value=3),
    )
    def test_summaries_equal_the_per_row_reference(
        self, scenarios, draws, seed, inf_cells
    ):
        # quantile_table/band reduce whole matrices in one numpy call;
        # the per-scenario UncertaintyResult arithmetic is the reference.
        from repro.analysis.uncertainty import UncertaintyResult

        rng = np.random.default_rng(seed)
        matrix = rng.lognormal(0.0, 2.0, size=(scenarios, draws))
        for _ in range(inf_cells):  # capex_to_opex_market's inf sentinel
            matrix[rng.integers(scenarios), rng.integers(draws)] = np.inf
        result = UncertainResult(
            axes=Table({"x": list(range(scenarios))}),
            samples={"m": matrix},
            draws=draws,
            seed=seed,
        )
        quantiles = (0.0, 2.5, 5.0, 50.0, 97.5, 100.0)
        table = result.quantile_table(quantiles)
        low, median, high = result.band("m", 2.5, 97.5)
        for scenario, row in enumerate(matrix):
            reference = UncertaintyResult(row)

            def same(got, want):
                return got == want or (np.isnan(got) and np.isnan(want))

            assert same(table.column("m_mean")[scenario], reference.mean)
            for q in quantiles:
                got = table.column(f"m_{quantile_column(q)}")[scenario]
                assert same(got, reference.percentile(q))
            assert same(low[scenario], reference.percentile(2.5))
            assert same(median[scenario], reference.percentile(50.0))
            assert same(high[scenario], reference.percentile(97.5))
            summary = result.metric_summary(scenario, quantiles).row(0)
            assert same(summary["mean"], reference.mean)
            assert same(summary["std"], reference.std)
            for q in quantiles:
                assert same(summary[quantile_column(q)], reference.percentile(q))


class TestSweepPlumbing:
    def test_axes_render_distribution_labels(self):
        grid = ScenarioGrid(
            **{"annual_growth": [0.1],
               "utilization": [Normal(0.5, 0.1)]}
        )
        result = sweep_fleet_uncertain(
            facebook_like_fleet(), grid, draws=4, seed=0
        )
        assert result.axes.column("annual_growth") == [0.1]
        assert result.axes.column("utilization") == [
            "Normal(mean=0.5, std=0.1)"
        ]

    def test_deterministic_sweeps_reject_distribution_axes(self):
        grid = ScenarioGrid(utilization=[Normal(0.5, 0.1)])
        with pytest.raises(SimulationError, match="--draws"):
            sweep_fleet(facebook_like_fleet(), grid)
        from repro.scenarios.presets import example_service_mix

        workloads, general, server_types = example_service_mix()
        with pytest.raises(SimulationError, match="--draws"):
            sweep_provisioning(
                workloads,
                general,
                server_types,
                utilization_targets=[Normal(0.5, 0.1)],
            )

    def test_temporal_shifting_axes_and_shape(self):
        result = sweep_temporal_shifting_uncertain(draws=2, seed=0)
        from repro.data.grids import region_names

        regions = region_names()
        assert result.num_scenarios == len(regions) * 2 * 3
        assert result.draws == 2
        # Row order is (region, workload, policy)-major.
        assert result.axes.column("region")[:6] == [regions[0]] * 6
        with pytest.raises(SimulationError):
            sweep_temporal_shifting_uncertain(hours=24)
        with pytest.raises(SimulationError):
            sweep_temporal_shifting_uncertain(draws=0)

    def test_expand_records_matches_the_fleet_sweep_expansion(self):
        # expand_records and sweep_fleet_uncertain's frame path (drawn
        # columns repeated scenario-major) implement the same
        # scenario-major/draw-minor contract; this pins them to each
        # other so neither can drift off the `s * draws + d` convention.
        from repro.datacenter.fleet import simulate_fleet
        from repro.scenarios import apply_overrides

        base = facebook_like_fleet()
        records = [
            {"annual_growth": 0.1, "utilization": Normal(0.4, 0.05)},
            {"annual_growth": 0.4, "utilization": Uniform(0.3, 0.7)},
        ]
        draws = 3
        sweep = sweep_fleet_uncertain(base, records, draws=draws, seed=9)
        matrix = build_draw_matrix(records, draws, seed=9)
        expanded = expand_records(records, matrix)
        for index, cell in enumerate(expanded):
            scenario, draw = divmod(index, draws)
            final = simulate_fleet(apply_overrides(base, cell))[-1]
            assert (
                sweep.samples_for("capex_kt")[scenario, draw]
                == final.capex.grams / 1e6 / 1e3
            )

    def test_non_finite_metric_cells_raise_like_the_scalar_guard(self):
        from repro.uncertainty.sweeps import _reshape_metrics

        table = Table({"m": [1.0, float("inf"), 2.0, 3.0]})
        with pytest.raises(SimulationError, match="scenario 0, draw 1"):
            _reshape_metrics(table, ("m",), 2, 2)
        # Designed sentinels pass through the allowlist.
        samples = _reshape_metrics(
            table, ("m",), 2, 2, allow_non_finite=("m",)
        )
        assert np.isinf(samples["m"][0, 1])

    def test_lognormal_median_validation(self):
        with pytest.raises(SimulationError):
            LogNormal.from_median(0.0, 0.5)
        with pytest.raises(SimulationError):
            LogNormal(0.0, -0.1)

    def test_named_sweeps_have_uncertain_variants(self):
        for spec in SWEEPS.values():
            assert spec.build_uncertain is not None, spec.name

    def test_run_uncertain_sweep_round_trip(self):
        result = run_uncertain_sweep("provisioning_mix", draws=4, seed=0)
        assert isinstance(result, UncertainResult)
        assert result.draws == 4
        with pytest.raises(SimulationError):
            run_uncertain_sweep("nope", draws=4)
