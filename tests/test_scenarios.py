"""Tests for the scenario engine: grids, overrides, batched sweeps."""

from __future__ import annotations

import pytest

from repro.datacenter.fleet import simulate_fleet
from repro.errors import SimulationError
from repro.scenarios import (
    SWEEPS,
    ScenarioGrid,
    ScenarioSet,
    apply_overrides,
    facebook_like_fleet,
    fleet_scenario_parameters,
    run_sweep,
    sweep_fleet,
    sweep_names,
    sweep_provisioning,
)
from repro.scenarios.presets import example_service_mix


class TestScenarioGrid:
    def test_cartesian_product_row_major(self):
        grid = ScenarioGrid(a=[1, 2], b=["x", "y", "z"])
        assert len(grid) == 6
        scenarios = grid.scenarios()
        assert scenarios[0] == {"a": 1, "b": "x"}
        assert scenarios[1] == {"a": 1, "b": "y"}
        assert scenarios[3] == {"a": 2, "b": "x"}

    def test_to_table_one_row_per_scenario(self):
        table = ScenarioGrid(a=[1, 2], b=[0.5]).to_table()
        assert table.num_rows == 2
        assert table.column_names == ["a", "b"]

    def test_empty_axes_rejected(self):
        with pytest.raises(SimulationError):
            ScenarioGrid()
        with pytest.raises(SimulationError):
            ScenarioGrid(a=[])


class TestScenarioSet:
    def test_zipped_lockstep(self):
        scenarios = ScenarioSet.zipped(a=[1, 2], b=[10, 20]).scenarios()
        assert scenarios == [{"a": 1, "b": 10}, {"a": 2, "b": 20}]

    def test_zipped_requires_equal_lengths(self):
        with pytest.raises(SimulationError):
            ScenarioSet.zipped(a=[1, 2], b=[10])

    def test_records_must_share_parameters(self):
        with pytest.raises(SimulationError):
            ScenarioSet([{"a": 1}, {"b": 2}])
        with pytest.raises(SimulationError):
            ScenarioSet([])


class TestApplyOverrides:
    def test_top_level_and_dotted_paths(self):
        base = facebook_like_fleet()
        changed = apply_overrides(
            base,
            {
                "annual_growth": 0.5,
                "server.lifetime_years": 2.0,
                "facility.pue": 1.3,
            },
        )
        assert changed.annual_growth == 0.5
        assert changed.server.lifetime_years == 2.0
        assert changed.facility.pue == 1.3
        # Untouched fields are shared, and the base is unchanged.
        assert changed.initial_servers == base.initial_servers
        assert base.annual_growth == 0.25

    def test_unknown_field_rejected(self):
        base = facebook_like_fleet()
        with pytest.raises(SimulationError):
            apply_overrides(base, {"not_a_field": 1})
        with pytest.raises(SimulationError):
            apply_overrides(base, {"server.not_a_field": 1})
        with pytest.raises(SimulationError):
            apply_overrides(base, {"annual_growth.too_deep": 1})


class TestDistributionGuards:
    def test_fleet_scenario_parameters_reject_tagged_values(self):
        from repro.analysis.uncertainty import Normal

        with pytest.raises(SimulationError, match="--draws"):
            fleet_scenario_parameters(
                facebook_like_fleet(), [{"utilization": Normal(0.5, 0.1)}]
            )


class TestSweepFleet:
    def test_matches_per_scenario_scalar_runs(self):
        base = facebook_like_fleet()
        grid = ScenarioGrid(
            **{
                "annual_growth": [0.0, 0.25],
                "server.lifetime_years": [2.0, 4.0],
            }
        )
        table = sweep_fleet(base, grid)
        assert table.num_rows == len(grid)
        for row, params in zip(
            table, fleet_scenario_parameters(base, grid)
        ):
            final = simulate_fleet(params)[-1]
            assert row["servers"] == final.servers
            assert row["capex_kt"] == final.capex.kilotonnes_value
            assert row["opex_market_kt"] == final.opex_market.kilotonnes_value
            assert row["capex_fraction_market"] == final.capex_fraction_market

    def test_axis_columns_present(self):
        table = sweep_fleet(
            facebook_like_fleet(), ScenarioGrid(annual_growth=[0.1, 0.2])
        )
        assert table.column("annual_growth") == [0.1, 0.2]


class TestSweepProvisioning:
    def test_savings_positive_across_grid(self):
        workloads, general, server_types = example_service_mix()
        table = sweep_provisioning(
            workloads,
            general,
            server_types,
            utilization_targets=[0.5, 0.7],
            demand_scales=[1.0, 2.0],
        )
        assert table.num_rows == 4
        for row in table:
            assert row["servers_heterogeneous"] < row["servers_homogeneous"]
            assert 0.0 < row["carbon_saving_fraction"] < 1.0


class TestNamedSweeps:
    def test_every_named_sweep_runs(self):
        assert sweep_names() == list(SWEEPS)
        for name in sweep_names():
            table = run_sweep(name)
            assert table.num_rows >= 4, name

    def test_unknown_sweep_rejected(self):
        with pytest.raises(SimulationError):
            run_sweep("nope")
