"""simulate_fleet_batch is pinned element-identical to simulate_fleet.

The scalar loop is the reference implementation; every field of every
simulated year must match *exactly* (float equality, not approx)
across a property-style grid of parameters, including the edge cases
the cohort ring and portfolio schedule make delicate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.data.energy_sources import source_by_name
from repro.data.grids import US_GRID, WORLD_GRID
from repro.datacenter.facility import Facility
from repro.datacenter.fleet import (
    FleetParameters,
    simulate_fleet,
    simulate_fleet_batch,
)
from repro.datacenter.renewable import PPAContract, RenewablePortfolio
from repro.datacenter.server import STORAGE_SERVER, WEB_SERVER
from repro.errors import SimulationError
from repro.units import Carbon, Energy


def _portfolio(wind_gwh: float) -> RenewablePortfolio:
    wind = PPAContract("wind", source_by_name("wind"), Energy.gwh(wind_gwh))
    return RenewablePortfolio((wind,))


def _facility(pue: float = 1.1) -> Facility:
    return Facility("dc", pue=pue, construction_carbon=Carbon.kilotonnes(100.0))


def _params(**overrides) -> FleetParameters:
    params = dict(
        server=WEB_SERVER,
        facility=_facility(),
        location_intensity=US_GRID.intensity,
        initial_servers=10_000,
        annual_growth=0.20,
        years=6,
    )
    params.update(overrides)
    return FleetParameters(**params)


def _property_grid() -> list[FleetParameters]:
    """A cartesian parameter grid covering the delicate regimes."""
    scenarios: list[FleetParameters] = []
    ramps = [
        {},
        {0: _portfolio(50.0)},
        {2: _portfolio(500.0)},  # held across gap years 3..
        {1: _portfolio(40.0), 4: _portfolio(5000.0)},  # over-coverage late
    ]
    for growth, server, years, ramp in itertools.product(
        [0.0, 0.07, 0.25, 1.0],
        [WEB_SERVER, STORAGE_SERVER],
        [1, 3, 8],
        ramps,
    ):
        scenarios.append(
            _params(
                annual_growth=growth,
                server=server,
                years=years,
                renewable_ramp=ramp,
            )
        )
    # Edge regimes the satellite tests call out explicitly.
    scenarios.append(
        _params(server=_short_lived_server(0.3))
    )  # lifetime clamps to 1
    scenarios.append(_params(utilization=0.0))
    scenarios.append(_params(utilization=1.0))
    scenarios.append(_params(initial_servers=1, annual_growth=0.03))
    scenarios.append(
        _params(
            facility=_facility(pue=1.6),
            location_intensity=WORLD_GRID.intensity,
        )
    )
    return scenarios


def _short_lived_server(lifetime_years: float):
    import dataclasses

    return dataclasses.replace(WEB_SERVER, lifetime_years=lifetime_years)


def _assert_reports_identical(scalar, batch) -> None:
    assert len(scalar) == len(batch)
    for reference, candidate in zip(scalar, batch):
        assert candidate.year == reference.year
        assert candidate.servers == reference.servers
        assert candidate.servers_added == reference.servers_added
        assert candidate.energy.joules == reference.energy.joules
        assert candidate.opex_location.grams == reference.opex_location.grams
        assert candidate.opex_market.grams == reference.opex_market.grams
        assert candidate.capex.grams == reference.capex.grams
        assert candidate.renewable_coverage == reference.renewable_coverage


class TestBatchEquivalence:
    def test_property_grid_element_identical(self):
        scenarios = _property_grid()
        batch = simulate_fleet_batch(scenarios)
        assert batch.num_scenarios == len(scenarios)
        for index, params in enumerate(scenarios):
            _assert_reports_identical(
                simulate_fleet(params), batch.reports(index)
            )

    def test_single_scenario_matches(self):
        params = _params(renewable_ramp={1: _portfolio(300.0)})
        _assert_reports_identical(
            simulate_fleet(params), simulate_fleet_batch([params]).reports(0)
        )

    def test_mixed_horizons_mask_cleanly(self):
        scenarios = [_params(years=2), _params(years=7), _params(years=4)]
        batch = simulate_fleet_batch(scenarios)
        assert batch.horizon == 7
        mask = batch.valid_mask()
        assert mask.sum() == 2 + 7 + 4
        # Cells past a scenario's own horizon stay zero.
        assert batch.servers[0, 2:].sum() == 0
        for index, params in enumerate(scenarios):
            _assert_reports_identical(
                simulate_fleet(params), batch.reports(index)
            )

    def test_shared_embodied_model_used_once_per_sku(self):
        # Many scenarios over two SKUs: values must still match the
        # scalar runs that each recompute the embodied footprint.
        scenarios = [
            _params(server=server, annual_growth=growth)
            for server in (WEB_SERVER, STORAGE_SERVER)
            for growth in (0.0, 0.5)
        ]
        batch = simulate_fleet_batch(scenarios)
        for index, params in enumerate(scenarios):
            _assert_reports_identical(
                simulate_fleet(params), batch.reports(index)
            )


class TestBatchDerived:
    def test_capex_to_opex_matches_report_property(self):
        scenarios = [_params(), _params(renewable_ramp={0: _portfolio(900.0)})]
        batch = simulate_fleet_batch(scenarios)
        ratio = batch.capex_to_opex_market()
        fraction = batch.capex_fraction_market()
        for index, params in enumerate(scenarios):
            for year_index, report in enumerate(simulate_fleet(params)):
                assert ratio[index, year_index] == report.capex_to_opex_market
                assert (
                    fraction[index, year_index] == report.capex_fraction_market
                )

    def test_zero_market_opex_yields_inf_ratio(self):
        # A zero-carbon location grid with no contracts: market opex is
        # exactly zero and the ratio must be inf in both paths.
        zero_grid = US_GRID.intensity * 0.0
        params = _params(location_intensity=zero_grid)
        batch = simulate_fleet_batch([params])
        assert np.all(np.isinf(batch.capex_to_opex_market()[0]))
        scalar = simulate_fleet(params)
        assert scalar[0].capex_to_opex_market == math.inf
        _assert_reports_identical(scalar, batch.reports(0))

    def test_final_year_table_rejects_an_earlier_zero_total_year(self):
        # No growth, no construction carbon and a zero-carbon grid: the
        # years between purchases (1 and 2) have zero capex and zero
        # market opex, while the final year re-buys the retired cohort.
        params = _params(
            annual_growth=0.0,
            server=_short_lived_server(3.0),
            years=4,
            facility=Facility("dc", pue=1.1, construction_carbon=Carbon(0.0)),
            location_intensity=US_GRID.intensity * 0.0,
        )
        reports = simulate_fleet(params)
        assert reports[-1].capex_fraction_market == 1.0
        with pytest.raises(SimulationError, match="zero total footprint"):
            reports[1].capex_fraction_market
        batch = simulate_fleet_batch([params])
        assert batch.capex_grams[0, -1] > 0.0
        with pytest.raises(SimulationError, match="zero total footprint"):
            batch.final_year_table()

    def test_to_table_matches_scalar_unit_conversions(self):
        params = _params(renewable_ramp={1: _portfolio(200.0)})
        table = simulate_fleet_batch([params]).to_table()
        for row, report in zip(table, simulate_fleet(params)):
            assert row["year"] == report.year
            assert row["servers"] == report.servers
            assert row["energy_gwh"] == report.energy.gigawatt_hours
            assert row["opex_location_kt"] == report.opex_location.kilotonnes_value
            assert row["opex_market_kt"] == report.opex_market.kilotonnes_value
            assert row["capex_kt"] == report.capex.kilotonnes_value
            assert row["coverage"] == report.renewable_coverage
            assert row["capex_fraction_market"] == report.capex_fraction_market

    def test_final_year_table_is_last_simulated_year(self):
        scenarios = [_params(years=3), _params(years=6)]
        table = simulate_fleet_batch(scenarios).final_year_table()
        assert table.column("year") == [2016, 2019]
        for row, params in zip(table, scenarios):
            final = simulate_fleet(params)[-1]
            assert row["servers"] == final.servers
            assert row["capex_kt"] == final.capex.kilotonnes_value


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            simulate_fleet_batch([])

    def test_scenario_index_bounds_checked(self):
        batch = simulate_fleet_batch([_params()])
        with pytest.raises(SimulationError):
            batch.reports(1)
        with pytest.raises(SimulationError):
            batch.reports(-1)

    def test_contracts_with_zero_demand_rejected_like_scalar(self):
        import dataclasses

        dark_server = dataclasses.replace(
            WEB_SERVER, idle_power=WEB_SERVER.idle_power * 0.0
        )
        params = _params(
            server=dark_server,
            utilization=0.0,
            renewable_ramp={0: _portfolio(10.0)},
        )
        with pytest.raises(SimulationError):
            simulate_fleet(params)
        with pytest.raises(SimulationError):
            simulate_fleet_batch([params])
