"""Property tests for the uncertainty engine's quantile invariants.

Three families of invariant, per the scenario-engine discipline:
quantiles must be monotone in the percentile, zero-variance
distributions must collapse the bands onto the deterministic sweep
*exactly*, and the per-scenario seeding must make draws reproducible
and independent of how a sweep is partitioned (the property that makes
sharded ``--jobs`` evaluation and scenario subsetting safe).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.uncertainty import (
    Fixed,
    LogNormal,
    Mixture,
    Normal,
    Triangular,
    Uniform,
)
from repro.scenarios import ScenarioGrid, facebook_like_fleet, sweep_fleet
from repro.uncertainty import (
    UncertainResult,
    build_draw_matrix,
    quantile_column,
    sweep_fleet_uncertain,
)
from repro.tabular import Table

_BASE = facebook_like_fleet()


def _distributions(draw):
    """One hypothesis-chosen distribution with a bounded support."""
    kind = draw(st.sampled_from(["normal", "uniform", "triangular",
                                 "lognormal", "mixture", "fixed"]))
    low = draw(st.floats(min_value=0.1, max_value=5.0))
    spread = draw(st.floats(min_value=0.0, max_value=2.0))
    if kind == "normal":
        return Normal(low, spread)
    if kind == "uniform":
        return Uniform(low, low + spread)
    if kind == "triangular":
        mode = low + spread / 2.0
        return Triangular(low, mode, low + spread)
    if kind == "lognormal":
        return LogNormal.from_median(low, min(spread, 0.8))
    if kind == "mixture":
        return Mixture.discrete({low: 0.25, low + spread: 0.75})
    return Fixed(low)


distribution_strategy = st.composite(_distributions)()


class TestQuantileInvariants:
    @given(dist=distribution_strategy, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_quantiles_monotone_in_percentile(self, dist, seed):
        rng = np.random.default_rng(seed)
        samples = dist.sample(rng, 128)
        result = UncertainResult(
            axes=Table({"scenario": [0]}),
            samples={"metric": samples.reshape(1, -1)},
            draws=128,
            seed=seed,
        )
        table = result.quantile_table(quantiles=(5.0, 25.0, 50.0, 75.0, 95.0))
        values = [
            table.column(f"metric_{quantile_column(q)}")[0]
            for q in (5.0, 25.0, 50.0, 75.0, 95.0)
        ]
        assert values == sorted(values)
        low, median, high = result.band("metric")
        assert low[0] <= median[0] <= high[0]

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_band_respects_sample_support(self, seed):
        rng = np.random.default_rng(seed)
        samples = Mixture.discrete({2.0: 1.0, 4.0: 2.0}).sample(rng, 256)
        assert set(np.unique(samples)) <= {2.0, 4.0}


class TestZeroVarianceCollapse:
    @pytest.mark.parametrize(
        "lifetime",
        [Fixed(3.0), Triangular(3.0, 3.0, 3.0), Normal(3.0, 0.0),
         Mixture.discrete({3.0: 1.0})],
    )
    def test_bands_collapse_to_the_deterministic_sweep(self, lifetime):
        grid_axes = {
            "annual_growth": [0.0, 0.25],
            "server.lifetime_years": [lifetime],
        }
        uncertain = sweep_fleet_uncertain(
            _BASE, ScenarioGrid(**grid_axes), draws=16, seed=0
        )
        deterministic = sweep_fleet(
            _BASE,
            ScenarioGrid(
                **{"annual_growth": [0.0, 0.25],
                   "server.lifetime_years": [3.0]}
            ),
        )
        for metric in ("capex_kt", "opex_market_kt", "energy_gwh"):
            low, median, high = uncertain.band(metric)
            expected = np.asarray(deterministic.column(metric), dtype=float)
            assert list(low) == list(expected)
            assert list(median) == list(expected)
            assert list(high) == list(expected)
            means = uncertain.quantile_table().column(f"{metric}_mean")
            assert list(means) == list(expected)


class TestSeedDiscipline:
    def test_draws_reproducible_across_runs(self):
        grid = ScenarioGrid(
            **{"annual_growth": [0.0, 0.5],
               "utilization": [Normal(0.5, 0.1)]}
        )
        a = sweep_fleet_uncertain(_BASE, grid, draws=32, seed=11)
        b = sweep_fleet_uncertain(_BASE, grid, draws=32, seed=11)
        for metric in a.metric_names:
            assert np.array_equal(a.samples_for(metric), b.samples_for(metric))

    def test_scenario_draws_independent_of_sweep_partitioning(self):
        # The property behind parallel/subset safety: a scenario's
        # draws depend only on (its record, draws, seed) — never on
        # which other scenarios ride in the same sweep.
        records = [
            {"utilization": Normal(0.4, 0.05), "annual_growth": 0.1},
            {"utilization": Normal(0.6, 0.05), "annual_growth": 0.3},
            {"utilization": Uniform(0.2, 0.8), "annual_growth": 0.5},
        ]
        full = build_draw_matrix(records, draws=64, seed=5)
        for index, record in enumerate(records):
            alone = build_draw_matrix([record], draws=64, seed=5)
            for name in full.names:
                assert np.array_equal(
                    full.values[name][index], alone.values[name][0]
                )

    def test_identical_distributions_share_draws_across_scenarios(self):
        # Common random numbers: scenario comparisons are paired, so
        # sampling noise cancels out of cross-scenario deltas.
        grid = ScenarioGrid(
            **{"annual_growth": [0.0, 0.25, 0.5],
               "utilization": [Normal(0.5, 0.1)]}
        )
        matrix = build_draw_matrix(grid.scenarios(), draws=32, seed=2)
        draws = matrix.values["utilization"]
        assert np.array_equal(draws[0], draws[1])
        assert np.array_equal(draws[1], draws[2])
