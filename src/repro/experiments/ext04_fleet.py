"""Extension: a Facebook-like fleet reproduces the Figure 11 mechanism.

Simulates six years of a growing server fleet with a renewable ramp:
energy grows every year, market-based operational carbon collapses
once procurement covers demand, and capex (new-server manufacturing
plus construction) ends up dominating — the generative mechanism
behind the reported Figure 2/11 data. Runs on the batched
struct-of-arrays kernel (:func:`repro.datacenter.fleet.simulate_fleet_batch`);
the scalar :func:`repro.datacenter.fleet.simulate_fleet` is the
reference implementation the kernel is pinned against.
"""

from __future__ import annotations

import numpy as np

from ..analysis.uncertainty import Normal, Triangular
from ..datacenter.fleet import FleetParameters, simulate_fleet_batch
from ..report.charts import line_chart
from ..scenarios.presets import facebook_like_fleet
from ..uncertainty import UncertainResult, sweep_fleet_uncertain
from .result import Check, ExperimentResult

__all__ = ["run", "facebook_like_parameters", "uncertain_fleet"]

#: Cheap registry metadata: the experiment title without run().
TITLE = "Fleet simulation: the mechanism behind Figures 2 and 11"

_DRAWS = 256


def facebook_like_parameters() -> FleetParameters:
    """A 2014-2019 fleet with an aggressive renewable ramp."""
    return facebook_like_fleet()


def uncertain_fleet(draws: int = _DRAWS, seed: int = 0) -> UncertainResult:
    """The same fleet with its elusive parameters left as distributions.

    Lifetime, utilization, and PUE are the inputs the paper flags as
    assumption-laden; tagging them and sweeping the draw matrix turns
    the capex-dominance claim from a point estimate into a band.
    """
    scenario = {
        "server.lifetime_years": Triangular(3.0, 4.0, 6.0),
        "utilization": Normal(0.45, 0.05),
        "facility.pue": Triangular(1.07, 1.10, 1.30),
    }
    return sweep_fleet_uncertain(
        facebook_like_fleet(), [scenario], draws=draws, seed=seed
    )


def run() -> ExperimentResult:
    """Run this experiment and return its tables and checks."""
    batch = simulate_fleet_batch([facebook_like_parameters()])
    table = batch.to_table().select(
        "year",
        "servers",
        "energy_gwh",
        "opex_location_kt",
        "opex_market_kt",
        "capex_kt",
        "coverage",
        "capex_fraction_market",
    )
    energy = table.array("energy_gwh")
    market = table.column("opex_market_kt")
    location = table.column("opex_location_kt")
    final_fraction = float(batch.capex_fraction_market()[0, -1])
    final_ratio = float(batch.capex_to_opex_market()[0, -1])

    # Uncertainty view: the same claims with lifetime/utilization/PUE
    # sampled instead of assumed. CI columns land in the summary table;
    # the checks assert the claims hold across the band, not just at
    # the point estimate.
    uncertain = uncertain_fleet()
    fraction = uncertain.distribution("capex_fraction_market")
    ratio = uncertain.distribution("capex_to_opex_market")
    fraction_p05, fraction_p95 = fraction.interval(0.90)
    checks = [
        Check.boolean(
            "energy_rises_every_year",
            bool(np.all(np.diff(energy) > 0.0)),
        ),
        Check.boolean(
            "market_opex_falls_after_ramp",
            market[-1] < market[0],
        ),
        Check.boolean(
            "capex_dominates_by_final_year",
            final_fraction > 0.80,
        ),
        Check.boolean(
            # The paper's 23x covers the whole supply chain (all
            # purchased goods); this simulation counts only servers and
            # construction, so several-fold is the expected regime.
            "capex_to_opex_ratio_large",
            final_ratio > 4.0,
        ),
        Check.boolean(
            "location_opex_still_rising",
            location[-1] > location[0],
        ),
        Check.boolean(
            "point_estimate_inside_p05_p95_band",
            fraction_p05 <= final_fraction <= fraction_p95,
        ),
        Check.boolean(
            # Capex dominance survives the assumption error bars: even
            # the 5th percentile of the sampled capex fraction clears
            # 3/4 of the market-based footprint.
            "capex_dominates_even_at_p05",
            fraction_p05 > 0.75,
        ),
        Check.boolean(
            "capex_to_opex_ratio_large_even_at_p05",
            ratio.percentile(5.0) > 3.0,
        ),
    ]
    chart = line_chart(
        [float(year) for year in table.column("year")],
        {
            "opex_location_kt": location,
            "opex_market_kt": market,
            "capex_kt": table.column("capex_kt"),
        },
    )
    return ExperimentResult(
        experiment_id="ext04",
        title=TITLE,
        tables={"fleet": table, "uncertainty": uncertain.metric_summary()},
        checks=checks,
        charts={"carbon_series": chart},
        notes=[
            f"CI columns: {_DRAWS} draws over lifetime Triangular(3,4,6), "
            "utilization Normal(0.45,0.05), PUE Triangular(1.07,1.10,1.30); "
            f"final-year capex fraction p05-p95 = "
            f"[{fraction_p05:.3f}, {fraction_p95:.3f}] around the "
            f"{final_fraction:.3f} point estimate.",
        ],
    )
