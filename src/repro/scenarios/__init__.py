"""Scenario engine: sweep thousands of fleet what-ifs in one call.

The paper's capex-dominance claim becomes a design tool once growth
rates, lifetimes, PUE, renewable ramps, and SKU mixes can be swept as
grids instead of edited one simulation at a time. This package
supplies the axes (:class:`ScenarioGrid`, :class:`ScenarioSet`), the
batched runners (:func:`sweep_fleet`, :func:`sweep_provisioning`,
:func:`sweep_temporal_shifting`) built on the struct-of-arrays
datacenter and trace kernels, and the named sweeps behind the
``repro sweep`` CLI.
"""

from .grid import ScenarioGrid, ScenarioSet
from .presets import example_service_mix, facebook_like_fleet, wind_solar_portfolio
from .runner import (
    SWEEPS,
    SweepSpec,
    apply_overrides,
    cached_sweep,
    fleet_scenario_frame,
    fleet_scenario_parameters,
    run_sweep,
    run_uncertain_sweep,
    sweep_fleet,
    sweep_names,
    sweep_provisioning,
    sweep_temporal_shifting,
)

__all__ = [
    "ScenarioGrid",
    "ScenarioSet",
    "facebook_like_fleet",
    "example_service_mix",
    "wind_solar_portfolio",
    "apply_overrides",
    "fleet_scenario_parameters",
    "fleet_scenario_frame",
    "sweep_fleet",
    "sweep_provisioning",
    "sweep_temporal_shifting",
    "SweepSpec",
    "SWEEPS",
    "sweep_names",
    "run_sweep",
    "run_uncertain_sweep",
    "cached_sweep",
]
