"""Break-even analysis between embodied (capex) and operational (opex) carbon.

Implements the Figure 10 math: given a manufacturing footprint and an
operational emission rate, when does cumulative operational carbon
equal the embodied carbon? The paper expresses the answer three ways —
number of inferences, days of continuous operation, and a comparison
against the device lifetime — and this module supports all three plus
full amortization schedules.

The break-even functions are batch-friendly: quantities may wrap 1-D
numpy draw arrays (see :mod:`repro.units`), in which case each function
returns an array of break-evens — one per draw. This is what
``monte_carlo(..., vectorized=True)`` relies on to evaluate a model
once over every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..units import SECONDS_PER_DAY, SECONDS_PER_YEAR, Carbon, CarbonIntensity, Energy, Power

__all__ = [
    "break_even_units",
    "break_even_seconds",
    "break_even_days",
    "break_even_years",
    "AmortizationSchedule",
]


def _any(condition: "bool | np.ndarray") -> bool:
    """Truth of a validation predicate over a scalar or a draw array,
    without paying numpy dispatch on the scalar fast path."""
    if isinstance(condition, np.ndarray):
        return bool(condition.any())
    return bool(condition)


def break_even_units(capex: Carbon, carbon_per_unit: Carbon) -> float:
    """How many units of work until operational carbon equals ``capex``.

    A "unit" is whatever the caller's rate describes — one inference for
    Figure 10 (top).
    """
    if _any(capex.grams < 0.0):
        raise SimulationError("capex must be non-negative")
    if _any(carbon_per_unit.grams <= 0.0):
        raise SimulationError("per-unit carbon must be positive")
    return capex.grams / carbon_per_unit.grams


def break_even_seconds(capex: Carbon, power: Power, grid: CarbonIntensity) -> float:
    """Seconds of continuous draw at ``power`` until opex equals capex."""
    if _any(capex.grams < 0.0):
        raise SimulationError("capex must be non-negative")
    if _any(power.watts_value <= 0.0):
        raise SimulationError("power must be positive")
    if _any(grid.grams_per_kwh <= 0.0):
        raise SimulationError(
            "grid intensity must be positive for a finite break-even"
        )
    grams_per_second = grid.carbon_for(power.energy_over(1.0)).grams
    return capex.grams / grams_per_second


def break_even_days(capex: Carbon, power: Power, grid: CarbonIntensity) -> float:
    """Days of continuous operation until opex equals capex (Fig. 10 bottom)."""
    return break_even_seconds(capex, power, grid) / SECONDS_PER_DAY


def break_even_years(capex: Carbon, power: Power, grid: CarbonIntensity) -> float:
    """Years of continuous operation until opex equals capex."""
    return break_even_seconds(capex, power, grid) / SECONDS_PER_YEAR


@dataclass(frozen=True)
class AmortizationSchedule:
    """Cumulative opex vs fixed capex over elapsed operating time.

    >>> schedule = AmortizationSchedule(
    ...     capex=Carbon.kg(25.0),
    ...     power=Power.watts(5.0),
    ...     grid=CarbonIntensity.g_per_kwh(380.0),
    ... )
    >>> opex = schedule.opex_after(schedule.break_even_seconds())
    >>> round(opex.kilograms, 9)  # == capex, up to float rounding
    25.0
    """

    capex: Carbon
    power: Power
    grid: CarbonIntensity

    def __post_init__(self) -> None:
        if self.capex.grams < 0.0:
            raise SimulationError("capex must be non-negative")
        if self.power.watts_value <= 0.0:
            raise SimulationError("power must be positive")

    def energy_after(self, seconds: float) -> Energy:
        if seconds < 0.0:
            raise SimulationError("elapsed time must be non-negative")
        return self.power.energy_over(seconds)

    def opex_after(self, seconds: float) -> Carbon:
        return self.grid.carbon_for(self.energy_after(seconds))

    def total_after(self, seconds: float) -> Carbon:
        return self.capex + self.opex_after(seconds)

    def opex_share_after(self, seconds: float) -> float:
        """Opex fraction of total footprint after ``seconds`` of use."""
        opex = self.opex_after(seconds)
        total = self.capex + opex
        if total.grams == 0.0:
            raise SimulationError("zero total footprint; share undefined")
        return opex.grams / total.grams

    def break_even_seconds(self) -> float:
        return break_even_seconds(self.capex, self.power, self.grid)

    def break_even_days(self) -> float:
        return break_even_days(self.capex, self.power, self.grid)

    def amortized_within(self, lifetime_seconds: float) -> bool:
        """True when the break-even falls inside the device lifetime."""
        if lifetime_seconds <= 0.0:
            raise SimulationError("lifetime must be positive")
        return self.break_even_seconds() <= lifetime_seconds
