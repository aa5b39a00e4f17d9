"""Diurnal grid carbon-intensity generator.

Carbon-aware scheduling (Section VI) needs a grid whose intensity
varies over the day: solar floods the midday grid with clean energy,
evenings lean on gas peakers. This module generates deterministic
hourly intensity profiles with an optional seeded noise term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SimulationError
from ..units import CarbonIntensity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..traces.intensity import IntensityTrace

__all__ = ["DiurnalGridModel"]


@dataclass(frozen=True)
class DiurnalGridModel:
    """An hourly grid-intensity profile.

    Intensity follows ``base - solar_depth * bell(midday) +
    evening_peak * bell(evening)`` — a stylized duck curve. All
    parameters in g CO2e/kWh.
    """

    base_g_per_kwh: float = 420.0
    solar_depth_g_per_kwh: float = 180.0
    evening_peak_g_per_kwh: float = 60.0
    noise_g_per_kwh: float = 0.0
    seed: int = 0

    _SOLAR_NOON = 13.0
    _EVENING_PEAK = 20.0

    def __post_init__(self) -> None:
        if self.base_g_per_kwh <= 0.0:
            raise SimulationError("base intensity must be positive")
        if self.solar_depth_g_per_kwh < 0.0 or self.evening_peak_g_per_kwh < 0.0:
            raise SimulationError("profile amplitudes must be non-negative")
        if self.noise_g_per_kwh < 0.0:
            raise SimulationError("noise amplitude must be non-negative")
        if self.solar_depth_g_per_kwh >= self.base_g_per_kwh:
            raise SimulationError("solar depth would drive intensity negative")

    @staticmethod
    def _bell(hour_of_day: float, center: float, width: float) -> float:
        distance = min(
            abs(hour_of_day - center),
            24.0 - abs(hour_of_day - center),
        )
        return math.exp(-(distance * distance) / (2.0 * width * width))

    def intensity_at(self, hour: float) -> CarbonIntensity:
        """Deterministic intensity at an (absolute) hour offset."""
        hour_of_day = hour % 24.0
        value = (
            self.base_g_per_kwh
            - self.solar_depth_g_per_kwh * self._bell(hour_of_day, self._SOLAR_NOON, 3.0)
            + self.evening_peak_g_per_kwh * self._bell(hour_of_day, self._EVENING_PEAK, 2.0)
        )
        return CarbonIntensity.g_per_kwh(max(value, 1.0))

    def hourly_series(self, hours: int) -> np.ndarray:
        """Intensity (g/kWh) for ``hours`` consecutive hours.

        With ``noise_g_per_kwh > 0`` a seeded Gaussian perturbation is
        added, clipped at 1 g/kWh so intensities stay physical.
        """
        if hours <= 0:
            raise SimulationError("series length must be positive")
        hour_of_day = np.arange(hours, dtype=float) % 24.0

        def bell(center: float, width: float) -> np.ndarray:
            offset = np.abs(hour_of_day - center)
            distance = np.minimum(offset, 24.0 - offset)
            return np.exp(-(distance * distance) / (2.0 * width * width))

        values = (
            self.base_g_per_kwh
            - self.solar_depth_g_per_kwh * bell(self._SOLAR_NOON, 3.0)
            + self.evening_peak_g_per_kwh * bell(self._EVENING_PEAK, 2.0)
        )
        np.maximum(values, 1.0, out=values)
        if self.noise_g_per_kwh > 0.0:
            rng = np.random.default_rng(self.seed)
            values = values + rng.normal(0.0, self.noise_g_per_kwh, size=hours)
        return np.clip(values, 1.0, None)

    def trace(self, hours: int, name: str = "diurnal") -> "IntensityTrace":
        """This profile as an :class:`~repro.traces.IntensityTrace`.

        The bridge into the traces subsystem: one vectorized series
        build instead of per-hour ``intensity_at`` calls.
        """
        from ..traces.intensity import IntensityTrace

        return IntensityTrace(name, self.hourly_series(hours))
