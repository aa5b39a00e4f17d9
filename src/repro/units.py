"""Typed physical quantities for carbon accounting.

The library deals in four physical dimensions that are easy to confuse
when everything is a float: energy, power, mass of CO2-equivalent, and
carbon intensity (mass of CO2e emitted per unit of energy produced).
Each gets a small immutable value type with explicit constructors and
only the arithmetic that is dimensionally meaningful:

>>> power = Power.watts(5.0)
>>> energy = power.energy_over(hours(2))
>>> energy.kilowatt_hours
0.01
>>> grid = CarbonIntensity.g_per_kwh(380.0)
>>> round((energy * grid).grams, 9)
3.8

Canonical internal units are joules (energy), watts (power), grams CO2e
(carbon), grams per kilowatt-hour (intensity), and seconds (durations,
plain floats produced by the helpers :func:`hours`, :func:`days`, and
:func:`years`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnitError

__all__ = [
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "DAYS_PER_YEAR",
    "SECONDS_PER_YEAR",
    "JOULES_PER_KWH",
    "GRAMS_PER_KG",
    "GRAMS_PER_TONNE",
    "hours",
    "days",
    "years",
    "Energy",
    "Power",
    "Carbon",
    "CarbonIntensity",
]

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24.0 * SECONDS_PER_HOUR
DAYS_PER_YEAR = 365.0
SECONDS_PER_YEAR = DAYS_PER_YEAR * SECONDS_PER_DAY
JOULES_PER_KWH = 3.6e6
GRAMS_PER_KG = 1e3
GRAMS_PER_TONNE = 1e6


def _require_finite(value: float, what: str) -> float:
    """Validate a scalar — or, for batched models, a whole draw array.

    Quantity types accept 1-D ``float64`` arrays wherever they accept a
    float, so vectorized Monte Carlo paths can push full sample vectors
    through the same dimensional API. All arithmetic on quantities is
    elementwise, so array-valued quantities compose transparently.
    """
    if isinstance(value, np.ndarray):
        # Copy so the frozen quantity cannot alias a caller-mutable
        # array (the scalar path copies by construction via float()).
        array = np.array(value, dtype=np.float64)
        if not np.all(np.isfinite(array)):
            raise UnitError(f"{what} must be finite everywhere")
        return array
    value = float(value)
    if not math.isfinite(value):
        raise UnitError(f"{what} must be finite, got {value!r}")
    return value


def _require_non_negative(value: float, what: str) -> float:
    value = _require_finite(value, what)
    if isinstance(value, np.ndarray):
        if np.any(value < 0.0):
            raise UnitError(f"{what} must be non-negative everywhere")
        return value
    if value < 0.0:
        raise UnitError(f"{what} must be non-negative, got {value!r}")
    return value


def _array_repr(kind: str, value: np.ndarray, unit: str) -> str:
    """Compact repr for array-valued quantities (draw/scenario vectors)."""
    low, high = float(np.min(value)), float(np.max(value))
    return f"{kind}([{len(value)} x {low:.6g}..{high:.6g} {unit}])"


def hours(count: float) -> float:
    """Return ``count`` hours expressed in seconds."""
    return _require_finite(count, "hours") * SECONDS_PER_HOUR


def days(count: float) -> float:
    """Return ``count`` days expressed in seconds."""
    return _require_finite(count, "days") * SECONDS_PER_DAY


def years(count: float) -> float:
    """Return ``count`` years (365-day) expressed in seconds."""
    return _require_finite(count, "years") * SECONDS_PER_YEAR


@dataclass(frozen=True, slots=True)
class Energy:
    """An amount of energy, stored internally in joules."""

    joules: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "joules", _require_finite(self.joules, "energy"))

    @classmethod
    def zero(cls) -> "Energy":
        return cls(0.0)

    @classmethod
    def from_joules(cls, value: float) -> "Energy":
        return cls(value)

    @classmethod
    def watt_hours(cls, value: float) -> "Energy":
        return cls(_require_finite(value, "watt-hours") * SECONDS_PER_HOUR)

    @classmethod
    def kwh(cls, value: float) -> "Energy":
        return cls(_require_finite(value, "kilowatt-hours") * JOULES_PER_KWH)

    @classmethod
    def gwh(cls, value: float) -> "Energy":
        return cls.kwh(_require_finite(value, "gigawatt-hours") * 1e6)

    @classmethod
    def twh(cls, value: float) -> "Energy":
        return cls.kwh(_require_finite(value, "terawatt-hours") * 1e9)

    @property
    def watt_hours_value(self) -> float:
        return self.joules / SECONDS_PER_HOUR

    @property
    def kilowatt_hours(self) -> float:
        return self.joules / JOULES_PER_KWH

    @property
    def gigawatt_hours(self) -> float:
        return self.kilowatt_hours / 1e6

    @property
    def terawatt_hours(self) -> float:
        return self.kilowatt_hours / 1e9

    def __add__(self, other: "Energy") -> "Energy":
        if not isinstance(other, Energy):
            return NotImplemented
        return Energy(self.joules + other.joules)

    def __sub__(self, other: "Energy") -> "Energy":
        if not isinstance(other, Energy):
            return NotImplemented
        return Energy(self.joules - other.joules)

    def __mul__(self, factor: object) -> "Energy":
        if isinstance(factor, (int, float)):
            return Energy(self.joules * float(factor))
        if isinstance(factor, CarbonIntensity):
            return NotImplemented  # handled by CarbonIntensity.__rmul__
        return NotImplemented

    def __rmul__(self, factor: object) -> "Energy":
        if isinstance(factor, (int, float)):
            return Energy(self.joules * float(factor))
        return NotImplemented

    def __truediv__(self, other: object):
        if isinstance(other, Energy):
            if other.joules == 0.0:
                raise UnitError("cannot divide by zero energy")
            return self.joules / other.joules
        if isinstance(other, (int, float)):
            if float(other) == 0.0:
                raise UnitError("cannot divide energy by zero")
            return Energy(self.joules / float(other))
        return NotImplemented

    def __neg__(self) -> "Energy":
        return Energy(-self.joules)

    def __lt__(self, other: "Energy") -> bool:
        if not isinstance(other, Energy):
            return NotImplemented
        return self.joules < other.joules

    def __le__(self, other: "Energy") -> bool:
        if not isinstance(other, Energy):
            return NotImplemented
        return self.joules <= other.joules

    def __repr__(self) -> str:
        if isinstance(self.joules, np.ndarray):
            return _array_repr("Energy", self.kilowatt_hours, "kWh")
        return f"Energy({self.kilowatt_hours:.6g} kWh)"


@dataclass(frozen=True, slots=True)
class Power:
    """A rate of energy use, stored internally in watts."""

    watts_value: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "watts_value", _require_finite(self.watts_value, "power")
        )

    @classmethod
    def watts(cls, value: float) -> "Power":
        return cls(value)

    @classmethod
    def milliwatts(cls, value: float) -> "Power":
        return cls(_require_finite(value, "milliwatts") / 1e3)

    @classmethod
    def kilowatts(cls, value: float) -> "Power":
        return cls(_require_finite(value, "kilowatts") * 1e3)

    @classmethod
    def megawatts(cls, value: float) -> "Power":
        return cls(_require_finite(value, "megawatts") * 1e6)

    @property
    def kilowatts_value(self) -> float:
        return self.watts_value / 1e3

    @property
    def megawatts_value(self) -> float:
        return self.watts_value / 1e6

    def energy_over(self, seconds: float) -> Energy:
        """Energy dissipated when held for ``seconds`` seconds."""
        return Energy(self.watts_value * _require_finite(seconds, "duration"))

    def __add__(self, other: "Power") -> "Power":
        if not isinstance(other, Power):
            return NotImplemented
        return Power(self.watts_value + other.watts_value)

    def __sub__(self, other: "Power") -> "Power":
        if not isinstance(other, Power):
            return NotImplemented
        return Power(self.watts_value - other.watts_value)

    def __mul__(self, factor: object):
        if isinstance(factor, (int, float)):
            return Power(self.watts_value * float(factor))
        return NotImplemented

    def __rmul__(self, factor: object):
        if isinstance(factor, (int, float)):
            return Power(self.watts_value * float(factor))
        return NotImplemented

    def __truediv__(self, other: object):
        if isinstance(other, Power):
            if other.watts_value == 0.0:
                raise UnitError("cannot divide by zero power")
            return self.watts_value / other.watts_value
        if isinstance(other, (int, float)):
            if float(other) == 0.0:
                raise UnitError("cannot divide power by zero")
            return Power(self.watts_value / float(other))
        return NotImplemented

    def __lt__(self, other: "Power") -> bool:
        if not isinstance(other, Power):
            return NotImplemented
        return self.watts_value < other.watts_value

    def __le__(self, other: "Power") -> bool:
        if not isinstance(other, Power):
            return NotImplemented
        return self.watts_value <= other.watts_value

    def __repr__(self) -> str:
        if isinstance(self.watts_value, np.ndarray):
            return _array_repr("Power", self.watts_value, "W")
        return f"Power({self.watts_value:.6g} W)"


@dataclass(frozen=True, slots=True)
class Carbon:
    """A mass of CO2-equivalent emissions, stored internally in grams."""

    grams: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "grams", _require_finite(self.grams, "carbon"))

    @classmethod
    def zero(cls) -> "Carbon":
        return cls(0.0)

    @classmethod
    def from_grams(cls, value: float) -> "Carbon":
        return cls(value)

    @classmethod
    def kg(cls, value: float) -> "Carbon":
        return cls(_require_finite(value, "kilograms CO2e") * GRAMS_PER_KG)

    @classmethod
    def tonnes(cls, value: float) -> "Carbon":
        return cls(_require_finite(value, "tonnes CO2e") * GRAMS_PER_TONNE)

    @classmethod
    def kilotonnes(cls, value: float) -> "Carbon":
        return cls.tonnes(_require_finite(value, "kilotonnes CO2e") * 1e3)

    @classmethod
    def megatonnes(cls, value: float) -> "Carbon":
        return cls.tonnes(_require_finite(value, "megatonnes CO2e") * 1e6)

    @property
    def kilograms(self) -> float:
        return self.grams / GRAMS_PER_KG

    @property
    def tonnes_value(self) -> float:
        return self.grams / GRAMS_PER_TONNE

    @property
    def kilotonnes_value(self) -> float:
        return self.tonnes_value / 1e3

    @property
    def megatonnes_value(self) -> float:
        return self.tonnes_value / 1e6

    def __add__(self, other: "Carbon") -> "Carbon":
        if not isinstance(other, Carbon):
            return NotImplemented
        return Carbon(self.grams + other.grams)

    def __sub__(self, other: "Carbon") -> "Carbon":
        if not isinstance(other, Carbon):
            return NotImplemented
        return Carbon(self.grams - other.grams)

    def __mul__(self, factor: object):
        if isinstance(factor, (int, float)):
            return Carbon(self.grams * float(factor))
        return NotImplemented

    def __rmul__(self, factor: object):
        if isinstance(factor, (int, float)):
            return Carbon(self.grams * float(factor))
        return NotImplemented

    def __truediv__(self, other: object):
        if isinstance(other, Carbon):
            if other.grams == 0.0:
                raise UnitError("cannot divide by zero carbon")
            return self.grams / other.grams
        if isinstance(other, (int, float)):
            if float(other) == 0.0:
                raise UnitError("cannot divide carbon by zero")
            return Carbon(self.grams / float(other))
        return NotImplemented

    def __neg__(self) -> "Carbon":
        return Carbon(-self.grams)

    def __lt__(self, other: "Carbon") -> bool:
        if not isinstance(other, Carbon):
            return NotImplemented
        return self.grams < other.grams

    def __le__(self, other: "Carbon") -> bool:
        if not isinstance(other, Carbon):
            return NotImplemented
        return self.grams <= other.grams

    def __repr__(self) -> str:
        if isinstance(self.grams, np.ndarray):
            return _array_repr("Carbon", self.grams, "g CO2e")
        if abs(self.grams) >= GRAMS_PER_TONNE:
            return f"Carbon({self.tonnes_value:.6g} t CO2e)"
        if abs(self.grams) >= GRAMS_PER_KG:
            return f"Carbon({self.kilograms:.6g} kg CO2e)"
        return f"Carbon({self.grams:.6g} g CO2e)"


@dataclass(frozen=True, slots=True)
class CarbonIntensity:
    """Mass of CO2e emitted per unit of energy produced.

    Stored in the industry-conventional grams-per-kilowatt-hour. A
    carbon intensity multiplied by an :class:`Energy` yields a
    :class:`Carbon` mass.
    """

    grams_per_kwh: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "grams_per_kwh",
            _require_non_negative(self.grams_per_kwh, "carbon intensity"),
        )

    @classmethod
    def g_per_kwh(cls, value: float) -> "CarbonIntensity":
        return cls(value)

    @classmethod
    def kg_per_mwh(cls, value: float) -> "CarbonIntensity":
        # 1 kg/MWh == 1 g/kWh.
        return cls(value)

    def carbon_for(self, energy: Energy) -> Carbon:
        """Carbon emitted when ``energy`` is drawn at this intensity."""
        return Carbon(self.grams_per_kwh * energy.kilowatt_hours)

    def __mul__(self, other: object):
        if isinstance(other, Energy):
            return self.carbon_for(other)
        if isinstance(other, (int, float)):
            return CarbonIntensity(self.grams_per_kwh * float(other))
        return NotImplemented

    def __rmul__(self, other: object):
        return self.__mul__(other)

    def __truediv__(self, other: object):
        if isinstance(other, CarbonIntensity):
            if other.grams_per_kwh == 0.0:
                raise UnitError("cannot divide by zero carbon intensity")
            return self.grams_per_kwh / other.grams_per_kwh
        if isinstance(other, (int, float)):
            if float(other) == 0.0:
                raise UnitError("cannot divide carbon intensity by zero")
            return CarbonIntensity(self.grams_per_kwh / float(other))
        return NotImplemented

    def __lt__(self, other: "CarbonIntensity") -> bool:
        if not isinstance(other, CarbonIntensity):
            return NotImplemented
        return self.grams_per_kwh < other.grams_per_kwh

    def __le__(self, other: "CarbonIntensity") -> bool:
        if not isinstance(other, CarbonIntensity):
            return NotImplemented
        return self.grams_per_kwh <= other.grams_per_kwh

    def __repr__(self) -> str:
        if isinstance(self.grams_per_kwh, np.ndarray):
            return _array_repr("CarbonIntensity", self.grams_per_kwh, "g/kWh")
        return f"CarbonIntensity({self.grams_per_kwh:.6g} g/kWh)"
