"""Multi-year data-center fleet simulation.

Reproduces the *mechanism* behind Figures 2 and 11: a growing server
fleet consumes more energy every year, yet renewable procurement drives
the market-based operational carbon toward zero while capex
(new-server manufacturing plus construction amortization) keeps
growing. The simulation emits one report per year with both Scope 2
variants and the opex/capex split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.embodied import EmbodiedModel
from ..errors import SimulationError
from ..tabular import Table
from ..units import JOULES_PER_KWH, SECONDS_PER_YEAR, Carbon, CarbonIntensity, Energy
from .facility import Facility
from .renewable import RenewablePortfolio
from .server import ServerConfig

__all__ = [
    "DRAWABLE_PATHS",
    "FleetFrame",
    "FleetParameters",
    "FleetYearReport",
    "FleetBatchResult",
    "simulate_fleet",
    "check_frame_paths",
    "simulate_fleet_batch",
]


@dataclass(frozen=True)
class FleetParameters:
    """Inputs to the fleet simulation.

    ``renewable_ramp`` maps simulation year index (0-based) to the
    portfolio held that year; missing years reuse the last defined
    portfolio (empty portfolio by default).
    """

    server: ServerConfig
    facility: Facility
    location_intensity: CarbonIntensity
    initial_servers: int
    annual_growth: float
    utilization: float = 0.45
    years: int = 6
    start_year: int = 2014
    renewable_ramp: dict[int, RenewablePortfolio] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.initial_servers <= 0:
            raise SimulationError("initial fleet size must be positive")
        if self.annual_growth < 0.0:
            raise SimulationError("growth rate must be non-negative")
        if not 0.0 <= self.utilization <= 1.0:
            raise SimulationError("utilization must be in [0, 1]")
        if self.years <= 0:
            raise SimulationError("simulation needs at least one year")


@dataclass(frozen=True, slots=True)
class FleetYearReport:
    """One simulated year of fleet operation."""

    year: int
    servers: int
    servers_added: int
    energy: Energy
    opex_location: Carbon
    opex_market: Carbon
    capex: Carbon
    renewable_coverage: float

    @property
    def capex_to_opex_market(self) -> float:
        if self.opex_market.grams == 0.0:
            return float("inf")
        return self.capex.grams / self.opex_market.grams

    @property
    def capex_fraction_market(self) -> float:
        total = self.capex.grams + self.opex_market.grams
        if total == 0.0:
            raise SimulationError("zero total footprint; fraction undefined")
        return self.capex.grams / total


def simulate_fleet(
    params: FleetParameters, embodied: EmbodiedModel | None = None
) -> list[FleetYearReport]:
    """Run the year-by-year fleet simulation.

    Each year the fleet grows by ``annual_growth``; servers older than
    the SKU lifetime are replaced (their replacements count as capex).
    Capex per year = embodied carbon of purchased servers plus the
    facility's construction amortization. Opex per year = facility
    energy (IT energy times PUE) scored at the location intensity and
    at the portfolio's market-based intensity.
    """
    embodied = embodied or EmbodiedModel()
    per_server = params.server.embodied_carbon(embodied)
    reports: list[FleetYearReport] = []
    fleet_size = params.initial_servers
    portfolio = RenewablePortfolio()
    # Age ring: cohort sizes by purchase year, for refresh accounting.
    cohorts: list[int] = [params.initial_servers]
    lifetime = max(int(round(params.server.lifetime_years)), 1)
    for index in range(params.years):
        portfolio = params.renewable_ramp.get(index, portfolio)
        if index == 0:
            purchased = params.initial_servers
        else:
            grown = int(round(fleet_size * (1.0 + params.annual_growth)))
            growth_purchases = grown - fleet_size
            retired = cohorts.pop(0) if len(cohorts) >= lifetime else 0
            purchased = growth_purchases + retired
            fleet_size = grown
            cohorts.append(purchased)
        it_energy = params.server.annual_energy(params.utilization) * float(
            fleet_size
        )
        total_energy = params.facility.facility_energy(it_energy)
        opex_location = params.location_intensity.carbon_for(total_energy)
        coverage = (
            portfolio.coverage(total_energy) if portfolio.contracts else 0.0
        )
        opex_market = (
            portfolio.market_carbon(total_energy, params.location_intensity)
            if portfolio.contracts
            else opex_location
        )
        capex = per_server * float(purchased) + params.facility.construction_per_year()
        reports.append(
            FleetYearReport(
                year=params.start_year + index,
                servers=fleet_size,
                servers_added=purchased,
                energy=total_energy,
                opex_location=opex_location,
                opex_market=opex_market,
                capex=capex,
                renewable_coverage=coverage,
            )
        )
    return reports


@dataclass(frozen=True)
class FleetBatchResult:
    """Struct-of-arrays output of :func:`simulate_fleet_batch`.

    Every per-year field is a ``(scenarios, horizon)`` array where
    ``horizon`` is the longest scenario; cells past a scenario's own
    ``years`` are zero and excluded by :meth:`valid_mask`. Values are
    element-identical to what :func:`simulate_fleet` produces for the
    same :class:`FleetParameters` (pinned by the equivalence tests).
    :func:`simulate_fleet_batch` stores them year-major: each field is
    the transposed view of a ``(horizon, scenarios)`` array, so indexing
    is unchanged but the arrays are Fortran-ordered.
    """

    start_years: np.ndarray
    years: np.ndarray
    servers: np.ndarray
    servers_added: np.ndarray
    energy_joules: np.ndarray
    opex_location_grams: np.ndarray
    opex_market_grams: np.ndarray
    capex_grams: np.ndarray
    renewable_coverage: np.ndarray

    @property
    def num_scenarios(self) -> int:
        return int(self.servers.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.servers.shape[1])

    def valid_mask(self) -> np.ndarray:
        """Boolean ``(scenarios, horizon)`` mask of simulated cells."""
        return np.arange(self.horizon)[None, :] < self.years[:, None]

    def capex_to_opex_market(self) -> np.ndarray:
        """Per-cell capex/market-opex ratio (inf at zero market opex)."""
        return _capex_to_opex(self.capex_grams, self.opex_market_grams)

    def capex_fraction_market(self) -> np.ndarray:
        """Per-cell capex share of the market-based total footprint."""
        return _capex_fraction(self.capex_grams, self._market_totals())

    def _market_totals(self) -> np.ndarray:
        """Per-cell capex + market opex; raises if a simulated one is zero."""
        total = self.capex_grams + self.opex_market_grams
        if np.any((total == 0.0) & self.valid_mask()):
            raise SimulationError("zero total footprint; fraction undefined")
        return total

    def reports(self, scenario: int) -> list[FleetYearReport]:
        """Reconstruct one scenario as scalar :class:`FleetYearReport`s."""
        if not 0 <= scenario < self.num_scenarios:
            raise SimulationError(
                f"scenario index {scenario} out of range "
                f"[0, {self.num_scenarios})"
            )
        span = int(self.years[scenario])
        start = int(self.start_years[scenario])
        return [
            FleetYearReport(
                year=start + index,
                servers=int(self.servers[scenario, index]),
                servers_added=int(self.servers_added[scenario, index]),
                energy=Energy(float(self.energy_joules[scenario, index])),
                opex_location=Carbon(
                    float(self.opex_location_grams[scenario, index])
                ),
                opex_market=Carbon(float(self.opex_market_grams[scenario, index])),
                capex=Carbon(float(self.capex_grams[scenario, index])),
                renewable_coverage=float(
                    self.renewable_coverage[scenario, index]
                ),
            )
            for index in range(span)
        ]

    def to_table(self) -> Table:
        """Long-format table: one row per simulated scenario-year."""
        mask = self.valid_mask()
        scenario_index, year_index = np.nonzero(mask)
        return Table(
            {
                "scenario": scenario_index,
                "year": self.start_years[scenario_index] + year_index,
                "servers": self.servers[mask],
                "servers_added": self.servers_added[mask],
                "energy_gwh": self.energy_joules[mask] / JOULES_PER_KWH / 1e6,
                "opex_location_kt": self.opex_location_grams[mask] / 1e6 / 1e3,
                "opex_market_kt": self.opex_market_grams[mask] / 1e6 / 1e3,
                "capex_kt": self.capex_grams[mask] / 1e6 / 1e3,
                "coverage": self.renewable_coverage[mask],
                "capex_fraction_market": self.capex_fraction_market()[mask],
            }
        )

    def final_year_table(self) -> Table:
        """One row per scenario: its last simulated year.

        The ratio columns are computed on the final year only, but a
        zero total footprint in *any* simulated year still raises, as
        :meth:`capex_fraction_market` does.
        """
        rows = np.arange(self.num_scenarios)
        last = self.years - 1
        capex = self.capex_grams[rows, last]
        opex_market = self.opex_market_grams[rows, last]
        return Table(
            {
                "scenario": rows,
                "year": self.start_years + last,
                "servers": self.servers[rows, last],
                "energy_gwh": self.energy_joules[rows, last] / JOULES_PER_KWH / 1e6,
                "opex_location_kt": self.opex_location_grams[rows, last] / 1e6 / 1e3,
                "opex_market_kt": opex_market / 1e6 / 1e3,
                "capex_kt": capex / 1e6 / 1e3,
                "coverage": self.renewable_coverage[rows, last],
                "capex_fraction_market": _capex_fraction(
                    capex, self._market_totals()[rows, last]
                ),
                "capex_to_opex_market": _capex_to_opex(capex, opex_market),
            }
        )


def _capex_to_opex(capex: np.ndarray, opex_market: np.ndarray) -> np.ndarray:
    """Elementwise capex/market-opex ratio, inf where market opex is zero."""
    zero = opex_market == 0.0
    with np.errstate(divide="ignore"):
        return np.where(zero, np.inf, capex / np.where(zero, 1.0, opex_market))


def _capex_fraction(capex: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Elementwise capex share of ``total``; a zero total divides by one."""
    return capex / np.where(total == 0.0, 1.0, total)


#: The kernel's per-cell inputs that a sweep may replace: dotted
#: :class:`FleetParameters` paths to numeric leaves. The kernel
#: truncates the counts (servers, years, start year) toward zero.
DRAWABLE_PATHS = (
    "initial_servers", "annual_growth", "utilization", "years", "start_year",
    "server.lifetime_years", "server.idle_power.watts_value",
    "server.peak_power.watts_value", "facility.pue",
    "facility.construction_carbon.grams", "facility.lifetime_years",
    "location_intensity.grams_per_kwh",
)

#: The dataclasses' ``__post_init__`` rules as (path, comparison,
#: bound): every cell must satisfy ``comparison(column, bound)``. A
#: string bound names another path's column. Counts must reach 1
#: because the kernel truncates them.
_RULES = (
    ("initial_servers", np.greater_equal, 1),
    ("annual_growth", np.greater_equal, 0.0),
    ("utilization", np.greater_equal, 0.0),
    ("utilization", np.less_equal, 1.0),
    ("years", np.greater_equal, 1),
    ("server.lifetime_years", np.greater, 0.0),
    ("server.peak_power.watts_value", np.greater, 0.0),
    ("server.idle_power.watts_value", np.greater_equal, 0.0),
    ("server.idle_power.watts_value", np.less_equal, "server.peak_power.watts_value"),
    ("facility.pue", np.greater_equal, 1.0),
    ("facility.construction_carbon.grams", np.greater_equal, 0.0),
    ("facility.lifetime_years", np.greater, 0.0),
    ("location_intensity.grams_per_kwh", np.greater_equal, 0.0),
)
_SYMBOLS = {np.greater: ">", np.greater_equal: ">=", np.less_equal: "<="}


def check_frame_paths(paths: Sequence[str]) -> None:
    """Reject duplicate paths and paths outside :data:`DRAWABLE_PATHS`.

    Unknown fields, paths below a numeric leaf and whole objects
    (``server``, which would overlap its leaves) have no column.
    """
    for index, path in enumerate(paths):
        if path in paths[:index]:
            raise SimulationError(f"duplicate override path {path!r}")
        if path not in DRAWABLE_PATHS:
            raise SimulationError(
                f"cannot draw {path!r}: it has no fleet frame column; "
                f"drawable paths are {list(DRAWABLE_PATHS)}"
            )


def _portfolio_schedule(
    ramp: Mapping[int, RenewablePortfolio], width: int
) -> np.ndarray:
    """Per-year (supply_joules, contracted_g_per_kwh), shape ``(2, width)``.

    Holds the last defined portfolio across gap years exactly like the
    scalar loop does. A year holds contracts exactly when its supply is
    positive (every contract's energy is).
    """
    schedule = np.zeros((2, width))
    held = (0.0, 0.0)
    for index in range(width):
        if index in ramp:
            portfolio = ramp[index]
            held = (
                portfolio.annual_supply.joules,
                portfolio.contracted_intensity().grams_per_kwh,
            )
        schedule[:, index] = held
    return schedule


@dataclass(frozen=True)
class FleetFrame:
    """Struct-of-arrays input of :func:`simulate_fleet_batch`.

    ``columns`` holds one ``(cells,)`` array per kernel input: each of
    :data:`DRAWABLE_PATHS`, ``per_server_grams`` (embodied carbon per
    server) and ``ramp``, the cell's row in ``schedule``. ``schedule``
    is ``(2, ramps, width)``: per distinct renewable ramp and year, the
    contracted supply in joules and its g/kWh. It is dense up to the
    last year any cell simulates or any ramp entry names; later years
    hold the final column, as the scalar loop holds the last defined
    portfolio, so a cell's ``years`` can grow without re-expanding its
    ramp.
    """

    columns: dict[str, np.ndarray]
    schedule: np.ndarray

    @property
    def num_cells(self) -> int:
        return len(self.columns["years"])

    @classmethod
    def from_parameters(
        cls,
        scenarios: Sequence[FleetParameters],
        embodied: EmbodiedModel | None = None,
        where: "Callable[[int], str] | None" = None,
    ) -> "FleetFrame":
        """Gather one cell per :class:`FleetParameters`.

        Embodied carbon is computed once per distinct bill of materials,
        which ``dataclasses.replace``-derived SKU variants share. A
        count that truncates below one raises, naming its cell by
        ``where(cell)`` (default ``"scenario {index}"``).
        """
        if not scenarios:
            raise SimulationError("need at least one scenario")
        embodied = embodied or EmbodiedModel()
        columns = {
            path: np.array(list(map(attrgetter(path), scenarios)), dtype=np.float64)
            for path in DRAWABLE_PATHS
        }
        servers = {id(params.server.bill): params.server for params in scenarios}
        grams = {key: s.embodied_carbon(embodied).grams for key, s in servers.items()}
        columns["per_server_grams"] = np.array(
            [grams[id(params.server.bill)] for params in scenarios]
        )
        ramps = {id(p.renewable_ramp): p.renewable_ramp for p in scenarios}
        rows = {key: row for row, key in enumerate(ramps)}
        columns["ramp"] = np.array([rows[id(p.renewable_ramp)] for p in scenarios])
        width = max(
            int(columns["years"].max()),
            *(max(ramp, default=-1) + 1 for ramp in ramps.values()),
        )
        schedule = [_portfolio_schedule(ramp, width) for ramp in ramps.values()]
        frame = cls(columns, np.stack(schedule, axis=1))
        # Float-valued counts pass their dataclass checks but truncate.
        frame._check(("initial_servers", "years"), where or "scenario {}".format)
        return frame

    def repeat(self, count: int) -> "FleetFrame":
        """Every cell repeated ``count`` times in a row (cell-major)."""
        return FleetFrame(
            {k: np.repeat(v, count) for k, v in self.columns.items()}, self.schedule
        )

    def with_paths(
        self,
        values: Mapping[str, np.ndarray],
        where: "Callable[[int], str] | None" = None,
    ) -> "FleetFrame":
        """This frame with ``(cells,)`` values swapped in for some paths.

        New values must be finite and pass the rules the dataclasses'
        ``__post_init__`` enforce; the first cell that breaks one
        raises, named by ``where(cell)`` (default ``"cell {index}"``),
        with its path and value.
        """
        check_frame_paths(list(values))
        columns = dict(self.columns)
        for path, given in values.items():
            columns[path] = np.asarray(given, dtype=np.float64)
            if columns[path].shape != (self.num_cells,):
                raise SimulationError(
                    f"{path!r} needs {self.num_cells} values, "
                    f"got shape {columns[path].shape}"
                )
        frame = FleetFrame(columns, self.schedule)
        frame._check(values, where or "cell {}".format)
        return frame

    def _check(self, paths: Iterable[str], where: Callable[[int], str]) -> None:
        """Raise at the first cell with non-finite ``paths`` or a broken rule."""
        paths = list(paths)
        checks = [(path, "finite", np.isfinite(self.columns[path])) for path in paths]
        for path, compare, bound in _RULES:
            if path in paths or bound in paths:
                limit = self.columns[bound] if isinstance(bound, str) else bound
                checks.append((
                    path,
                    f"{_SYMBOLS[compare]} {bound}",
                    compare(self.columns[path], limit),
                ))
        for path, requirement, kept in checks:
            bad = np.flatnonzero(~kept)
            if bad.size:
                raise SimulationError(
                    f"{where(int(bad[0]))}: {path} = "
                    f"{self.columns[path][bad[0]].item()!r} "
                    f"must be {requirement}"
                )


def simulate_fleet_batch(
    scenarios: "Sequence[FleetParameters] | FleetFrame",
    embodied: EmbodiedModel | None = None,
) -> FleetBatchResult:
    """Run many fleet simulations as one years × scenarios kernel.

    The scalar :func:`simulate_fleet` is the reference implementation;
    this kernel keeps the short year loop in Python and vectorizes the
    wide scenario axis with numpy. The cohort/refresh ring becomes a
    rolling gather on the purchase history: the cohort retired in year
    ``i`` is exactly the one purchased in year ``i - lifetime``.

    ``scenarios`` is a :class:`FleetFrame` or a sequence of
    :class:`FleetParameters`, which :meth:`FleetFrame.from_parameters`
    gathers first (``embodied`` only matters for that gather).
    """
    frame = scenarios
    if not isinstance(frame, FleetFrame):
        frame = FleetFrame.from_parameters(scenarios, embodied)
    column = frame.columns
    initial, years = (
        column[path].astype(np.int64) for path in ("initial_servers", "years")
    )
    count, horizon = frame.num_cells, int(years.max())
    lifetime = np.maximum(np.rint(column["server.lifetime_years"]).astype(np.int64), 1)
    # Same arithmetic order as ServerConfig.power_at/annual_energy and
    # Facility.construction_per_year.
    idle = column["server.idle_power.watts_value"]
    span = column["server.peak_power.watts_value"] - idle
    annual_joules = (idle + span * column["utilization"]) * SECONDS_PER_YEAR
    construction = column["facility.construction_carbon.grams"] * (
        1.0 / column["facility.lifetime_years"]
    )
    growth, pue = column["annual_growth"], column["facility.pue"]
    location = column["location_intensity.grams_per_kwh"]
    per_server = column["per_server_grams"]
    ramp, last_year = column["ramp"], frame.schedule.shape[2] - 1

    # FleetBatchResult's per-year fields, in order, stored year-major:
    # each year writes one contiguous row, only for the cells still
    # simulating, so the rest stay zero. Servers added doubles as the
    # purchase history: a cell only retires cohorts from years it simulated.
    fields = [np.zeros((horizon, count), dtype=np.int64) for _ in range(2)]
    fields += [np.zeros((horizon, count)) for _ in range(5)]
    history, cells = fields[1].reshape(-1), np.arange(count)
    fleet = initial
    for index in range(horizon):
        active = index < years
        if index == 0:
            bought = initial
        else:
            grown = np.rint(fleet.astype(np.float64) * (1.0 + growth)).astype(
                np.int64
            )
            retire_from = index - lifetime
            retired = np.where(
                retire_from >= 0,
                history.take(np.maximum(retire_from, 0) * count + cells),
                0,
            )
            bought = (grown - fleet) + retired
            fleet = np.where(active, grown, fleet)

        total_joules = annual_joules * fleet.astype(np.float64) * pue
        kwh = total_joules / JOULES_PER_KWH
        year_location = location * kwh

        supply, contracted = frame.schedule[:, :, min(index, last_year)].take(
            ramp, axis=1
        )
        has = supply > 0.0
        if np.any(has & active & (total_joules <= 0.0)):
            raise SimulationError("demand must be positive")
        with np.errstate(divide="ignore", invalid="ignore"):
            raw_coverage = np.minimum(
                supply / np.where(total_joules > 0.0, total_joules, 1.0), 1.0
            )
        year_coverage = np.where(has, raw_coverage, 0.0)
        market_intensity = (
            location * (1.0 - year_coverage) + contracted * year_coverage
        )
        year_market = np.where(has, market_intensity * kwh, year_location)
        year_capex = per_server * bought.astype(np.float64) + construction
        values = (
            fleet, bought, total_joules, year_location, year_market,
            year_capex, year_coverage,
        )
        for out, value in zip(fields, values):
            np.copyto(out[index], value, where=active)
    return FleetBatchResult(
        column["start_year"].astype(np.int64), years, *(out.T for out in fields)
    )
