"""FleetFrame: the struct-of-arrays input of the fleet kernel.

Uncertain fleet sweeps build one :class:`FleetParameters` per scenario
and swap each draw's values in as frame columns; deterministic fleet
sweeps (``fleet_scenario_frame``) swap numeric overrides into the
base's one gathered cell. These tests pin both frame paths to per-cell
``apply_overrides`` + ``simulate_fleet_batch`` over a list and to the
scalar ``simulate_fleet``, exactly (``==``), and check that
out-of-range values and undrawable paths raise naming where they came
from, wherever the dataclasses would.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.uncertainty import Normal, Triangular, Uniform
from repro.datacenter.fleet import (
    DRAWABLE_PATHS,
    FleetFrame,
    check_frame_paths,
    simulate_fleet,
    simulate_fleet_batch,
)
from repro.datacenter.server import AI_TRAINING_SERVER
from repro.errors import SimulationError
from repro.scenarios import (
    apply_overrides,
    facebook_like_fleet,
    fleet_scenario_frame,
    sweep_fleet,
    wind_solar_portfolio,
)
from repro.scenarios.runner import _attach_axes, _scalar_axis_names
from repro.uncertainty import build_draw_matrix, sweep_fleet_uncertain

_BASE = facebook_like_fleet()

#: Scenario bases: the preset, a fleet without renewables, and a short
#: fleet whose ramp names a year past every base's horizon (drawn
#: ``years`` must pick it up, as the scalar loop would).
_BASES = (
    _BASE,
    dataclasses.replace(_BASE, annual_growth=0.1, renewable_ramp={}),
    dataclasses.replace(
        _BASE,
        years=3,
        renewable_ramp={0: wind_solar_portfolio(30.0, 0.0),
                        7: wind_solar_portfolio(900.0, 50.0)},
    ),
)

#: A valid value range per drawable path. Counts are drawn as floats
#: on purpose: the kernel truncates them like an int64 gather.
_RANGES = {
    "initial_servers": (1.0, 80_000.0),
    "annual_growth": (0.0, 1.0),
    "utilization": (0.0, 1.0),
    "years": (1.0, 10.0),
    "start_year": (2000.0, 2030.0),
    "server.lifetime_years": (0.5, 8.0),
    # A positive idle floor keeps demand positive under the renewable ramp.
    "server.idle_power.watts_value": (1.0, 200.0),
    "server.peak_power.watts_value": (300.0, 900.0),
    "facility.pue": (1.0, 2.0),
    "facility.construction_carbon.grams": (0.0, 2e11),
    "facility.lifetime_years": (1.0, 40.0),
    "location_intensity.grams_per_kwh": (0.0, 900.0),
}
_COUNTS = frozenset({"initial_servers", "years", "start_year"})


def _frame_batch(bases, values, draws):
    frame = FleetFrame.from_parameters(bases).repeat(draws)
    return simulate_fleet_batch(
        frame.with_paths({path: grid.reshape(-1) for path, grid in values.items()})
    )


def _cell(bases, values, scenario, draw, *, counts_as_int=False):
    point = {}
    for path, grid in values.items():
        value = float(grid[scenario, draw])
        point[path] = int(value) if counts_as_int and path in _COUNTS else value
    return apply_overrides(bases[scenario], point)


@st.composite
def _drawn_values(draw):
    paths = draw(
        st.lists(st.sampled_from(DRAWABLE_PATHS), unique=True, max_size=6)
    )
    draws = draw(st.integers(min_value=1, max_value=3))
    values = {}
    for path in paths:
        low, high = _RANGES[path]
        cells = draw(st.lists(
            st.floats(min_value=low, max_value=high),
            min_size=len(_BASES) * draws, max_size=len(_BASES) * draws,
        ))
        values[path] = np.array(cells).reshape(len(_BASES), draws)
    return values, draws


class TestFramePathEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_drawn_values())
    def test_frame_matches_per_cell_dataclasses(self, drawn):
        values, draws = drawn
        batch = _frame_batch(_BASES, values, draws)
        cells = [
            _cell(_BASES, values, scenario, draw)
            for scenario in range(len(_BASES))
            for draw in range(draws)
        ]
        reference = simulate_fleet_batch(cells)
        for field in dataclasses.fields(batch):
            mine = getattr(batch, field.name)
            theirs = getattr(reference, field.name)
            assert mine.dtype == theirs.dtype, field.name
            assert np.array_equal(mine, theirs), field.name
        for index, cell in enumerate(cells):
            scenario, draw = divmod(index, draws)
            scalar = _cell(_BASES, values, scenario, draw, counts_as_int=True)
            assert batch.reports(index) == simulate_fleet(scalar)
            assert batch.reports(index) == reference.reports(index)

    def test_no_drawn_paths_repeats_the_scenarios(self):
        batch = _frame_batch(_BASES, {}, 2)
        single = simulate_fleet_batch(list(_BASES))
        for index in range(len(_BASES) * 2):
            assert batch.reports(index) == single.reports(index // 2)

    def test_ramp_years_past_a_cell_are_never_read(self):
        # A dark fleet (zero demand) whose ramp starts after its last
        # year: the scalar loop never sees the contract, so the batch
        # must not raise "demand must be positive" for it either.
        dark = apply_overrides(
            _BASE,
            {"server.idle_power": _BASE.server.idle_power * 0.0,
             "utilization": 0.0, "years": 2,
             "renewable_ramp": {3: wind_solar_portfolio(10.0, 0.0)}},
        )
        batch = simulate_fleet_batch([dark, _BASE])
        assert batch.reports(0) == simulate_fleet(dark)

    def test_sweep_draws_years_and_counts(self):
        records = [{
            "years": Uniform(2.0, 8.0),
            "initial_servers": Normal(9000.0, 500.0),
            "start_year": Triangular(2010.0, 2014.0, 2016.0),
            "facility.lifetime_years": Uniform(10.0, 30.0),
        }]
        result = sweep_fleet_uncertain(_BASE, records, draws=5, seed=3)
        matrix = build_draw_matrix(records, 5, seed=3)
        for draw in range(5):
            final = simulate_fleet(
                _cell([_BASE], matrix.values, 0, draw, counts_as_int=True)
            )[-1]
            capex = result.samples_for("capex_kt")[0, draw]
            assert capex == final.capex.kilotonnes_value
            assert result.samples_for("servers")[0, draw] == final.servers


class TestFrameValidation:
    @pytest.mark.parametrize(
        ("path", "value", "rule"),
        [
            ("utilization", 1.2, "utilization = 1.2 must be <= 1.0"),
            ("facility.pue", 0.9, "facility.pue = 0.9 must be >= 1.0"),
            ("annual_growth", -0.1, "annual_growth = -0.1 must be >= 0.0"),
            ("server.lifetime_years", 0.0,
             "server.lifetime_years = 0.0 must be > 0.0"),
            ("facility.lifetime_years", -1.0,
             "facility.lifetime_years = -1.0 must be > 0.0"),
            ("initial_servers", 0.5, "initial_servers = 0.5 must be >= 1"),
            ("years", 0.0, "years = 0.0 must be >= 1"),
            ("server.idle_power.watts_value", 500.0,
             "server.idle_power.watts_value = 500.0 must be <= "
             "server.peak_power.watts_value"),
            ("facility.pue", float("inf"), "facility.pue = inf must be finite"),
        ],
    )
    def test_out_of_range_draw_names_scenario_draw_and_path(
        self, path, value, rule
    ):
        frame = FleetFrame.from_parameters(list(_BASES)).repeat(4)
        column = np.array(frame.columns[path])
        column[6] = value  # scenario 1, draw 2
        with pytest.raises(SimulationError) as raised:
            frame.with_paths(
                {path: column},
                where=lambda cell: f"scenario {cell // 4}, draw {cell % 4}",
            )
        assert str(raised.value).startswith(f"scenario 1, draw 2: {rule}")

    def test_sweep_error_uses_global_scenario_index(self):
        records = [
            {"facility.pue": Uniform(1.0, 1.2)},
            {"facility.pue": Uniform(0.5, 0.6)},
        ]
        # Chunks of one scenario: the second chunk still says "scenario 1".
        with pytest.raises(SimulationError, match=r"^scenario 1, draw 0: facility"):
            sweep_fleet_uncertain(_BASE, records, draws=3, chunk_size=1)
        # A fixed count that truncates to zero is caught at the gather.
        records = [{**record, "years": years}
                   for record, years in zip(records, (3, 0.5))]
        records[1]["facility.pue"] = Uniform(1.0, 1.2)
        with pytest.raises(SimulationError, match=r"^scenario 1: years = 0.5"):
            sweep_fleet_uncertain(_BASE, records, draws=3, chunk_size=1)

    def test_undrawable_path_lists_the_drawable_ones(self):
        records = [{"server.bill.dram_gb": Uniform(64.0, 512.0)}]
        with pytest.raises(SimulationError) as raised:
            sweep_fleet_uncertain(_BASE, records, draws=2)
        message = str(raised.value)
        assert "'server.bill.dram_gb'" in message
        for path in DRAWABLE_PATHS:
            assert path in message

    def test_shape_mismatch_rejected(self):
        frame = FleetFrame.from_parameters([_BASE])
        with pytest.raises(SimulationError, match="needs 1 values"):
            frame.with_paths({"utilization": np.array([0.4, 0.5])})

    def test_float_counts_that_truncate_to_zero_rejected(self):
        with pytest.raises(SimulationError, match="initial_servers = 0.5"):
            FleetFrame.from_parameters(
                [apply_overrides(_BASE, {"initial_servers": 0.5})]
            )


class TestFramePaths:
    """Path validation, ported from the removed ``OverridePlan``."""

    def test_path_validation_ported_from_override_plan(self):
        check_frame_paths(["utilization", "facility.pue"])
        with pytest.raises(SimulationError, match="'not_a_field'"):
            check_frame_paths(["not_a_field"])
        with pytest.raises(SimulationError, match="'server.not_a_field'"):
            check_frame_paths(["server.not_a_field"])
        with pytest.raises(SimulationError, match="'annual_growth.too_deep'"):
            check_frame_paths(["annual_growth.too_deep"])
        with pytest.raises(SimulationError, match="duplicate override path"):
            check_frame_paths(["utilization", "utilization"])
        # A whole object would overlap its leaves' paths.
        with pytest.raises(SimulationError, match="'server'"):
            check_frame_paths(["server", "server.lifetime_years"])

    def test_with_paths_validates_paths(self):
        frame = FleetFrame.from_parameters([_BASE])
        with pytest.raises(SimulationError, match="drawable paths are"):
            frame.with_paths({"facility.puee": np.array([1.2])})


#: Deterministic sweep records mixing both frame paths: numeric
#: overrides (ints, floats, truncating counts, years past the base
#: ramp) swap columns; names, ramps and whole objects are gathered.
_RECORDS = [
    {},
    {"facility.pue": 1.3},
    {"years": 5.0, "initial_servers": 40000},
    {"facility.name": "elsewhere", "facility.pue": 1.2},
    {"years": 9, "utilization": 0.6},
    {"renewable_ramp": {0: wind_solar_portfolio(30.0, 0.0),
                        7: wind_solar_portfolio(900.0, 50.0)}, "years": 3},
    {"server": AI_TRAINING_SERVER, "annual_growth": 0.1},
    {"server.idle_power.watts_value": 80, "server.peak_power.watts_value": 500.5},
    {"server.bill.dram_gb": 512.0},
    {"initial_servers": 7.9, "start_year": 2020},
]


#: The records above that only set numbers on frame columns.
_NUMERIC_RECORDS = [
    record for record in _RECORDS
    if all(
        path in DRAWABLE_PATHS and isinstance(value, (int, float))
        for path, value in record.items()
    )
]
_BASE_FRAME = FleetFrame.from_parameters([_BASE])


def _per_scenario_oracle(base, records):
    """The per-scenario dataclass path ``sweep_fleet`` used to take."""
    batch = simulate_fleet_batch([apply_overrides(base, r) for r in records])
    return _attach_axes(
        records, batch.final_year_table(), keep=_scalar_axis_names(records)
    )


def _rejects(build) -> bool:
    """Whether ``build`` refuses its value (a gather may fail past the rules)."""
    try:
        build()
    except Exception:
        return True
    return False


class TestScenarioFrame:
    @pytest.mark.parametrize(
        "records", [_RECORDS, _NUMERIC_RECORDS], ids=["gathered", "swapped"]
    )
    def test_frame_matches_per_scenario_dataclasses(self, records):
        frame = fleet_scenario_frame(_BASE, _BASE_FRAME, records)
        batch = simulate_fleet_batch(frame)
        reference = simulate_fleet_batch(
            [apply_overrides(_BASE, record) for record in records]
        )
        for field in dataclasses.fields(batch):
            mine = getattr(batch, field.name)
            theirs = getattr(reference, field.name)
            assert mine.dtype == theirs.dtype, field.name
            assert np.array_equal(mine, theirs), field.name

    # Mixed chunks gather every record; all-numeric chunks swap.
    @pytest.mark.parametrize(
        "records", [_RECORDS, _NUMERIC_RECORDS], ids=["mixed", "numeric"]
    )
    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_sweep_fleet_matches_the_per_scenario_oracle(
        self, chunk_size, records
    ):
        table = sweep_fleet(_BASE, records, chunk_size=chunk_size)
        oracle = _per_scenario_oracle(_BASE, records)
        assert table.column_names == oracle.column_names
        for name in oracle.column_names:
            assert table.column(name) == oracle.column(name), name

    def test_swapped_error_names_its_scenario(self):
        records = [{"facility.pue": 1.3}, {"facility.pue": 1.2},
                   {"facility.pue": 0.9}]
        with pytest.raises(SimulationError, match=r"^scenario 2: facility.pue"):
            fleet_scenario_frame(_BASE, _BASE_FRAME, records)

    @pytest.mark.parametrize(
        "records",
        [
            [{"facility.pue": 1.2}] * 5 + [{"facility.pue": 0.5}],
            [{"facility.name": "dc", "years": 3}] * 5
            + [{"facility.name": "dc", "years": 0.5}],
        ],
        ids=["swapped", "gathered"],
    )
    def test_sharded_sweep_error_names_the_global_scenario(self, records):
        messages = []
        for options in ({}, {"chunk_size": 2}, {"chunk_size": 2, "jobs": 2}):
            with pytest.raises(SimulationError) as raised:
                sweep_fleet(_BASE, records, **options)
            messages.append(str(raised.value))
        assert messages[0].startswith("scenario 5: ")
        assert messages == [messages[0]] * 3

    @pytest.mark.parametrize("path", DRAWABLE_PATHS)
    def test_with_paths_rejects_what_the_dataclasses_reject(self, path):
        base_frame = _BASE_FRAME
        rejected = []
        for value in (-1.0, 0.0, 0.5, 1.0, 1.5, 250.0, 1e4,
                      math.inf, -math.inf, math.nan):
            dataclasses_reject = _rejects(
                lambda: apply_overrides(_BASE, {path: value})
            )
            gather_rejects = _rejects(lambda: FleetFrame.from_parameters(
                [apply_overrides(_BASE, {path: value})]
            ))
            frame_rejects = _rejects(
                lambda: base_frame.with_paths({path: np.array([value])})
            )
            if dataclasses_reject:
                rejected.append(value)
                assert frame_rejects, value
            if math.isfinite(value):
                # Finite values: both paths agree either way.
                assert frame_rejects == gather_rejects, value
        # Every path but the start year has a rule the values exercise.
        assert rejected or path == "start_year"
