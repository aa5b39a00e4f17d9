"""The portfolio kernel evaluates each stage on its distinct columns.

``repro.portfolio.batch._metrics`` prices the fab and yield stage once
per distinct column of the scenario fields it reads, the use, lifetime
and replacement stages likewise, and the sweep extracts one exact
expansion per distinct column of each reduced quantity. These tests pin
what that must not change: a sweep equals (``==``) the row-wise stack
of one-record sweeps, where no column can be shared; errors name the
device and scenario cell that the one-record oracle names; and the
work is bounded by the distinct columns, not the cells.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.portfolio.batch as batch
import repro.portfolio.sweep as sweep
from repro.analysis.uncertainty import Triangular, Uniform
from repro.errors import SimulationError
from repro.portfolio import (
    default_catalog,
    sweep_portfolio,
    sweep_portfolio_uncertain,
)
from repro.portfolio.sweep import PORTFOLIO_METRICS
from repro.scenarios import ScenarioGrid, ScenarioSet

_CATALOG = default_catalog()

#: Values per overridable field, ``±0.0`` wherever a field takes zero.
_FIELD_VALUES = {
    "node_shift": [0.0, -0.0, 1.0, -1.0, 2.0],
    "non_ic_kg": [0.0, -0.0, 12.5],
    "abatement_coverage": [0.0, -0.0, 0.6],
    "standby_power_w": [0.0, -0.0, 0.03],
    "fab_intensity_g_per_kwh": [583.0, 250.0, 100.0],
    "defect_density_scale": [0.5, 1.0, 1.3],
    "lifetime_scale": [1.0, 1.25, 1.5],
    "use_intensity_g_per_kwh": [450.0, 120.0],
    "replacement_cycle_years": [2.0, 3.5],
    "node": ["28nm", "7nm", "5nm"],
}

#: Distributions for the drawn axes of the uncertain sweeps.
_DRAWN = {
    "lifetime_scale": [Triangular(0.8, 1.0, 1.4), Uniform(0.9, 1.6)],
    "defect_density_scale": [Triangular(0.7, 1.0, 1.5)],
    "fab_intensity_g_per_kwh": [Uniform(100.0, 600.0)],
}


def _rows(table, index: int) -> dict:
    return {name: table.column(name)[index] for name in table.column_names}


def _bits(value):
    """Floats by bit pattern, so ``-0.0`` and ``0.0`` compare unequal."""
    if isinstance(value, float):
        return np.float64(value).view(np.uint64).item()
    return value


@st.composite
def _catalogs(draw) -> tuple:
    picks = draw(
        st.lists(
            st.sampled_from(range(len(_CATALOG))), min_size=1, max_size=4
        )
    )
    return tuple(
        dataclasses.replace(
            _CATALOG[pick], name=f"{_CATALOG[pick].name}_{slot}"
        )
        for slot, pick in enumerate(picks)
    )


@st.composite
def _records(draw) -> list:
    """Zipped records over a few fields, with duplicated records."""
    fields = draw(
        st.lists(
            st.sampled_from(sorted(_FIELD_VALUES)), max_size=4, unique=True
        )
    )
    count = draw(st.integers(1, 6))
    records = [
        {name: draw(st.sampled_from(_FIELD_VALUES[name])) for name in fields}
        for _ in range(count)
    ]
    repeats = draw(st.lists(st.sampled_from(range(count)), max_size=3))
    return records + [dict(records[index]) for index in repeats]


class TestOneRecordOracle:
    @given(catalog=_catalogs(), records=_records())
    @settings(max_examples=60, deadline=None)
    def test_point_sweep_stacks_one_record_sweeps(self, catalog, records):
        table = sweep_portfolio(catalog, ScenarioSet(records))
        for index, record in enumerate(records):
            alone = sweep_portfolio(catalog, [record])
            assert _rows(table, index) == _rows(alone, 0), record
            for name, value in record.items():
                assert _bits(table.column(name)[index]) == _bits(value)

    @given(
        catalog=_catalogs(),
        node_shift=st.lists(
            st.sampled_from([0.0, -0.0, 2.0]), min_size=1, max_size=3
        ),
        fab=st.lists(st.sampled_from([583.0, 100.0]), min_size=1, max_size=2),
        lifetime=st.lists(st.sampled_from([1.0, 1.5]), min_size=1, max_size=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_cartesian_grid_stacks_one_record_sweeps(
        self, catalog, node_shift, fab, lifetime
    ):
        grid = ScenarioGrid(
            node_shift=node_shift,
            fab_intensity_g_per_kwh=fab,
            lifetime_scale=lifetime,
        )
        table = sweep_portfolio(catalog, grid)
        for index, record in enumerate(grid):
            alone = sweep_portfolio(catalog, [record])
            assert _rows(table, index) == _rows(alone, 0), record

    @given(
        catalog=_catalogs(),
        drawn=st.lists(
            st.sampled_from(sorted(_DRAWN)), min_size=1, max_size=2, unique=True
        ),
        point=st.lists(
            st.sampled_from(
                ["node_shift", "non_ic_kg", "node", "use_intensity_g_per_kwh"]
            ),
            max_size=2,
            unique=True,
        ),
        count=st.integers(1, 4),
        draws=st.integers(1, 6),
        seed=st.integers(0, 2**10),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_uncertain_sweep_stacks_one_record_sweeps(
        self, catalog, drawn, point, count, draws, seed, data
    ):
        records = []
        for _ in range(count):
            record = {}
            for name in drawn:
                # A drawn axis may hold a plain number in some scenarios.
                choices = _DRAWN[name] + _FIELD_VALUES[name][:1]
                record[name] = data.draw(st.sampled_from(choices))
            for name in point:
                record[name] = data.draw(st.sampled_from(_FIELD_VALUES[name]))
            records.append(record)
        records.append(dict(records[0]))
        result = sweep_portfolio_uncertain(
            catalog, records, draws=draws, seed=seed
        )
        for index, record in enumerate(records):
            alone = sweep_portfolio_uncertain(
                catalog, [record], draws=draws, seed=seed
            )
            for metric in PORTFOLIO_METRICS:
                assert np.array_equal(
                    result.samples[metric][index], alone.samples[metric][0]
                ), (metric, record)


def _layout(params: dict) -> "batch._ColumnLayout":
    return batch._ColumnLayout(params, np.zeros((1, 1)), set(params))


def _inverse(layout, *fields: str) -> list:
    return layout.columns(frozenset(fields))[1].tolist()


class TestDistinctColumns:
    def test_signed_zeros_are_distinct_columns(self):
        layout = _layout({"non_ic_kg": np.array([[0.0, -0.0, 0.0, 1.0, -0.0]])})
        first, inverse = layout.columns(frozenset({"non_ic_kg", "units"}))
        assert first.tolist() == [0, 1, 3]
        assert inverse.tolist() == [0, 1, 0, 2, 1]

    def test_columns_follow_first_appearance(self):
        layout = _layout({
            "node_shift": np.array([[2.0, 0.0, 2.0, 0.0]]),
            "lifetime_scale": np.array([[1.0, 1.0, 1.5, 1.5]]),
        })
        assert _inverse(layout, "node_shift") == [0, 1, 0, 1]
        assert _inverse(layout, "lifetime_scale") == [0, 0, 1, 1]
        assert _inverse(layout, "node_shift", "lifetime_scale") == [0, 1, 2, 3]
        assert _inverse(layout, "units") == [0, 0, 0, 0]
        assert layout.columns(frozenset({"units"}))[0].tolist() == [0]


def _oracle_error(catalog, records) -> str:
    """The first (device, cell) error, device-major, from one-by-one sweeps."""
    for spec in catalog:
        for cell, record in enumerate(records):
            try:
                sweep_portfolio([spec], [record])
            except SimulationError as error:
                message = str(error)
                assert "scenario cell 0" in message
                return message.replace(
                    "scenario cell 0", f"scenario cell {cell}"
                )
    raise AssertionError("the oracle found no failing cell")


#: The catalog with its third device's die larger than any wafer.
_OVERSIZED = (
    *_CATALOG[:2],
    dataclasses.replace(_CATALOG[2], die_area_mm2=80_000.0),
    *_CATALOG[3:],
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestErrorLocation:
    def _assert_same_error(self, records, catalog=_CATALOG):
        expected = _oracle_error(catalog, records)
        with pytest.raises(SimulationError) as caught:
            sweep_portfolio(catalog, records)
        assert str(caught.value) == expected

    def test_zero_good_dies_names_device_and_cell(self):
        # Poisson yield underflows to zero only for the last device, at
        # cells 2 and 3, which share the fab column of the high defect
        # scale: the error must name cell 2, not that column.
        grid = list(
            ScenarioGrid(
                defect_density_scale=[1.0, 1e5], lifetime_scale=[1.0, 2.0]
            )
        )
        self._assert_same_error(grid)
        assert "'feature_phone'" in _oracle_error(_CATALOG, grid)
        assert "scenario cell 2" in _oracle_error(_CATALOG, grid)

    def test_non_finite_break_even_names_device_and_cell(self):
        # Daily use underflows to zero at the tiny use intensity, so
        # break-even days divide by zero. Cell 2 shares its fab column
        # with the healthy cells 0 and 1, and its break-even column is 1.
        grid = list(
            ScenarioGrid(
                node_shift=[0.0, 1.0],
                use_intensity_g_per_kwh=[450.0, 5e-324],
                lifetime_scale=[1.0, 2.0],
            )
        )
        self._assert_same_error(grid)
        message = _oracle_error(_CATALOG, grid)
        assert "'break_even_days'" in message and "scenario cell 2" in message

    def test_zipped_failure_after_shared_columns(self):
        records = list(
            ScenarioSet.zipped(
                node_shift=[0.0, 1.0, 0.0, 1.0],
                use_intensity_g_per_kwh=[450.0, 450.0, 300.0, 5e-324],
            )
        )
        self._assert_same_error(records)
        assert "scenario cell 3" in _oracle_error(_CATALOG, records)

    def test_zero_good_dies_when_only_unread_fab_fields_vary(self):
        # Only the fab intensity varies: yield reads none of the varying
        # fields, so its one column must stand for every cell.
        records = list(ScenarioGrid(fab_intensity_g_per_kwh=[100.0, 200.0]))
        self._assert_same_error(records, _OVERSIZED)
        message = _oracle_error(_OVERSIZED, records)
        assert f"'{_CATALOG[2].name}'" in message
        assert "zero good dies" in message and "scenario cell 0" in message

    def test_uncertain_zero_good_dies_on_a_drawn_fab_axis(self):
        records = [
            {"fab_intensity_g_per_kwh": Uniform(100.0, 600.0)},
            {"fab_intensity_g_per_kwh": 250.0},
        ]
        options = {"draws": 4, "seed": 7}
        expected = None
        for spec in _OVERSIZED:
            try:
                sweep_portfolio_uncertain([spec], records, **options)
            except SimulationError as error:
                expected = str(error)
                break
        assert expected is not None and "zero good dies" in expected
        with pytest.raises(SimulationError) as caught:
            sweep_portfolio_uncertain(_OVERSIZED, records, **options)
        assert str(caught.value) == expected


def _spy(monkeypatch, module, name: str) -> list:
    """Record the column count of every call to ``module.name``."""
    calls: list = []
    original = getattr(module, name)

    def spy(*arrays):
        calls.append(np.broadcast_shapes(*(np.shape(a) for a in arrays))[1])
        return original(*arrays)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestWorkBound:
    """Work counts, not timings: independent of host speed."""

    def test_4x4x4_grid_prices_distinct_columns(self, monkeypatch):
        grid = ScenarioGrid(
            node_shift=[0.0, 1.0, 2.0, 3.0],
            fab_intensity_g_per_kwh=[583.0, 400.0, 250.0, 100.0],
            lifetime_scale=[1.0, 1.1, 1.25, 1.5],
        )
        catalog = tuple(
            dataclasses.replace(spec, name=f"{spec.name}_{spin}")
            for spin in range(10)
            for spec in _CATALOG
        )
        chunk = 40
        # Chunks must take the extraction path, not ship their rows raw.
        assert chunk * len(grid) > sweep._RAW_VALUES
        yields = _spy(monkeypatch, batch, "murphy_yield")
        extractions = _spy(monkeypatch, sweep, "_exact_partials")
        table = sweep_portfolio(catalog, grid, chunk_size=chunk)
        assert table.num_rows == 64
        chunks = -(-len(catalog) // chunk)
        assert len(yields) == chunks
        assert max(yields) <= 16
        # embodied, break-even, use, annual, units.
        assert len(extractions) == 5 * chunks
        for start in range(0, len(extractions), 5):
            assert sum(extractions[start:start + 5]) <= 16 + 16 + 4 + 64 + 1
