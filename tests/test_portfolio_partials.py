"""Exact per-cell partials: the portfolio sweeps' streaming reduction.

Each portfolio chunk reduces its devices to an exact expansion per cell
(:func:`repro.portfolio.sweep._exact_partials`), and the sweep runs one
``math.fsum`` per cell over every chunk's expansion. These tests pin the
three promises that rest on it: merged expansions equal ``math.fsum``
over the raw rows (``==``, including its inf/nan/overflow behaviour);
a chunk result grows with the cell count, not the device count, so
``chunk_size`` bounds memory; and skip mode aggregates exactly the
surviving devices.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import pickle

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.analysis.uncertainty import Triangular
from repro.exec import FailureReport, FaultRule, FaultSpec, install_faults
from repro.portfolio import (
    default_catalog,
    sweep_portfolio,
    sweep_portfolio_uncertain,
)
from repro.portfolio.batch import _device_columns
from repro.portfolio.sweep import (
    _MAX_LEVELS,
    _RAW_VALUES,
    _exact_partials,
    _portfolio_chunk,
)
from repro.scenarios import ScenarioGrid

_INF = math.inf
_NAN = math.nan

_CATALOG = default_catalog()

_GRID = ScenarioGrid(
    **{
        "node_shift": [0.0, 1.0, 2.0, 3.0],
        "fab_intensity_g_per_kwh": [583.0, 100.0],
        "lifetime_scale": [1.0, 1.5],
    }
)


def _spun_catalog(copies: int) -> tuple:
    """``copies`` spins of the default catalog, die area wobbled per spin."""
    base = default_catalog()
    return tuple(
        dataclasses.replace(
            spec,
            name=f"{spec.name}_{spin}",
            die_area_mm2=spec.die_area_mm2 * (1.0 + 0.1 * (spin % 7) / 7.0),
            units=spec.units / copies,
        )
        for spin in range(copies)
        for spec in base
    )


#: Fails the chunk starting at device 3, on every attempt.
_SKIP_FAULT = FaultSpec(rules=(FaultRule(kind="raise", starts=(3,), attempts=None),))


def _fsum_outcome(values) -> tuple:
    """``math.fsum`` as a comparable value: its result or its error type."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError) as error:
        return (type(error),)
    return ("nan",) if math.isnan(total) else (total,)


def _merged_outcomes(blocks: "list[np.ndarray]") -> list:
    """Per-column ``fsum`` over the concatenated expansions of ``blocks``."""
    partials = [_exact_partials(block) for block in blocks]
    return [
        _fsum_outcome(itertools.chain.from_iterable(p[col] for p in partials))
        for col in range(blocks[0].shape[1])
    ]


def _row_outcomes(matrix: np.ndarray) -> list:
    return [_fsum_outcome(matrix[:, col].tolist()) for col in range(matrix.shape[1])]


def _split(matrix: np.ndarray, cuts: "list[int]") -> "list[np.ndarray]":
    bounds = [0, *sorted(set(cut % len(matrix) for cut in cuts) - {0}), len(matrix)]
    return [matrix[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
#: Finite values small enough that no sum of up to 60 of them overflows.
_BOUNDED = st.floats(min_value=-1e300, max_value=1e300)


def _matrices(elements) -> st.SearchStrategy:
    return st.integers(1, 3).flatmap(
        lambda cols: st.lists(
            st.lists(elements, min_size=cols, max_size=cols),
            min_size=1,
            max_size=60,
        )
    ).map(lambda rows: np.array(rows, dtype=np.float64))


class TestExactPartials:
    @given(matrix=_matrices(_ANY_FLOAT))
    @settings(max_examples=300, deadline=None)
    @example(matrix=np.array([[1e16], [1.0], [1.0], [1.0], [-1e16]]))
    @example(matrix=np.array([[1e300], [1e-300], [-1e300], [3e-300], [-7e-301]]))
    @example(matrix=np.array([[5e-324, 1e-310], [5e-324, -2.2e-308], [1e-320, 0.0]]))
    @example(matrix=np.array([[0.0, -0.0], [0.0, -0.0]]))
    @example(matrix=np.array([[1.5, -0.0, 7e200]]))
    @example(matrix=np.array([[_INF], [1.0], [-_INF]]))
    @example(matrix=np.array([[_INF, _NAN], [_INF, 2.0]]))
    @example(matrix=np.array([[1e308], [1e308], [-1e308]]))
    @example(matrix=np.array([[1.7e308], [-1.7e308], [5.0]]))
    def test_one_block_matches_fsum(self, matrix):
        assert _merged_outcomes([matrix]) == _row_outcomes(matrix)

    @given(
        matrix=_matrices(st.one_of(_BOUNDED, st.sampled_from([_INF, -_INF, _NAN]))),
        cuts=st.lists(st.integers(0, 59), max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_blocking_matches_fsum(self, matrix, cuts):
        assert _merged_outcomes(_split(matrix, cuts)) == _row_outcomes(matrix)

    @given(
        exponents=st.lists(st.integers(-300, 300), min_size=2, max_size=40),
        signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=40, max_size=40),
        cuts=st.lists(st.integers(0, 59), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_wide_exponent_spread_matches_fsum(self, exponents, signs, cuts):
        values = [sign * 1.2345 * 10.0**e for sign, e in zip(signs, exponents)]
        # Cancelling the larger half leaves a sum the smallest values decide.
        column = sorted(values, key=abs)[::-1]
        column += [-value for value in column[: len(column) // 2]]
        matrix = np.array(column).reshape(-1, 1)
        assert _merged_outcomes(_split(matrix, cuts)) == _row_outcomes(matrix)

    def test_level_cap_ships_leftover_residuals(self):
        # Ten cancelling pairs take about two levels each; only the 1.0
        # survives, below every level the cap allows.
        column = [
            sign * 3.0 * 10.0 ** (280 - 20 * k)
            for k in range(10)
            for sign in (1.0, -1.0)
        ] + [1.0]
        (partial,) = _exact_partials(np.array(column).reshape(-1, 1))
        assert len(partial) > _MAX_LEVELS
        assert math.fsum(partial) == math.fsum(column) == 1.0

    def test_portfolio_magnitudes_need_few_levels(self):
        columns = _device_columns(_spun_catalog(125))
        assert 1000 * len(_GRID) > _RAW_VALUES
        _, partials = _portfolio_chunk((columns, list(_GRID)), 0, 1000)
        for name, cells in partials.items():
            assert max(len(parts) for parts in cells) <= 3, name


class TestReductionPaths:
    def test_raw_and_extracted_chunks_agree_bit_for_bit(self):
        catalog = _spun_catalog(125)
        # 100-device chunks ship their rows raw (the plain fsum over
        # rows); 300- and 1000-device chunks ship extracted expansions.
        assert 100 * len(_GRID) <= _RAW_VALUES < 300 * len(_GRID)
        raw = sweep_portfolio(catalog, _GRID, chunk_size=100)
        for chunk_size in (300, 1000):
            extracted = sweep_portfolio(catalog, _GRID, chunk_size=chunk_size)
            for name in raw.column_names:
                assert extracted.column(name) == raw.column(name), name


class TestChunkMemoryBound:
    def test_chunk_result_scales_with_cells_not_devices(self):
        payload = (_device_columns(_spun_catalog(125)), list(_GRID))
        small = pickle.dumps(_portfolio_chunk(payload, 0, 10))
        large = pickle.dumps(_portfolio_chunk(payload, 0, 1000))
        # 100x the devices; a per-device result would be ~100x larger.
        assert len(large) < 1.5 * len(small)
        wide = pickle.dumps(
            _portfolio_chunk((payload[0], list(_GRID) * 4), 0, 10)
        )
        assert len(wide) > 3 * len(small)


class TestSkipMode:
    def test_point_sweep_aggregates_surviving_devices(self):
        report = FailureReport()
        with install_faults(_SKIP_FAULT):
            table = sweep_portfolio(
                _CATALOG, _GRID, chunk_size=3, retries=0, skip=report
            )
        assert report.num_failed == 1
        survivors = sweep_portfolio(_CATALOG[:3] + _CATALOG[6:], _GRID)
        assert table.column_names == survivors.column_names
        for name in table.column_names:
            assert table.column(name) == survivors.column(name), name

    def test_uncertain_sweep_aggregates_surviving_devices(self):
        grid = ScenarioGrid(
            **{"node_shift": [0.0, 2.0], "lifetime_scale": [Triangular(0.8, 1.0, 1.4)]}
        )
        report = FailureReport()
        with install_faults(_SKIP_FAULT):
            result = sweep_portfolio_uncertain(
                _CATALOG, grid, draws=5, seed=2, chunk_size=3, retries=0,
                skip=report,
            )
        assert report.num_failed == 1
        survivors = sweep_portfolio_uncertain(
            _CATALOG[:3] + _CATALOG[6:], grid, draws=5, seed=2
        )
        assert set(result.samples) == set(survivors.samples)
        for metric, samples in survivors.samples.items():
            assert np.array_equal(result.samples[metric], samples), metric
