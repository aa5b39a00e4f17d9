"""Engine equivalence: vectorized kernels == row-at-a-time semantics.

The numpy-backed Table engine and the prefix-sum schedulers must be
drop-in replacements: same values, same Python types, same ordering as
the original pure-Python implementations. These property-style tests
pit every vectorized kernel against a reference implementation of the
seed semantics on randomized tables mixing int/float/str/bool columns
(plus an object-fallback mixed column), and both schedulers against
their naive O(starts x duration) originals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datacenter.scheduler import (
    BatchJob,
    schedule_carbon_agnostic,
    schedule_carbon_aware,
)
from repro.errors import SimulationError
from repro.tabular import Table, col

# ----------------------------------------------------------------------
# Reference semantics (the seed's row-at-a-time implementation)
# ----------------------------------------------------------------------


def ref_where(rows, predicate):
    return [dict(row) for row in rows if predicate(row)]


def ref_with_column(rows, name, fn):
    return [{**row, name: fn(row)} for row in rows]


def ref_sort(rows, names, reverse=False):
    return sorted(
        rows, key=lambda row: tuple(row[name] for name in names), reverse=reverse
    )


def ref_group(rows, names):
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[name] for name in names), []).append(row)
    return list(groups.items())


def ref_aggregate(rows, by, aggregations):
    records = []
    for key, members in ref_group(rows, by):
        record = dict(zip(by, key))
        for out_name, (in_name, reducer) in aggregations.items():
            record[out_name] = reducer([member[in_name] for member in members])
        records.append(record)
    return records


def typed(records):
    """Rows with explicit types, so 1 != 1.0 != True in comparisons."""
    return [
        {key: (type(value).__name__, value) for key, value in row.items()}
        for row in records
    ]


# ----------------------------------------------------------------------
# Table strategies: homogeneous typed columns plus an object fallback
# ----------------------------------------------------------------------

# Dyadic rationals with a short mantissa: every partial sum of up to
# ~2^20 of them is exactly representable in float64, so any summation
# order produces identical bits. (On arbitrary floats the vectorized
# sum kernel — pairwise summation — can differ from sequential ``sum``
# in the last ulp; it is the *more* accurate of the two.)
finite_floats = st.integers(min_value=-(2**30), max_value=2**30).map(
    lambda value: value / 1024.0
)

rows_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "k": st.sampled_from(["p", "q", "r"]),
            "n": st.integers(min_value=-50, max_value=50),
            "x": finite_floats,
            "b": st.booleans(),
            "m": st.one_of(
                st.integers(min_value=-5, max_value=5),
                st.sampled_from(["u", "v"]),
            ),
        }
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_where_bool_column_mask_matches_reference(rows):
    table = Table.from_records(rows)
    result = table.where((col("n") >= 0) & col("b")).to_records()
    assert typed(result) == typed(
        ref_where(rows, lambda r: r["n"] >= 0 and r["b"])
    )


@settings(max_examples=60, deadline=None)
@given(rows_strategy, st.integers(min_value=-50, max_value=50))
def test_where_expression_forms_match_reference(rows, threshold):
    table = Table.from_records(rows)
    baseline = ref_where(rows, lambda r: r["n"] >= threshold)
    assert typed(table.where("n", ">=", threshold).to_records()) == typed(baseline)
    assert typed(table.where(col("n") >= threshold).to_records()) == typed(baseline)


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_where_compound_expression_matches_reference(rows):
    table = Table.from_records(rows)
    baseline = ref_where(
        rows, lambda r: (r["n"] >= 0 and r["x"] < 100.0) or r["k"] == "p"
    )
    mask = ((col("n") >= 0) & (col("x") < 100.0)) | (col("k") == "p")
    assert typed(table.where(mask).to_records()) == typed(baseline)


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_where_on_object_column_matches_reference(rows):
    table = Table.from_records(rows)
    baseline = ref_where(rows, lambda r: r["m"] == "u")
    assert typed(table.where("m", "==", "u").to_records()) == typed(baseline)


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_with_column_expression_matches_reference(rows):
    table = Table.from_records(rows)
    from_expr = table.with_column("y", col("x") * 2.0 + col("n")).to_records()
    assert typed(from_expr) == typed(
        ref_with_column(rows, "y", lambda r: r["x"] * 2.0 + r["n"])
    )


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_with_column_int_expression_preserves_int(rows):
    table = Table.from_records(rows)
    from_expr = table.with_column("y", col("n") * 2).to_records()
    assert typed(from_expr) == typed(ref_with_column(rows, "y", lambda r: r["n"] * 2))


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_sort_by_is_stable_both_directions(rows):
    table = Table.from_records(rows)
    for names in (["k"], ["x"], ["n"], ["b"], ["k", "n"], ["b", "x", "k"]):
        for reverse in (False, True):
            got = table.sort_by(*names, reverse=reverse).to_records()
            want = ref_sort(rows, names, reverse=reverse)
            assert typed(got) == typed(want), (names, reverse)


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_group_by_order_and_membership(rows):
    table = Table.from_records(rows)
    for names in (["k"], ["k", "b"], ["n"], ["m"]):
        got = [
            (key, group.to_records()) for key, group in table.group_by(*names)
        ]
        want = ref_group(rows, names)
        assert [key for key, _ in got] == [key for key, _ in want], names
        for (_, got_rows), (_, want_rows) in zip(got, want):
            assert typed(got_rows) == typed(want_rows), names


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_aggregate_builtin_reducers_match_reference(rows):
    table = Table.from_records(rows)
    aggregations = {
        "total": ("n", sum),
        "weight": ("x", sum),
        "count": ("x", len),
        "low": ("n", min),
        "high": ("x", max),
    }
    got = table.aggregate(by=["k"], **aggregations).to_records()
    want = ref_aggregate(rows, ["k"], aggregations)
    assert typed(got) == typed(want)


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_aggregate_multi_key_and_custom_reducer(rows):
    table = Table.from_records(rows)
    aggregations = {
        "spread": ("x", lambda values: max(values) - min(values)),
        "names": ("k", lambda values: "".join(values)),
    }
    got = table.aggregate(by=["k", "b"], **aggregations).to_records()
    want = ref_aggregate(rows, ["k", "b"], aggregations)
    assert typed(got) == typed(want)


def test_empty_filter_result_keeps_schema_and_chains():
    table = Table.from_records([{"k": "a", "x": 1.0}])
    empty = table.where("x", ">", 99.0)
    assert empty.num_rows == 0
    assert empty.column_names == ["k", "x"]
    assert empty.sort_by("x").num_rows == 0


class TestEngineEdgeCases:
    """Divergences between numpy kernels and Python semantics that the
    engine must paper over (review findings, kept as regressions)."""

    def test_wrong_length_expression_mask_raises(self):
        from repro.errors import TableError

        table = Table({"a": [1.0, 2.5, 3.0, 4.0]})
        with pytest.raises(TableError, match="mask has 1 values"):
            table.where(col("a") > [2])

    def test_where_without_value_raises(self):
        from repro.errors import TableError

        with pytest.raises(TableError, match="needs an operator and a value"):
            Table({"a": [1.0, 2.0]}).where("a", "==")

    def test_dtype_mismatched_equality_collapses_to_empty(self):
        table = Table({"k": ["p", "q"]})
        assert table.where(col("k") == 5).num_rows == 0
        assert table.where("k", "==", 5).num_rows == 0

    def test_quantities_copy_draw_arrays(self):
        from repro.units import Carbon

        backing = np.array([1.0, 2.0])
        carbon = Carbon.from_grams(backing)
        backing[0] = -5.0
        assert carbon.grams[0] == 1.0

    def test_mutating_batched_model_cannot_corrupt_fallback(self):
        from repro.analysis.uncertainty import Uniform, monte_carlo

        def model(params):
            if isinstance(params["a"], np.ndarray):
                params["a"] += 100.0
                raise TypeError("scalars only")
            return params["a"]

        result = monte_carlo(
            model, {"a": Uniform(0.0, 1.0)}, samples=50, seed=0, vectorized=True
        )
        assert 0.0 <= result.mean <= 1.0


# ----------------------------------------------------------------------
# Scheduler equivalence: prefix-sum placement == naive window scans
# ----------------------------------------------------------------------


def _naive_job_carbon(job, start, intensity):
    return float(np.sum(intensity[start : start + job.duration_hours]) * job.power_kw)


def _naive_fits(job, start, load, capacity_kw):
    window = load[start : start + job.duration_hours]
    return bool(np.all(window + job.power_kw <= capacity_kw + 1e-9))


def _naive_starts(job, horizon):
    latest = (
        horizon - job.duration_hours
        if job.deadline_hour is None
        else min(job.deadline_hour - job.duration_hours, horizon - job.duration_hours)
    )
    return range(job.arrival_hour, latest + 1)


def ref_schedule_agnostic(jobs, intensity, capacity_kw):
    load = np.zeros(intensity.shape[0])
    placements = []
    for job in sorted(jobs, key=lambda j: (j.arrival_hour, j.name)):
        for start in _naive_starts(job, intensity.shape[0]):
            if _naive_fits(job, start, load, capacity_kw):
                load[start : start + job.duration_hours] += job.power_kw
                placements.append(
                    (job.name, start, _naive_job_carbon(job, start, intensity))
                )
                break
        else:
            raise SimulationError(f"{job.name}: no feasible slot")
    return placements


def ref_schedule_aware(jobs, intensity, capacity_kw):
    load = np.zeros(intensity.shape[0])
    placements = []
    for job in sorted(jobs, key=lambda j: (-j.power_kw * j.duration_hours, j.name)):
        best_start, best_grams = None, None
        for start in _naive_starts(job, intensity.shape[0]):
            if not _naive_fits(job, start, load, capacity_kw):
                continue
            grams = _naive_job_carbon(job, start, intensity)
            if best_grams is None or grams < best_grams:
                best_start, best_grams = start, grams
        if best_start is None:
            raise SimulationError(f"{job.name}: no feasible slot")
        load[best_start : best_start + job.duration_hours] += job.power_kw
        placements.append((job.name, best_start, best_grams))
    return placements


# Integer-valued intensities keep every float sum exact, so the naive
# np.sum windows and the prefix-sum subtractions agree bit-for-bit and
# tie-breaking between near-equal windows cannot diverge.
job_strategy = st.builds(
    BatchJob,
    name=st.uuids().map(str),
    duration_hours=st.integers(min_value=1, max_value=6),
    power_kw=st.sampled_from([25.0, 50.0, 75.0, 100.0]),
    arrival_hour=st.integers(min_value=0, max_value=12),
)

grid_strategy = st.lists(
    st.integers(min_value=1, max_value=600), min_size=24, max_size=48
).map(lambda values: np.asarray(values, dtype=float))


@settings(max_examples=40, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=8), grid_strategy)
def test_aware_scheduler_matches_naive_reference(jobs, grid):
    capacity = 175.0
    try:
        want = ref_schedule_aware(jobs, grid, capacity)
    except SimulationError:
        with pytest.raises(SimulationError):
            schedule_carbon_aware(jobs, grid, capacity)
        return
    got = schedule_carbon_aware(jobs, grid, capacity)
    assert [(p.job.name, p.start_hour, p.carbon.grams) for p in got.placements] == want


@settings(max_examples=40, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=8), grid_strategy)
def test_agnostic_scheduler_matches_naive_reference(jobs, grid):
    capacity = 175.0
    try:
        want = ref_schedule_agnostic(jobs, grid, capacity)
    except SimulationError:
        with pytest.raises(SimulationError):
            schedule_carbon_agnostic(jobs, grid, capacity)
        return
    got = schedule_carbon_agnostic(jobs, grid, capacity)
    assert [(p.job.name, p.start_hour, p.carbon.grams) for p in got.placements] == want
