"""Property-based tests for Table invariants."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.tabular import Table, col

values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(alphabet="abcde", min_size=0, max_size=4),
)

records = st.lists(
    st.fixed_dictionaries({"key": st.sampled_from("pqr"), "value": values}),
    min_size=1,
    max_size=40,
)


@given(records)
def test_where_conjunction_equals_chained_filters(recs):
    table = Table.from_records(recs)
    both = table.where("key", "!=", "p").where("key", "!=", "q")
    conjunction = table.where((col("key") != "p") & (col("key") != "q"))
    assert both == conjunction


@given(records)
def test_where_true_is_identity(recs):
    table = Table.from_records(recs)
    assert table.where(col("key") == col("key")) == table


@given(records)
def test_group_sizes_sum_to_total(recs):
    table = Table.from_records(recs)
    sizes = [group.num_rows for _, group in table.group_by("key")]
    assert sum(sizes) == table.num_rows


@given(records)
def test_groups_partition_rows(recs):
    table = Table.from_records(recs)
    rebuilt = [
        row for _, group in table.group_by("key") for row in group.to_records()
    ]
    assert sorted(map(repr, rebuilt)) == sorted(map(repr, table.to_records()))


@given(
    st.lists(
        st.fixed_dictionaries(
            {"key": st.sampled_from("pqr"), "value": st.integers(-100, 100)}
        ),
        min_size=1,
        max_size=40,
    )
)
def test_aggregate_sum_conserves_total(recs):
    table = Table.from_records(recs)
    grouped = table.aggregate(by=["key"], total=("value", sum))
    assert sum(grouped.column("total")) == sum(table.column("value"))


@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=50)
)
def test_sort_is_idempotent_and_ordered(values_list):
    table = Table({"v": values_list})
    once = table.sort_by("v")
    twice = once.sort_by("v")
    assert once == twice
    column = once.column("v")
    assert all(a <= b for a, b in zip(column, column[1:]))


@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=50)
)
def test_sort_preserves_multiset(values_list):
    table = Table({"v": values_list})
    assert sorted(table.sort_by("v").column("v")) == sorted(values_list)


@given(records)
def test_roundtrip_through_records(recs):
    table = Table.from_records(recs)
    assert Table.from_records(table.to_records(), columns=table.column_names) == table
