"""Unit tests for the columnar Table substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TableError
from repro.tabular import Table


@pytest.fixture
def devices() -> Table:
    return Table.from_records(
        [
            {"vendor": "apple", "product": "iphone_11", "kg": 60.0},
            {"vendor": "google", "product": "pixel_3a", "kg": 45.0},
            {"vendor": "apple", "product": "iphone_11_pro", "kg": 66.0},
            {"vendor": "huawei", "product": "honor_5c", "kg": 19.0},
        ]
    )


class TestConstruction:
    def test_column_lengths_must_match(self):
        with pytest.raises(TableError):
            Table({"a": [1, 2], "b": [1]})

    def test_needs_at_least_one_column(self):
        with pytest.raises(TableError):
            Table({})

    def test_column_names_must_be_strings(self):
        with pytest.raises(TableError):
            Table({1: [1]})  # type: ignore[dict-item]

    def test_from_records_infers_column_order(self, devices):
        assert devices.column_names == ["vendor", "product", "kg"]

    def test_from_records_missing_key_raises(self):
        with pytest.raises(TableError):
            Table.from_records([{"a": 1}, {"b": 2}])

    def test_from_records_extra_key_raises(self):
        with pytest.raises(TableError):
            Table.from_records([{"a": 1}, {"a": 2, "b": 3}])

    def test_from_records_explicit_columns_allow_extras(self):
        table = Table.from_records(
            [{"a": 1, "b": 2}], columns=["a"]
        )
        assert table.column_names == ["a"]

    def test_empty_records_need_columns(self):
        with pytest.raises(TableError):
            Table.from_records([])

    def test_empty_with_columns(self):
        table = Table.from_records([], columns=["a", "b"])
        assert table.num_rows == 0

    def test_input_columns_are_copied(self):
        source = [1, 2, 3]
        table = Table({"a": source})
        source.append(4)
        assert table.num_rows == 3


class TestAccess:
    def test_len_and_num_rows(self, devices):
        assert len(devices) == devices.num_rows == 4

    def test_iteration_yields_row_dicts(self, devices):
        rows = list(devices)
        assert rows[0] == {"vendor": "apple", "product": "iphone_11", "kg": 60.0}

    def test_row_negative_index(self, devices):
        assert devices.row(-1)["product"] == "honor_5c"

    def test_row_out_of_range(self, devices):
        with pytest.raises(TableError):
            devices.row(4)

    def test_column_returns_copy(self, devices):
        column = devices.column("kg")
        column.append(0.0)
        assert len(devices.column("kg")) == 4

    def test_unknown_column_raises(self, devices):
        with pytest.raises(TableError):
            devices.column("nope")

    def test_array_is_a_read_only_zero_copy_view(self, devices):
        kg = devices.array("kg")
        assert kg.dtype == np.float64
        assert kg.tolist() == devices.column("kg")
        assert not kg.flags.writeable
        with pytest.raises(ValueError):
            kg[0] = 1.0
        # Every call views the same storage; nothing is copied.
        assert np.shares_memory(kg, devices.array("kg"))
        assert devices.column("kg")[0] == 60.0

    def test_array_serves_list_backed_columns(self):
        table = Table({"mixed": [1, 2.5, "x"], "pairs": [(1, 2), (3, 4), (5, 6)]})
        mixed = table.array("mixed")
        assert mixed.dtype == object
        assert mixed.tolist() == [1, 2.5, "x"]
        assert table.array("pairs").shape == (3,)
        assert table.array("pairs")[1] == (3, 4)
        assert not mixed.flags.writeable

    def test_array_unknown_column_raises(self, devices):
        with pytest.raises(TableError):
            devices.array("nope")

    def test_to_records_roundtrip(self, devices):
        assert Table.from_records(devices.to_records()) == devices

    def test_equality(self, devices):
        assert devices == Table.from_records(devices.to_records())
        assert devices != devices.head(2)


class TestRelationalOps:
    def test_select_orders_columns(self, devices):
        selected = devices.select("kg", "vendor")
        assert selected.column_names == ["kg", "vendor"]

    def test_select_unknown_raises(self, devices):
        with pytest.raises(TableError):
            devices.select("nope")

    def test_select_empty_raises(self, devices):
        with pytest.raises(TableError):
            devices.select()

    def test_where(self, devices):
        apple = devices.where(lambda row: row["vendor"] == "apple")
        assert apple.num_rows == 2

    def test_where_keeps_no_rows(self, devices):
        none = devices.where(lambda row: False)
        assert none.num_rows == 0
        assert none.column_names == devices.column_names

    def test_with_column_from_function(self, devices):
        tonned = devices.with_column("tonnes", lambda row: row["kg"] / 1e3)
        assert tonned.column("tonnes")[0] == pytest.approx(0.06)

    def test_with_column_from_sequence(self, devices):
        table = devices.with_column("rank", [1, 2, 3, 4])
        assert table.column("rank") == [1, 2, 3, 4]

    def test_with_column_wrong_length(self, devices):
        with pytest.raises(TableError):
            devices.with_column("rank", [1])

    def test_with_column_replaces(self, devices):
        table = devices.with_column("kg", lambda row: 0.0)
        assert set(table.column("kg")) == {0.0}

    def test_drop(self, devices):
        assert devices.drop("kg").column_names == ["vendor", "product"]

    def test_drop_all_raises(self, devices):
        with pytest.raises(TableError):
            devices.drop("vendor", "product", "kg")

    def test_rename(self, devices):
        renamed = devices.rename({"kg": "mass_kg"})
        assert "mass_kg" in renamed.column_names
        assert "kg" not in renamed.column_names

    def test_rename_unknown_raises(self, devices):
        with pytest.raises(TableError):
            devices.rename({"nope": "x"})

    def test_sort_by(self, devices):
        ordered = devices.sort_by("kg")
        assert ordered.column("kg") == sorted(devices.column("kg"))

    def test_sort_by_reverse(self, devices):
        ordered = devices.sort_by("kg", reverse=True)
        assert ordered.column("kg") == sorted(devices.column("kg"), reverse=True)

    def test_sort_is_stable_on_secondary(self, devices):
        ordered = devices.sort_by("vendor", "kg")
        apple_rows = [r for r in ordered if r["vendor"] == "apple"]
        assert [r["kg"] for r in apple_rows] == [60.0, 66.0]

    def test_head(self, devices):
        assert devices.head(2).num_rows == 2
        assert devices.head(10).num_rows == 4

    def test_head_negative_raises(self, devices):
        with pytest.raises(TableError):
            devices.head(-1)

    def test_unique_preserves_order(self, devices):
        assert devices.unique("vendor") == ["apple", "google", "huawei"]


class TestGroupingAndJoins:
    def test_group_by_partitions(self, devices):
        groups = dict(devices.group_by("vendor"))
        assert groups[("apple",)].num_rows == 2
        assert groups[("google",)].num_rows == 1

    def test_group_by_first_appearance_order(self, devices):
        keys = [key for key, _ in devices.group_by("vendor")]
        assert keys == [("apple",), ("google",), ("huawei",)]

    def test_aggregate_sum(self, devices):
        totals = devices.aggregate(by=["vendor"], total=("kg", sum))
        apple = totals.where(lambda row: row["vendor"] == "apple").row(0)
        assert apple["total"] == pytest.approx(126.0)

    def test_aggregate_multiple_reducers(self, devices):
        stats = devices.aggregate(
            by=["vendor"], total=("kg", sum), count=("kg", len)
        )
        assert stats.column_names == ["vendor", "total", "count"]

    def test_aggregate_needs_aggregations(self, devices):
        with pytest.raises(TableError):
            devices.aggregate(by=["vendor"])

    def test_join_inner(self, devices):
        years = Table.from_records(
            [
                {"product": "iphone_11", "year": 2019},
                {"product": "pixel_3a", "year": 2019},
            ]
        )
        joined = devices.join(years, on="product")
        assert joined.num_rows == 2
        assert "year" in joined.column_names

    def test_join_suffixes_clashing_columns(self):
        left = Table.from_records([{"k": 1, "v": "a"}])
        right = Table.from_records([{"k": 1, "v": "b"}])
        joined = left.join(right, on="k")
        assert joined.row(0)["v"] == "a"
        assert joined.row(0)["v_right"] == "b"

    def test_join_missing_key_raises(self, devices):
        with pytest.raises(TableError):
            devices.join(devices, on="nope")

    def test_join_multiplicity(self):
        left = Table.from_records([{"k": 1}, {"k": 1}])
        right = Table.from_records([{"k": 1, "v": "x"}, {"k": 1, "v": "y"}])
        assert left.join(right, on="k").num_rows == 4


class TestRendering:
    def test_to_text_contains_header_and_rule(self, devices):
        text = devices.to_text()
        lines = text.splitlines()
        assert "vendor" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_to_text_formats_floats(self, devices):
        assert "60.000" in devices.to_text()
        assert "60.0000" in devices.to_text(float_format="{:.4f}")

    def test_repr_summarizes(self, devices):
        assert "4 rows" in repr(devices)
