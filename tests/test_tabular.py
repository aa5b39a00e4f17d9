"""Unit tests for the columnar Table substrate."""

from __future__ import annotations

import operator

import numpy as np
import pytest

from repro.errors import TableError
from repro.tabular import Table, col

_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _per_row_function(row):
    return True


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
        assert devices != devices.where("kg", ">", 50.0)

    @pytest.mark.parametrize(
        ("left", "right"),
        [
            # An int column is not a float column holding the same numbers.
            pytest.param({"a": [1]}, {"a": [1.0]}, id="int-vs-float-array"),
            pytest.param({"a": [True]}, {"a": [1]}, id="bool-vs-int-array"),
            # Column order matters.
            pytest.param({"a": [1], "b": [2]}, {"b": [2], "a": [1]}, id="column-order"),
            # List-backed columns compare value types too.
            pytest.param({"m": [1, "x"]}, {"m": [1.0, "x"]}, id="int-vs-float-list"),
            pytest.param({"m": [True, "x"]}, {"m": [1, "x"]}, id="bool-vs-int-list"),
            pytest.param({"a": [1.0]}, {"a": [2.0]}, id="different-value"),
            pytest.param({"a": [1.0]}, {"a": [1.0, 1.0]}, id="different-length"),
        ],
    )
    def test_equality_is_exact(self, left, right):
        assert Table(left) != Table(right)
        assert Table(right) != Table(left)

    @pytest.mark.parametrize(
        "columns",
        [
            # NaN equals NaN, on array and list columns alike.
            pytest.param({"x": [float("nan")]}, id="nan-array"),
            pytest.param({"m": [float("nan"), "x"]}, id="nan-list"),
            pytest.param({"s": ["a", "b"], "n": [1, 2]}, id="str-and-int"),
        ],
    )
    def test_equal_tables_compare_equal(self, columns):
        assert Table(columns) == Table(columns)

    def test_empty_list_column_equals_empty_array_column(self):
        no_rows = Table({"x": [1.0]}).where("x", ">", 5.0)
        assert Table.from_records([], columns=["x"]) == no_rows


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
        apple = devices.where("vendor", "==", "apple")
        assert apple.num_rows == 2

    def test_where_keeps_no_rows(self, devices):
        none = devices.where("kg", "<", 0.0)
        assert none.num_rows == 0
        assert none.column_names == devices.column_names

    def test_with_column_from_expression(self, devices):
        tonned = devices.with_column("tonnes", col("kg") / 1e3)
        assert tonned.column("tonnes")[0] == pytest.approx(0.06)

    @pytest.mark.parametrize("verb", ["where", "with_column"])
    @pytest.mark.parametrize(
        "per_row",
        [_per_row_function, lambda row: True, bool],
        ids=["function", "lambda", "builtin"],
    )
    def test_callables_are_rejected(self, devices, verb, per_row):
        with pytest.raises(TableError, match=r"col\(\) expression"):
            if verb == "where":
                devices.where(per_row)  # type: ignore[arg-type]
            else:
                devices.with_column("kg", per_row)  # type: ignore[arg-type]

    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_where_operator_form_matches_expression(self, devices, op):
        compare = _COMPARE[op]
        by_operator = devices.where("kg", op, 60.0)
        by_expression = devices.where(compare(col("kg"), 60.0))
        assert by_operator == by_expression
        assert by_operator.column("kg") == [
            kg for kg in devices.column("kg") if compare(kg, 60.0)
        ]

    @pytest.mark.parametrize("op", ["in", "not in"])
    def test_membership_operators_are_rejected(self, devices, op):
        with pytest.raises(TableError, match="unknown operator"):
            devices.where("vendor", op, ["apple"])

    def test_with_column_from_sequence(self, devices):
        table = devices.with_column("rank", [1, 2, 3, 4])
        assert table.column("rank") == [1, 2, 3, 4]

    def test_with_column_wrong_length(self, devices):
        with pytest.raises(TableError):
            devices.with_column("rank", [1])

    def test_with_column_replaces(self, devices):
        table = devices.with_column("kg", [0.0] * 4)
        assert set(table.column("kg")) == {0.0}

    def test_drop(self, devices):
        assert devices.drop("kg").column_names == ["vendor", "product"]

    def test_drop_all_raises(self, devices):
        with pytest.raises(TableError):
            devices.drop("vendor", "product", "kg")

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


class TestGrouping:
    def test_group_by_partitions(self, devices):
        groups = dict(devices.group_by("vendor"))
        assert groups[("apple",)].num_rows == 2
        assert groups[("google",)].num_rows == 1

    def test_group_by_first_appearance_order(self, devices):
        keys = [key for key, _ in devices.group_by("vendor")]
        assert keys == [("apple",), ("google",), ("huawei",)]

    def test_aggregate_sum(self, devices):
        totals = devices.aggregate(by=["vendor"], total=("kg", sum))
        apple = totals.where("vendor", "==", "apple").row(0)
        assert apple["total"] == pytest.approx(126.0)

    def test_aggregate_multiple_reducers(self, devices):
        stats = devices.aggregate(
            by=["vendor"], total=("kg", sum), count=("kg", len)
        )
        assert stats.column_names == ["vendor", "total", "count"]

    def test_aggregate_needs_aggregations(self, devices):
        with pytest.raises(TableError):
            devices.aggregate(by=["vendor"])


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
