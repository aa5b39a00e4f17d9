"""A minimal columnar table, the library's pandas substitute.

Every analysis in the paper is a small relational computation over
curated records: filter rows, derive columns, group, aggregate, sort,
and render. :class:`Table` implements exactly that surface.

Tables are immutable from the caller's point of view: every operation
returns a new :class:`Table`, and columns handed in or out are copied.

>>> t = Table.from_records([
...     {"vendor": "apple", "kg": 60.0},
...     {"vendor": "google", "kg": 45.0},
...     {"vendor": "apple", "kg": 66.0},
... ])
>>> t.where("vendor", "==", "apple").num_rows
2
>>> t.aggregate(by=["vendor"], total=("kg", sum)).sort_by("vendor").column("total")
[126.0, 45.0]

Engine
------

Columns whose values are homogeneous scalars are backed by numpy
arrays — ``float`` columns by ``float64``, ``int`` by ``int64``,
``bool`` by ``bool_``, and ``str`` by fixed-width unicode. Everything
else (mixed types, ``None``, nested containers, huge integers) falls
back to a plain Python list, and every operation on such a column runs
element by element. The two representations are semantically
identical: values always round-trip to native Python scalars at the
API boundary (``column()``, ``row()``, iteration), so callers never
see numpy scalar types.

When every participating column is numpy-backed, the relational
operations use vectorized kernels:

- ``where``/``with_column`` evaluate column expressions as array ops,
- ``group_by``/``aggregate`` factorize keys (first-appearance order is
  preserved) and reduce with segmented ``reduceat``/``bincount``
  kernels for the common reducers ``sum``/``len``/``min``/``max``,
- ``sort_by`` is a stable ``np.lexsort`` (including stable descending),
- ``_take`` gathers rows by index (a slice gives zero-copy views).

Expression API
--------------

Filters and derived columns are column expressions, which never
materialize row dicts:

>>> t.where("kg", ">=", 50.0).num_rows            # comparison shorthand
2
>>> t.where(col("kg") >= 50.0).num_rows           # expression object
2
>>> t.with_column("tonnes", col("kg") / 1e3).column("tonnes")[0]
0.06

Expressions compose with arithmetic (``+ - * / // % **``), comparisons,
and ``& | ~`` on boolean masks. On numpy-backed columns they evaluate
as single array operations; on fallback columns they evaluate
element-wise with identical semantics.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import TableError

__all__ = ["Table", "Expr", "col"]

Row = dict[str, Any]
Aggregation = tuple[str, Callable[[list[Any]], Any]]

#: Internal column backing: a numpy array for homogeneous scalar
#: columns, a plain list for everything else.
Backing = "np.ndarray | list[Any]"

_COMPARISONS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Sentinel distinguishing "value not supplied" from a literal None.
_MISSING = object()

def _sniff(values: list[Any]) -> np.ndarray | list[Any]:
    """Choose a backing for ``values``: numpy when exact, else the list.

    The numpy promotion is deliberately conservative — only columns
    whose values are all the same scalar type are promoted, so that
    ``tolist()`` reproduces the input byte-for-byte (mixed int/float
    columns stay lists to preserve the ints).
    """
    if not values:
        return values
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        return np.asarray(values, dtype=np.float64)
    if kinds == {bool}:
        return np.asarray(values, dtype=np.bool_)
    if kinds == {int}:
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            return values
    if kinds == {str}:
        return np.asarray(values, dtype=np.str_)
    return values


def _adopt(values: Any) -> np.ndarray | list[Any]:
    """Normalize arbitrary caller input into a column backing (copying)."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise TableError(f"columns must be 1-D, got shape {values.shape}")
        kind = values.dtype.kind
        if kind == "f":
            return values.astype(np.float64)
        if kind in "iu":
            try:
                return values.astype(np.int64, casting="safe")
            except TypeError:
                return values.tolist()
        if kind == "b":
            return values.astype(np.bool_)
        if kind == "U":
            return values.copy()
        return _sniff(values.tolist())
    return _sniff(list(values))


def _as_list(backing: np.ndarray | list[Any]) -> list[Any]:
    """A fresh Python list of native scalars for a column backing."""
    if isinstance(backing, np.ndarray):
        return backing.tolist()
    return list(backing)


def _scalar(backing: np.ndarray | list[Any], index: int) -> Any:
    value = backing[index]
    return value.item() if isinstance(backing, np.ndarray) else value


def _same_values(
    mine: np.ndarray | list[Any], theirs: np.ndarray | list[Any]
) -> bool:
    """Whether two equally long backings hold the same typed values."""
    if isinstance(mine, np.ndarray) and isinstance(theirs, np.ndarray):
        kind = mine.dtype.kind
        return kind == theirs.dtype.kind and np.array_equal(
            mine, theirs, equal_nan=kind == "f"
        )
    return all(
        type(a) is type(b) and (a == b or (a != a and b != b))
        for a, b in zip(_as_list(mine), _as_list(theirs))
    )


def _factorize(array: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Dense integer codes for ``array`` in first-appearance key order.

    Returns ``(codes, num_groups, first_rows)`` where ``codes[i]`` is
    the group of row ``i``, groups are numbered by the row order of
    their first occurrence, and ``first_rows[g]`` is the first row of
    group ``g``.
    """
    _, first, inverse = np.unique(
        array, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()], order.size, first[order]


def _stable_order(keys: Sequence[np.ndarray], reverse: bool) -> np.ndarray:
    """Stable row ordering by ``keys`` (primary first), optionally
    descending — matching ``sorted(..., reverse=True)`` stability."""
    if not reverse:
        return np.lexsort(tuple(reversed(keys)))
    size = keys[0].shape[0]
    flipped = np.lexsort(tuple(key[::-1] for key in reversed(keys)))
    return (size - 1 - flipped)[::-1]


# ----------------------------------------------------------------------
# Column expressions
# ----------------------------------------------------------------------
class Expr:
    """A lazy column expression evaluated against a :class:`Table`.

    Build leaves with :func:`col` and compose with Python operators;
    pass the result to ``Table.where`` or ``Table.with_column``.
    """

    def _evaluate(self, table: "Table") -> np.ndarray | list[Any]:
        raise NotImplementedError

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: Any) -> "Expr":
        return _Binary(operator.add, self, other)

    def __radd__(self, other: Any) -> "Expr":
        return _Binary(operator.add, other, self)

    def __sub__(self, other: Any) -> "Expr":
        return _Binary(operator.sub, self, other)

    def __rsub__(self, other: Any) -> "Expr":
        return _Binary(operator.sub, other, self)

    def __mul__(self, other: Any) -> "Expr":
        return _Binary(operator.mul, self, other)

    def __rmul__(self, other: Any) -> "Expr":
        return _Binary(operator.mul, other, self)

    def __truediv__(self, other: Any) -> "Expr":
        return _Binary(operator.truediv, self, other)

    def __rtruediv__(self, other: Any) -> "Expr":
        return _Binary(operator.truediv, other, self)

    def __floordiv__(self, other: Any) -> "Expr":
        return _Binary(operator.floordiv, self, other)

    def __mod__(self, other: Any) -> "Expr":
        return _Binary(operator.mod, self, other)

    def __pow__(self, other: Any) -> "Expr":
        return _Binary(operator.pow, self, other)

    def __neg__(self) -> "Expr":
        return _Unary(operator.neg, self)

    def __abs__(self) -> "Expr":
        return _Unary(operator.abs, self)

    # -- comparisons (yield boolean masks) -----------------------------
    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return _Binary(operator.eq, self, other)

    def __ne__(self, other: Any) -> "Expr":  # type: ignore[override]
        return _Binary(operator.ne, self, other)

    def __lt__(self, other: Any) -> "Expr":
        return _Binary(operator.lt, self, other)

    def __le__(self, other: Any) -> "Expr":
        return _Binary(operator.le, self, other)

    def __gt__(self, other: Any) -> "Expr":
        return _Binary(operator.gt, self, other)

    def __ge__(self, other: Any) -> "Expr":
        return _Binary(operator.ge, self, other)

    __hash__ = None  # type: ignore[assignment]

    # -- boolean algebra on masks --------------------------------------
    def __and__(self, other: Any) -> "Expr":
        return _Binary(np.logical_and, self, other, python_op=lambda a, b: a and b)

    def __or__(self, other: Any) -> "Expr":
        return _Binary(np.logical_or, self, other, python_op=lambda a, b: a or b)

    def __invert__(self) -> "Expr":
        return _Unary(np.logical_not, self, python_op=operator.not_)


class _Column(Expr):
    def __init__(self, name: str) -> None:
        self.name = name

    def _evaluate(self, table: "Table") -> np.ndarray | list[Any]:
        if self.name not in table._columns:
            raise TableError(
                f"unknown column {self.name!r}; have {table.column_names}"
            )
        return table._columns[self.name]

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class _Binary(Expr):
    def __init__(
        self,
        op: Callable[[Any, Any], Any],
        left: Any,
        right: Any,
        python_op: Callable[[Any, Any], Any] | None = None,
    ) -> None:
        self.op = op
        self.left = left
        self.right = right
        self.python_op = python_op or op

    def _evaluate(self, table: "Table") -> np.ndarray | list[Any]:
        left = _operand(self.left, table)
        right = _operand(self.right, table)
        if isinstance(left, list) or isinstance(right, list):
            lseq = _broadcast(left, table.num_rows)
            rseq = _broadcast(right, table.num_rows)
            op = self.python_op
            return [op(a, b) for a, b in zip(lseq, rseq)]
        return self.op(left, right)


class _Unary(Expr):
    def __init__(
        self,
        op: Callable[[Any], Any],
        inner: Expr,
        python_op: Callable[[Any], Any] | None = None,
    ) -> None:
        self.op = op
        self.inner = inner
        self.python_op = python_op or op

    def _evaluate(self, table: "Table") -> np.ndarray | list[Any]:
        value = _operand(self.inner, table)
        if isinstance(value, list):
            op = self.python_op
            return [op(v) for v in value]
        return self.op(value)


def _operand(node: Any, table: "Table") -> Any:
    return node._evaluate(table) if isinstance(node, Expr) else node


def _broadcast(value: Any, length: int) -> Iterable[Any]:
    if isinstance(value, list):
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    return (value for _ in range(length))


def col(name: str) -> Expr:
    """A column reference for the expression API: ``col("kg") * 2``."""
    if not isinstance(name, str) or not name:
        raise TableError(f"col() needs a non-empty column name, got {name!r}")
    return _Column(name)


class Table:
    """An ordered collection of named, equally sized columns."""

    __slots__ = ("_columns", "_length", "_cache")

    def __init__(self, columns: Mapping[str, Sequence[Any]]) -> None:
        if not columns:
            raise TableError("a table needs at least one column")
        normalized: dict[str, np.ndarray | list[Any]] = {}
        length: int | None = None
        for name, values in columns.items():
            if not isinstance(name, str) or not name:
                raise TableError(f"column names must be non-empty strings, got {name!r}")
            backing = _adopt(values)
            if length is None:
                length = len(backing)
            elif len(backing) != length:
                raise TableError(
                    f"column {name!r} has {len(backing)} values, expected {length}"
                )
            normalized[name] = backing
        self._columns = normalized
        self._length = length or 0
        self._cache: dict[Any, Any] = {}

    @classmethod
    def _from_backing(
        cls, columns: dict[str, np.ndarray | list[Any]], length: int
    ) -> "Table":
        """Internal constructor that trusts ready-made backings."""
        table = cls.__new__(cls)
        table._columns = columns
        table._length = length
        table._cache = {}
        return table

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[str, Any]], columns: Sequence[str] | None = None
    ) -> "Table":
        """Build a table from an iterable of row mappings.

        When ``columns`` is omitted the column order of the first record
        is used and every record must supply exactly the same keys.
        """
        records = list(records)
        if not records:
            if columns is None:
                raise TableError("cannot infer columns from zero records")
            return cls({name: [] for name in columns})
        names = list(columns) if columns is not None else list(records[0].keys())
        name_set = frozenset(names)
        strict = columns is None
        for index, record in enumerate(records):
            keys = record.keys()
            if keys == name_set:
                continue
            missing = name_set - keys
            if missing:
                raise TableError(f"record {index} is missing columns {sorted(missing)}")
            if strict:
                extra = set(keys) - name_set
                if extra:
                    raise TableError(
                        f"record {index} has unexpected columns {sorted(extra)}"
                    )
        data = {
            name: _sniff([record[name] for record in records]) for name in names
        }
        return cls._from_backing(data, len(records))

    @classmethod
    def concat(cls, tables: Sequence["Table"]) -> "Table":
        """Stack tables with identical columns, preserving row order.

        Columns that are numpy-backed with one dtype kind across every
        table stack as a single ``np.concatenate`` — the chunk-reducer
        hot path of :mod:`repro.exec` — while any column with a list
        backing (or mixed kinds) falls back to value-level re-sniffing
        with identical semantics.
        """
        if not tables:
            raise TableError("concat() needs at least one table")
        names = tables[0].column_names
        for table in tables[1:]:
            if table.column_names != names:
                raise TableError(
                    f"column mismatch: {table.column_names} vs {names}"
                )
        data: dict[str, np.ndarray | list[Any]] = {}
        for name in names:
            backings = [table._columns[name] for table in tables]
            if all(isinstance(b, np.ndarray) for b in backings) and (
                len({b.dtype.kind for b in backings}) == 1
            ):
                data[name] = np.concatenate(backings)
            else:
                data[name] = _sniff(
                    [value for b in backings for value in _as_list(b)]
                )
        return cls._from_backing(data, sum(t._length for t in tables))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> list[str]:
        return list(self._columns.keys())

    @property
    def num_rows(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        names = self.column_names
        lists = [self._list(name) for name in names]
        for values in zip(*lists):
            yield dict(zip(names, values))

    def __eq__(self, other: object) -> bool:
        """Exact equality: same column order, same values of the same
        types (array columns of the same dtype kind), NaN equal to NaN."""
        if not isinstance(other, Table):
            return NotImplemented
        if list(self._columns) != list(other._columns):
            return False
        if self._length != other._length:
            return False
        return all(
            _same_values(mine, other._columns[name])
            for name, mine in self._columns.items()
        )

    __hash__ = None  # type: ignore[assignment]

    def row(self, index: int) -> Row:
        """Return row ``index`` as a dict (supports negative indices)."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise TableError(f"row index {index} out of range for {self._length} rows")
        return {
            name: _scalar(values, index) for name, values in self._columns.items()
        }

    def column(self, name: str) -> list[Any]:
        """Return a copy of the named column's values."""
        if name not in self._columns:
            raise TableError(f"unknown column {name!r}; have {self.column_names}")
        return _as_list(self._columns[name])

    def array(self, name: str) -> np.ndarray:
        """The named column as a read-only numpy array.

        Zero-copy for numpy-backed columns: the array is a read-only
        view of the table's own storage. List-backed columns (mixed or
        non-scalar values) come back as a new object array holding the
        same Python values, so nothing is coerced.
        """
        if name not in self._columns:
            raise TableError(f"unknown column {name!r}; have {self.column_names}")
        backing = self._columns[name]
        if isinstance(backing, np.ndarray):
            array = backing.view()
        else:
            array = np.fromiter(backing, dtype=object, count=len(backing))
        array.flags.writeable = False
        return array

    def to_records(self) -> list[Row]:
        return list(self)

    # ------------------------------------------------------------------
    # Relational operations (each returns a new Table)
    # ------------------------------------------------------------------
    def select(self, *names: str) -> "Table":
        """Keep only the named columns, in the given order."""
        for name in names:
            if name not in self._columns:
                raise TableError(f"unknown column {name!r}; have {self.column_names}")
        if not names:
            raise TableError("select() needs at least one column name")
        return Table._from_backing(
            {name: self._columns[name] for name in names}, self._length
        )

    def where(
        self, predicate: Expr | str, op: str | None = None, value: Any = _MISSING
    ) -> "Table":
        """Keep rows matching a predicate.

        Two forms are accepted:

        - ``where("year", ">=", 2015)`` — comparison shorthand against
          one column (operators ``== != < <= > >=``).
        - ``where(col("year") >= 2015)`` — an :class:`Expr` mask.

        Both evaluate as single vectorized array operations on
        numpy-backed columns.
        """
        if isinstance(predicate, str):
            if op is None or value is _MISSING:
                raise TableError(
                    "expression where() needs an operator and a value, e.g. "
                    "where('year', '>=', 2015)"
                )
            mask = self._compare_column(predicate, op, value)
        elif isinstance(predicate, Expr):
            if op is not None:
                raise TableError("operator form needs a column name, not an Expr")
            mask = predicate._evaluate(self)
        else:
            raise TableError(
                "where() takes a column name, an operator and a value, "
                f"or a col() expression; got {type(predicate).__name__}"
            )
        if isinstance(mask, (bool, np.bool_)):
            # A dtype-mismatched comparison collapses to one scalar
            # (e.g. string column == int); broadcast it over all rows.
            return self._take(slice(0, self._length) if mask else [])
        if len(mask) != self._length:
            raise TableError(
                f"mask has {len(mask)} values, expected {self._length}"
            )
        if isinstance(mask, np.ndarray):
            if mask.dtype != np.bool_:
                mask = mask.astype(np.bool_)
            return self._take(np.flatnonzero(mask))
        return self._take([index for index, hit in enumerate(mask) if hit])

    def _compare_column(self, name: str, op: str, value: Any) -> Any:
        if name not in self._columns:
            raise TableError(f"unknown column {name!r}; have {self.column_names}")
        compare = _COMPARISONS.get(op)
        if compare is None:
            raise TableError(f"unknown operator {op!r}; have {sorted(_COMPARISONS)}")
        backing = self._columns[name]
        if isinstance(backing, np.ndarray):
            return compare(backing, value)
        return [compare(v, value) for v in backing]

    def with_column(self, name: str, values: Sequence[Any] | Expr) -> "Table":
        """Add or replace a column.

        ``values`` is a sequence or an :class:`Expr` such as
        ``col("kg") * 2`` (vectorized on numpy-backed columns).
        """
        if isinstance(values, Expr):
            computed = values._evaluate(self)
            if isinstance(computed, np.ndarray):
                backing: np.ndarray | list[Any] = computed
            else:
                backing = _sniff(list(computed))
        elif callable(values):
            raise TableError(
                "with_column() takes a sequence or a col() expression; "
                f"got {type(values).__name__}"
            )
        else:
            backing = _adopt(values)
        if len(backing) != self._length:
            raise TableError(
                f"column {name!r} has {len(backing)} values, expected {self._length}"
            )
        columns = dict(self._columns)
        columns[name] = backing
        return Table._from_backing(columns, self._length)

    def drop(self, *names: str) -> "Table":
        """Remove the named columns."""
        for name in names:
            if name not in self._columns:
                raise TableError(f"unknown column {name!r}; have {self.column_names}")
        remaining = {
            name: values for name, values in self._columns.items() if name not in names
        }
        if not remaining:
            raise TableError("cannot drop every column")
        return Table._from_backing(remaining, self._length)

    def sort_by(self, *names: str, reverse: bool = False) -> "Table":
        """Sort rows lexicographically by the named columns.

        The sort is stable in both directions (ties keep their original
        row order, exactly like ``sorted``).
        """
        if not names:
            raise TableError("sort_by() needs at least one column name")
        for name in names:
            if name not in self._columns:
                raise TableError(f"unknown column {name!r}; have {self.column_names}")
        keys = [self._columns[name] for name in names]
        if all(isinstance(key, np.ndarray) for key in keys):
            return self._take(_stable_order(keys, reverse))
        lists = [self._list(name) for name in names]
        order = sorted(
            range(self._length),
            key=lambda index: tuple(values[index] for values in lists),
            reverse=reverse,
        )
        return self._take(order)

    def group_by(self, *names: str) -> list[tuple[tuple[Any, ...], "Table"]]:
        """Partition rows by the named key columns.

        Returns ``(key, sub_table)`` pairs in first-appearance order of
        each key.
        """
        if not names:
            raise TableError("group_by() needs at least one column name")
        for name in names:
            if name not in self._columns:
                raise TableError(f"unknown column {name!r}; have {self.column_names}")
        grouped = self._grouped_indices(names)
        if grouped is not None:
            keys, index_groups = grouped
            return [
                (key, self._take(indices))
                for key, indices in zip(keys, index_groups)
            ]
        groups: dict[tuple[Any, ...], list[int]] = {}
        key_lists = [self._list(name) for name in names]
        for index, key in enumerate(zip(*key_lists)):
            groups.setdefault(key, []).append(index)
        return [(key, self._take(indices)) for key, indices in groups.items()]

    def _group_codes(
        self, names: tuple[str, ...]
    ) -> tuple[np.ndarray, int, np.ndarray] | None:
        """Factorized group codes for the named key columns, or ``None``
        when any key column cannot be factorized exactly (object
        fallback, NaN keys, code-space overflow)."""
        key = ("codes", names)
        if key in self._cache:
            return self._cache[key]
        self._cache[key] = result = self._compute_group_codes(names)
        return result

    def _compute_group_codes(
        self, names: tuple[str, ...]
    ) -> tuple[np.ndarray, int, np.ndarray] | None:
        backings = [self._columns[name] for name in names]
        if not all(isinstance(b, np.ndarray) for b in backings):
            return None
        for backing in backings:
            if backing.dtype.kind == "f" and np.isnan(backing).any():
                return None  # NaN keys: hash and sort semantics diverge
        codes, count, firsts = _factorize(backings[0])
        for backing in backings[1:]:
            extra, extra_count, _ = _factorize(backing)
            if count * extra_count >= 2**62:
                return None
            codes, count, firsts = _factorize(codes * extra_count + extra)
        return (codes, count, firsts)

    def _grouped_indices(
        self, names: Sequence[str]
    ) -> tuple[list[tuple[Any, ...]], list[np.ndarray]] | None:
        """Vectorized grouping: first-appearance-ordered keys plus the
        row indices of each group (row order preserved within groups)."""
        names = tuple(names)
        factorized = self._group_codes(names)
        if factorized is None:
            return None
        codes, count, firsts = factorized
        order = np.argsort(codes, kind="stable")
        boundaries = np.flatnonzero(np.diff(codes[order])) + 1
        index_groups = np.split(order, boundaries)
        key_columns = [self._columns[name][firsts].tolist() for name in names]
        keys = list(zip(*key_columns))
        return keys, index_groups

    def aggregate(self, by: Sequence[str], **aggregations: Aggregation) -> "Table":
        """Group by ``by`` and reduce columns.

        Each keyword maps an output column name to a pair
        ``(input_column, reducer)`` where the reducer is applied to the
        list of values of that column within the group:

        >>> t = Table({"k": ["a", "a", "b"], "v": [1, 2, 3]})
        >>> t.aggregate(by=["k"], total=("v", sum)).column("total")
        [3, 3]

        The built-in reducers ``sum``, ``len``, ``min``, and ``max``
        run as segmented numpy kernels when the value column is
        numeric; any other callable receives the group's values as a
        plain list, exactly as before.
        """
        if not aggregations:
            raise TableError("aggregate() needs at least one aggregation")
        by = list(by)
        for name in by:
            if name not in self._columns:
                raise TableError(f"unknown column {name!r}; have {self.column_names}")
        for out_name, (in_name, _) in aggregations.items():
            if in_name not in self._columns:
                raise TableError(
                    f"unknown column {in_name!r} for aggregation {out_name!r}"
                )
        vectorized = self._aggregate_vectorized(by, aggregations)
        if vectorized is not None:
            return vectorized
        records: list[Row] = []
        for key, group in self.group_by(*by):
            record: Row = dict(zip(by, key))
            for out_name, (in_name, reducer) in aggregations.items():
                record[out_name] = reducer(group.column(in_name))
            records.append(record)
        return Table.from_records(
            records, columns=list(by) + list(aggregations.keys())
        )

    def _aggregate_vectorized(
        self, by: list[str], aggregations: Mapping[str, Aggregation]
    ) -> "Table | None":
        if self._length == 0:
            return None
        factorized = self._group_codes(tuple(by))
        if factorized is None:
            return None
        codes, count, firsts = factorized
        order: np.ndarray | None = None
        starts: np.ndarray | None = None
        index_groups: list[np.ndarray] | None = None
        columns: dict[str, np.ndarray | list[Any]] = {
            name: self._columns[name][firsts] for name in by
        }

        def segmented() -> tuple[np.ndarray, np.ndarray]:
            nonlocal order, starts
            if order is None or starts is None:
                order = np.argsort(codes, kind="stable")
                boundaries = np.flatnonzero(np.diff(codes[order])) + 1
                starts = np.concatenate(([0], boundaries))
            return order, starts

        for out_name, (in_name, reducer) in aggregations.items():
            backing = self._columns[in_name]
            numeric = (
                isinstance(backing, np.ndarray) and backing.dtype.kind in "if"
            )
            if reducer is len:
                columns[out_name] = np.bincount(codes, minlength=count)
            elif reducer is sum and numeric:
                row_order, group_starts = segmented()
                columns[out_name] = np.add.reduceat(
                    backing[row_order], group_starts
                )
            elif reducer is min and numeric:
                row_order, group_starts = segmented()
                columns[out_name] = np.minimum.reduceat(
                    backing[row_order], group_starts
                )
            elif reducer is max and numeric:
                row_order, group_starts = segmented()
                columns[out_name] = np.maximum.reduceat(
                    backing[row_order], group_starts
                )
            else:
                if index_groups is None:
                    row_order, group_starts = segmented()
                    index_groups = np.split(row_order, group_starts[1:])
                values = self._list(in_name)
                columns[out_name] = _sniff(
                    [
                        reducer([values[i] for i in indices.tolist()])
                        for indices in index_groups
                    ]
                )
        return Table._from_backing(columns, count)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_text(self, float_format: str = "{:.3f}") -> str:
        """Render as an aligned plain-text table."""
        names = self.column_names

        def fmt(value: Any) -> str:
            if isinstance(value, bool):
                return str(value)
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        cells = [[fmt(value) for value in self._list(name)] for name in names]
        widths = [
            max([len(name)] + [len(cell) for cell in column])
            for name, column in zip(names, cells)
        ]
        header = "  ".join(name.ljust(width) for name, width in zip(names, widths))
        rule = "  ".join("-" * width for width in widths)
        lines = [header, rule]
        for row_index in range(self._length):
            lines.append(
                "  ".join(
                    cells[col_index][row_index].ljust(widths[col_index])
                    for col_index in range(len(names))
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Table({self._length} rows x {len(self._columns)} cols: {self.column_names})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _list(self, name: str) -> list[Any]:
        """The named column as a list of native Python scalars."""
        return _as_list(self._columns[name])

    def _take(self, indices: Sequence[int] | np.ndarray | slice) -> "Table":
        """Rows at ``indices``, as a new table sharing column kinds.

        Array columns use fancy indexing (or zero-copy views for
        slices); list columns gather element by element.
        """
        if isinstance(indices, slice):
            length = len(range(*indices.indices(self._length)))
            return Table._from_backing(
                {
                    name: values[indices]
                    for name, values in self._columns.items()
                },
                length,
            )
        array_index: np.ndarray | None = None
        list_index: list[int] | None = None
        columns: dict[str, np.ndarray | list[Any]] = {}
        for name, values in self._columns.items():
            if isinstance(values, np.ndarray):
                if array_index is None:
                    array_index = np.asarray(indices, dtype=np.intp)
                columns[name] = values[array_index]
            else:
                if list_index is None:
                    list_index = (
                        indices.tolist()
                        if isinstance(indices, np.ndarray)
                        else list(indices)
                    )
                columns[name] = [values[i] for i in list_index]
        return Table._from_backing(columns, len(indices))

