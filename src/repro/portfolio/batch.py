"""Struct-of-arrays batch kernels for the device-portfolio model.

The scalar reference (:func:`repro.portfolio.device.simulate_device`)
composes ``repro.fab`` and ``repro.mobile`` primitives one device at a
time. The kernels here evaluate a whole catalog against a whole
scenario axis in a handful of numpy expressions, mirroring the scalar
arithmetic *operation for operation* — including the unit round-trips
(``(x * 3.6e6) / 3.6e6``) the quantity types perform — so every element
of a batch result is bit-identical to the corresponding scalar call.
``tests/test_portfolio_batch_equivalence.py`` pins that contract.

Parameters are laid out as broadcastable 2-D arrays, device-minor:
device-varying parameters are ``(1, devices)`` rows and
scenario-varying overrides are ``(cells, 1)`` columns, so every stage
array is ``(columns, devices)`` and numpy's inner loops run along the
long, contiguous device axis. Each stage of the model runs on the
*distinct columns* of the scenario fields it reads
(:class:`_ColumnLayout`), so a 4 × 4 × 4 grid prices fab and yield on
16 columns and lifetime on 4, and only quantities that combine stages
are gathered wider.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import SimulationError
from ..fab.process import NODE_ROADMAP
from ..fab.yields import dies_per_wafer, murphy_yield, poisson_yield
from ..obs.recorder import active_recorder
from ..tabular import Table
from ..units import (
    DAYS_PER_YEAR,
    GRAMS_PER_KG,
    JOULES_PER_KWH,
    SECONDS_PER_HOUR,
)
from .catalog import OVERRIDABLE_FIELDS, DeviceSpec
from .device import DEVICE_METRICS

__all__ = ["simulate_device_batch"]

#: Roadmap coefficients as gather tables, indexed by roadmap position.
_NODE_NAMES = tuple(node.name for node in NODE_ROADMAP)
_NODE_INDEX = {name: index for index, name in enumerate(_NODE_NAMES)}
_ENERGY_KWH_PER_CM2 = np.array(
    [node.energy_kwh_per_cm2 for node in NODE_ROADMAP], dtype=np.float64
)
_GAS_KG_PER_CM2 = np.array(
    [node.gas_kg_per_cm2 for node in NODE_ROADMAP], dtype=np.float64
)
_MATERIAL_KG_PER_CM2 = np.array(
    [node.material_kg_per_cm2 for node in NODE_ROADMAP], dtype=np.float64
)
_DEFECT_PER_CM2 = np.array(
    [node.defect_density_per_cm2 for node in NODE_ROADMAP], dtype=np.float64
)

#: Numeric DeviceSpec fields that become parameter arrays ("node" is
#: resolved to a roadmap index separately; identity fields are labels).
_NUMERIC_FIELDS = tuple(
    spec_field.name
    for spec_field in dataclasses.fields(DeviceSpec)
    if spec_field.name not in ("name", "manufacturer", "node", "yield_model")
)
_numeric_values = operator.attrgetter(*_NUMERIC_FIELDS)

#: Figure 14 gas split and material split, as in ``from_node``.
_PFC_SHARE = 0.50
_CHEM_SHARE = 0.37
_BULK_SHARE = 0.13
_RAW_SHARE = 0.65
_OTHER_SHARE = 0.35


def _node_index(name: Any) -> int:
    if name not in _NODE_INDEX:
        raise SimulationError(
            f"unknown process node {name!r}; roadmap has {list(_NODE_NAMES)}"
        )
    return _NODE_INDEX[name]


def _device_columns(specs: Sequence[DeviceSpec]) -> tuple:
    """A catalog's parameters as row-sliceable arrays, gathered once.

    Returns ``(numeric, node_axis, murphy_mask, names)``: a ``(devices,
    fields)`` matrix of the numeric fields, ``(devices, 1)`` node and
    yield-model arrays, and the device names. Slicing all four by one
    row range gives a sub-catalog, so sharded sweeps gather once and
    ship arrays to their chunks instead of :class:`DeviceSpec` objects;
    :func:`_parameter_grid` turns a slice into ``(1, devices)`` rows.
    """
    if not specs:
        raise SimulationError("need at least one device in the portfolio")
    numeric = np.fromiter(
        itertools.chain.from_iterable(map(_numeric_values, specs)),
        dtype=np.float64,
        count=len(specs) * len(_NUMERIC_FIELDS),
    ).reshape(len(specs), -1)
    # Comprehensions over plain attribute loads beat attrgetter maps
    # here; numpy converts the node indices to float itself.
    node_axis = np.array(
        [_NODE_INDEX[spec.node] for spec in specs], dtype=np.float64
    ).reshape(-1, 1)
    murphy_mask = np.array(
        [spec.yield_model == "murphy" for spec in specs], dtype=bool
    ).reshape(-1, 1)
    return numeric, node_axis, murphy_mask, [spec.name for spec in specs]


def _parameter_grid(
    columns: tuple,
    records: Sequence[Mapping[str, Any]],
    matrix: Any = None,
) -> tuple:
    """Broadcastable parameter arrays for (scenario cells × devices).

    ``columns`` is (a row slice of) :func:`_device_columns` output.
    Device parameters come out as ``(1, devices)`` rows; scenario-record
    overrides replace them with ``(cells, 1)`` columns, where ``cells`` is
    ``scenarios`` for point sweeps or ``scenarios × draws`` when a
    :class:`~repro.uncertainty.draws.DrawMatrix` is supplied (its
    sampled rows flatten scenario-major, draw-minor — the shared axis
    convention). Returns ``(params, node_axis, murphy_mask, names,
    scenario_fields)``.
    """
    if not records:
        raise SimulationError("need at least one scenario")
    draws = matrix.draws if matrix is not None else 1
    numeric, node_axis, murphy_mask, names = columns
    # Contiguous (1, devices) rows: strided views slow the kernels.
    params = dict(
        zip(_NUMERIC_FIELDS, np.ascontiguousarray(numeric.T)[:, None, :])
    )
    node_axis = node_axis.reshape(1, -1)
    murphy_mask = murphy_mask.reshape(1, -1)
    scenario_fields: set[str] = set()
    for name in records[0]:
        if name not in OVERRIDABLE_FIELDS:
            raise SimulationError(
                f"cannot sweep {name!r}: portfolio scenarios may override "
                f"{sorted(OVERRIDABLE_FIELDS)}"
            )
        scenario_fields.add(name)
        if name == "node":
            indices = np.array(
                [float(_node_index(record[name])) for record in records],
                dtype=np.float64,
            )
            node_axis = np.repeat(indices, draws).reshape(-1, 1)
            continue
        if matrix is not None and name in matrix.values:
            params[name] = matrix.values[name].reshape(-1, 1)
            continue
        values = []
        for index, record in enumerate(records):
            value = record[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SimulationError(
                    f"portfolio scenario {index}: axis {name!r} holds "
                    f"non-numeric {value!r}"
                )
            values.append(float(value))
        params[name] = np.repeat(
            np.array(values, dtype=np.float64), draws
        ).reshape(-1, 1)
    return params, node_axis, murphy_mask, names, scenario_fields


def _complain(
    field: str,
    array: np.ndarray,
    mask: np.ndarray,
    names: Sequence[str],
    scenario_fields: "set[str]",
    what: str,
) -> None:
    """Raise for the first violating cell, naming device or scenario.

    ``mask`` and ``array`` are ``(cells, devices)``-broadcastable; the
    first violation is taken device-major, as the scalar path meets it.
    """
    device, cell = (int(index) for index in np.argwhere(mask.T)[0])
    value = array.T[device, cell]
    if field in scenario_fields:
        raise SimulationError(
            f"portfolio scenario cell {cell}: {field} {what}, got {value!r}"
        )
    raise SimulationError(
        f"device {names[device]!r}: {field} {what}, got {value!r}"
    )


_POSITIVE_FIELDS = (
    "die_area_mm2",
    "wafer_diameter_mm",
    "fab_intensity_g_per_kwh",
    "use_intensity_g_per_kwh",
    "battery_capacity_wh",
    "active_power_w",
    "lifetime_years",
    "lifetime_scale",
    "replacement_cycle_years",
)
_NON_NEGATIVE_FIELDS = (
    "non_ic_kg",
    "defect_density_scale",
    "standby_power_w",
    "units",
)


def _validate_params(
    params: Mapping[str, np.ndarray],
    names: Sequence[str],
    scenario_fields: "set[str]",
    fields: "set[str] | None" = None,
) -> None:
    """Elementwise re-validation of (possibly overridden) parameters.

    The scalar path revalidates through ``DeviceSpec.__post_init__`` on
    every override application; the batch path mirrors those checks on
    the parameter arrays so bad scenario values fail loudly — naming
    the offending device or scenario cell — instead of flowing NaNs
    into fleet aggregates. ``fields`` limits the checks to the rules
    that read one of them (every rule when ``None``).
    """

    def reads(*rule_fields: str) -> bool:
        return fields is None or not fields.isdisjoint(rule_fields)

    for field, array in params.items():
        if not reads(field):
            continue
        finite = np.isfinite(array)
        if not finite.all():
            _complain(
                field, array, ~finite, names, scenario_fields, "is non-finite"
            )
    for field in _POSITIVE_FIELDS:
        if not reads(field):
            continue
        bad = params[field] <= 0.0
        if bad.any():
            _complain(
                field, params[field], bad, names, scenario_fields,
                "must be positive",
            )
    for field in _NON_NEGATIVE_FIELDS:
        if not reads(field):
            continue
        bad = params[field] < 0.0
        if bad.any():
            _complain(
                field, params[field], bad, names, scenario_fields,
                "must be non-negative",
            )
    for field in ("abatement_coverage", "abatement_efficiency"):
        if not reads(field):
            continue
        bad = (params[field] < 0.0) | (params[field] > 1.0)
        if bad.any():
            _complain(
                field, params[field], bad, names, scenario_fields,
                "must be in [0, 1]",
            )
    if reads("charge_efficiency"):
        bad = (params["charge_efficiency"] <= 0.0) | (
            params["charge_efficiency"] > 1.0
        )
        if bad.any():
            _complain(
                "charge_efficiency", params["charge_efficiency"], bad, names,
                scenario_fields, "must be in (0, 1]",
            )
    if reads("active_hours_per_day"):
        hours = params["active_hours_per_day"]
        bad = (hours < 0.0) | (hours > 24.0)
        if bad.any():
            _complain(
                "active_hours_per_day", hours, bad, names, scenario_fields,
                "must be within a day",
            )
    if reads("active_power_w", "standby_power_w"):
        bad = params["active_power_w"] < params["standby_power_w"]
        if bad.any():
            _complain(
                "active_power_w",
                np.broadcast_to(params["active_power_w"], bad.shape),
                bad, names, scenario_fields, "is below standby power",
            )
    if reads("node_shift"):
        shift = params["node_shift"]
        bad = shift != np.trunc(shift)
        if bad.any():
            _complain(
                "node_shift", shift, bad, names, scenario_fields,
                "must be an integral number of roadmap steps",
            )


def check_scenario_cells(
    columns: tuple, records: Sequence[Mapping[str, Any]]
) -> None:
    """Raise what the kernel's parameter checks raise for ``records``.

    ``columns`` is :func:`_device_columns` output of a validated
    catalog, so only the rules that read an overridden field can fail:
    override names, value types, node names and those
    :func:`_validate_params` rules are checked without computing a
    metric. What needs the metrics themselves (zero good dies,
    non-finite results) is left to the kernel.
    """
    params, _, _, names, scenario_fields = _parameter_grid(columns, records)
    _validate_params(params, names, scenario_fields, fields=scenario_fields)


#: The fields each stage of :func:`_metrics` reads.
_FAB_FIELDS = frozenset({
    "node",
    "node_shift",
    "defect_density_scale",
    "wafer_diameter_mm",
    "fab_intensity_g_per_kwh",
    "abatement_coverage",
    "abatement_efficiency",
    "die_area_mm2",
    "non_ic_kg",
})
_USE_FIELDS = frozenset({
    "active_hours_per_day",
    "active_power_w",
    "standby_power_w",
    "charge_efficiency",
    "use_intensity_g_per_kwh",
})
_LIFETIME_FIELDS = frozenset({"lifetime_years", "lifetime_scale"})
_REPLACEMENT_FIELDS = frozenset({"replacement_cycle_years"})

#: Unions of stage fields: a combined quantity lives on the distinct
#: columns of every field its inputs read.
_USE_LIFE_FIELDS = _USE_FIELDS | _LIFETIME_FIELDS
_BREAK_EVEN_FIELDS = _FAB_FIELDS | _USE_FIELDS
_TOTAL_FIELDS = _FAB_FIELDS | _USE_LIFE_FIELDS
_FAB_REPLACEMENT_FIELDS = _FAB_FIELDS | _REPLACEMENT_FIELDS
_ANNUAL_FIELDS = _TOTAL_FIELDS | _REPLACEMENT_FIELDS

#: The fields each checked or reduced :func:`_metrics` array reads, so
#: the columns it holds.
_METRIC_FIELDS = {
    "embodied_kg": _FAB_FIELDS,
    "use_kg": _USE_LIFE_FIELDS,
    "total_kg": _TOTAL_FIELDS,
    "break_even_days": _BREAK_EVEN_FIELDS,
    "annual_kg": _ANNUAL_FIELDS,
}


class _ColumnLayout:
    """The distinct scenario columns of a parameter grid, per field set.

    A stage that reads fields ``F`` is evaluated once per distinct
    column of the scenario fields in ``F`` (all cells share one column
    when ``F`` holds none), as a ``(columns, devices)`` array: one row
    per distinct column, devices along the contiguous inner axis.
    :meth:`columns` returns ``(first, inverse)``: the first cell of each
    distinct column, in order of appearance, and the column of every
    cell. Columns are keyed on the values' ``uint64`` bit patterns, so
    ``-0.0`` never merges with ``0.0``, and each element of a stage
    comes from the same float operations on the same inputs as in the
    full ``(cells, devices)`` broadcast.
    """

    def __init__(
        self,
        params: Mapping[str, np.ndarray],
        node_axis: np.ndarray,
        scenario_fields: "set[str]",
    ) -> None:
        self._params = {**params, "node": node_axis}
        self._keys = {
            name: self._params[name].reshape(-1).view(np.uint64)
            for name in scenario_fields
        }
        self._varying = frozenset(scenario_fields)
        self.count = max(map(len, self._keys.values()), default=1)
        self._memo: "dict[frozenset, tuple]" = {}

    def columns(self, fields: frozenset) -> tuple:
        """``(first, inverse)`` of the distinct columns ``fields`` read."""
        varying = self._varying & fields
        if varying not in self._memo:
            self._memo[varying] = self._distinct(sorted(varying))
        return self._memo[varying]

    def _distinct(self, varying: "list[str]") -> tuple:
        if not varying or self.count == 1:
            return np.zeros(1, np.intp), np.zeros(self.count, np.intp)
        keys = zip(*(self._keys[name].tolist() for name in varying))
        columns: dict = {}
        first, inverse = [], []
        for cell, key in enumerate(keys):
            if key not in columns:
                columns[key] = len(first)
                first.append(cell)
            inverse.append(columns[key])
        return np.array(first, np.intp), np.array(inverse, np.intp)

    def reader(self, fields: frozenset) -> Any:
        """``read(name)``: parameter ``name`` on the columns of ``fields``."""
        first, _ = self.columns(fields)
        gather = len(first) < self.count

        def read(name: str) -> np.ndarray:
            value = self._params[name]
            return value[first] if gather and name in self._keys else value

        return read

    def lift(
        self,
        values: np.ndarray,
        source: frozenset,
        target: frozenset,
    ) -> np.ndarray:
        """``values`` on the columns of ``source``, gathered onto ``target``'s.

        ``target`` holds every field of ``source``, so its columns refine
        the source's: equal column counts mean equal columns in equal
        order, and a single source column broadcasts.
        """
        if len(values) == 1:
            return values
        first, _ = self.columns(target)
        if len(values) == len(first):
            return values
        return values[self.columns(source)[1][first]]

    def spread(
        self, values: np.ndarray, fields: frozenset, rows: int
    ) -> np.ndarray:
        """``values`` on the columns of ``fields``, as ``(rows, cells)``.

        The result is a transposed view, device-major like the scalar
        path, so ``argwhere`` meets the failing cells in its order. A single column (the values read no varying
        field of ``fields``) broadcasts to every cell.
        """
        if len(values) > 1:
            values = values[self.columns(fields)[1]]
        return np.broadcast_to(values, (self.count, rows)).T


def _check_finite(
    layout: _ColumnLayout,
    metrics: Mapping[str, np.ndarray],
    names: Sequence[str],
) -> None:
    """Raise for the first non-finite total, break-even or annual cell."""
    for metric in ("total_kg", "break_even_days", "annual_kg"):
        finite = np.isfinite(metrics[metric])
        if not finite.all():
            full = layout.spread(~finite, _METRIC_FIELDS[metric], len(names))
            device, cell = (int(index) for index in np.argwhere(full)[0])
            raise SimulationError(
                f"device {names[device]!r}: metric {metric!r} is non-finite "
                f"at scenario cell {cell}"
            )


def _wafer_stage(fab: Any, murphy_mask: np.ndarray) -> tuple:
    """``(node index, wafer grams, good dies per wafer)`` on fab columns.

    ``fab(name)`` reads a parameter on the fab stage's columns. The
    per-wafer temporaries die with this frame, before wider arrays are
    built.
    """
    # Node resolution: clamped roadmap shift, then coefficient gathers.
    resolved = np.clip(
        fab("node") + fab("node_shift"), 0.0, float(len(NODE_ROADMAP) - 1)
    ).astype(np.intp)
    energy_coeff = _ENERGY_KWH_PER_CM2[resolved]
    gas_coeff = _GAS_KG_PER_CM2[resolved]
    material_coeff = _MATERIAL_KG_PER_CM2[resolved]
    defect = _DEFECT_PER_CM2[resolved] * fab("defect_density_scale")

    # Wafer footprint: WaferFootprintModel.from_node + AbatementPolicy.
    wafer_diameter = fab("wafer_diameter_mm")
    radius_cm = wafer_diameter / 20.0
    area_cm2 = np.pi * radius_cm * radius_cm
    energy_g = fab("fab_intensity_g_per_kwh") * (
        ((energy_coeff * area_cm2) * JOULES_PER_KWH) / JOULES_PER_KWH
    )
    gas_g = (gas_coeff * area_cm2) * GRAMS_PER_KG
    material_g = (material_coeff * area_cm2) * GRAMS_PER_KG
    keep = 1.0 - (fab("abatement_coverage") * fab("abatement_efficiency"))
    pfc_g = (gas_g * _PFC_SHARE) * keep
    chem_g = (gas_g * _CHEM_SHARE) * keep
    bulk_g = (gas_g * _BULK_SHARE) * keep
    raw_g = material_g * _RAW_SHARE
    other_g = material_g * _OTHER_SHARE
    wafer_g = (
        ((((0.0 + energy_g) + pfc_g) + chem_g) + bulk_g) + raw_g
    ) + other_g

    # Yield: good dies per wafer, per-device model choice.
    die_area = fab("die_area_mm2")
    candidates = dies_per_wafer(wafer_diameter, die_area)
    fraction = np.where(
        murphy_mask,
        murphy_yield(die_area, defect),
        poisson_yield(die_area, defect),
    )
    return resolved, wafer_g, candidates * fraction


def _metrics(
    params: Mapping[str, np.ndarray],
    node_axis: np.ndarray,
    murphy_mask: np.ndarray,
    names: Sequence[str],
    scenario_fields: "set[str]",
) -> "tuple[_ColumnLayout, dict[str, np.ndarray]]":
    """Per-(column, device) metric arrays, mirroring the scalar reference.

    Returns ``(layout, metrics)``: each metric array is ``(columns,
    devices)``, its values on the distinct columns of its
    :data:`_METRIC_FIELDS` entry (``layout.spread`` gives the
    device-major ``(devices, cells)`` view). Errors
    name the first failing (device, cell) of that view, as a full
    broadcast would. Every expression replicates
    ``simulate_device``'s float operations in the same order and
    grouping — including the quantity types' unit round-trips — so
    elements are bit-identical to scalar calls.
    """
    _validate_params(params, names, scenario_fields)
    layout = _ColumnLayout(params, node_axis, scenario_fields)

    fab = layout.reader(_FAB_FIELDS)
    resolved, wafer_g, good = _wafer_stage(fab, murphy_mask)
    dead = good <= 0.0
    if dead.any():
        full = layout.spread(dead, _FAB_FIELDS, len(names))
        device, cell = (int(index) for index in np.argwhere(full)[0])
        raise SimulationError(
            f"device {names[device]!r}: zero good dies per wafer at "
            f"scenario cell {cell}"
        )
    ic_kg = (wafer_g / good) / GRAMS_PER_KG
    embodied_kg = ic_kg + fab("non_ic_kg")

    # Non-finite cells are _check_finite's to report, as one error
    # naming the first failing (device, cell), not as a warning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Use phase: UsageProfile / Battery / use_phase_bottom_up.
        use = layout.reader(_USE_FIELDS)
        hours = use("active_hours_per_day")
        active_j = use("active_power_w") * (hours * SECONDS_PER_HOUR)
        standby_j = use("standby_power_w") * (
            (24.0 - hours) * SECONDS_PER_HOUR
        )
        annual_j = (active_j + standby_j) * DAYS_PER_YEAR
        wall_j = annual_j * (1.0 / use("charge_efficiency"))
        per_year_g = use("use_intensity_g_per_kwh") * (wall_j / JOULES_PER_KWH)
        life = layout.reader(_LIFETIME_FIELDS)
        lifetime_years = life("lifetime_years") * life("lifetime_scale")
        replacement_years = layout.reader(_REPLACEMENT_FIELDS)(
            "replacement_cycle_years"
        )

        lift = layout.lift
        life_years = lift(lifetime_years, _LIFETIME_FIELDS, _USE_LIFE_FIELDS)
        use_g = lift(per_year_g, _USE_FIELDS, _USE_LIFE_FIELDS) * life_years
        use_kg = use_g / GRAMS_PER_KG
        daily_use_g = per_year_g / DAYS_PER_YEAR
        # Each annualized term divides on its own columns before the sum.
        per_cycle_kg = lift(
            embodied_kg, _FAB_FIELDS, _FAB_REPLACEMENT_FIELDS
        ) / lift(
            replacement_years, _REPLACEMENT_FIELDS, _FAB_REPLACEMENT_FIELDS
        )
        per_life_kg = use_kg / life_years

        metrics = {
            "node_index": resolved,
            "ic_kg": ic_kg,
            "embodied_kg": embodied_kg,
            "use_kg": use_kg,
            "lifetime_years": lifetime_years,
            "total_kg": lift(embodied_kg, _FAB_FIELDS, _TOTAL_FIELDS)
            + lift(use_kg, _USE_LIFE_FIELDS, _TOTAL_FIELDS),
            "break_even_days": lift(
                embodied_kg * GRAMS_PER_KG, _FAB_FIELDS, _BREAK_EVEN_FIELDS
            ) / lift(daily_use_g, _USE_FIELDS, _BREAK_EVEN_FIELDS),
            "annual_kg": lift(
                per_cycle_kg, _FAB_REPLACEMENT_FIELDS, _ANNUAL_FIELDS
            ) + lift(per_life_kg, _USE_LIFE_FIELDS, _ANNUAL_FIELDS),
        }
    _check_finite(layout, metrics, names)
    return layout, metrics


def simulate_device_batch(specs: Sequence[DeviceSpec]) -> Table:
    """Simulate a catalog of devices in one struct-of-arrays call.

    Returns one row per device — identity columns (``device``,
    ``manufacturer``, ``node`` as fabbed after the clamped node shift),
    the fleet ``units`` count, then the :data:`DEVICE_METRICS` — with
    every float bit-identical to :func:`~repro.portfolio.device
    .simulate_device` on the same spec.
    """
    specs = tuple(specs)
    params, node_axis, murphy_mask, names, scenario_fields = _parameter_grid(
        _device_columns(specs), [{}]
    )
    with active_recorder().span(
        "batch", fn="simulate_device_batch", scenarios=len(specs)
    ):
        _, metrics = _metrics(
            params, node_axis, murphy_mask, names, scenario_fields
        )
        # One scenario without overrides: every metric is (1, devices).
        metrics["embodied_fraction"] = (
            metrics["embodied_kg"] / metrics["total_kg"]
        )
        metrics["amortizes"] = metrics["break_even_days"] <= (
            metrics["lifetime_years"] * DAYS_PER_YEAR
        )
        columns: dict[str, Any] = {
            "device": list(names),
            "manufacturer": [spec.manufacturer for spec in specs],
            "node": [
                _NODE_NAMES[index] for index in metrics["node_index"][0]
            ],
            "units": params["units"].reshape(-1),
        }
        for metric in DEVICE_METRICS:
            columns[metric] = metrics[metric].reshape(-1)
        return Table(columns)
