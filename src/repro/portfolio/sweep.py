"""Fleet-level portfolio sweeps: millions of devices, exact aggregation.

``sweep_portfolio`` evaluates a device catalog against a scenario grid
and aggregates to one row per scenario — fleet embodied / use / total /
replacement-cycle-annualized carbon in tonnes, the embodied share, and
the catalog-mean break-even days. ``sweep_portfolio_uncertain`` runs
the same decision space with distribution-tagged axes (fab-yield and
lifetime bands through the shared :mod:`repro.uncertainty.draws` path)
and returns an :class:`~repro.uncertainty.UncertainResult`.

Sharding is over the *device* axis (scenarios stay whole). The sweep
gathers the catalog's parameter columns once and ships row slices to
the chunks; each chunk reduces its own (device, cell) quantities to an
*exact expansion* per cell — a few floats whose real sum is the chunk's
column sum with no rounding (:func:`_exact_partials`), extracted once
per distinct column of the fields the quantity reads — so a chunk
result is O(cells) whatever its device count. The sweep then runs one
:func:`math.fsum` per cell over every chunk's expansion. ``fsum`` is
correctly rounded, so each aggregate is the exact device sum rounded
once: bit-identical to ``fsum`` over all the rows, independent of chunk
and job geometry, and *permutation-invariant* over the device axis. The
:class:`repro.exec.ExecOptions` knobs forward to
:func:`repro.exec.run_sharded` unchanged.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..analysis.uncertainty import is_distribution
from ..errors import SimulationError
from ..exec import run_sharded
from ..obs.recorder import active_recorder
from ..scenarios.runner import (
    _attach_axes,
    _reject_distribution_values,
    _scalar_axis_names,
)
from ..tabular import Table
from ..uncertainty.draws import _check_records, build_draw_matrix
from ..uncertainty.result import UncertainResult
from ..uncertainty.sweeps import _axes_table, _kept_axis_names, _reshape_metrics
from .batch import (
    _METRIC_FIELDS,
    _ColumnLayout,
    _device_columns,
    _metrics,
    _parameter_grid,
)
from .catalog import OVERRIDABLE_FIELDS, DeviceSpec

__all__ = ["PORTFOLIO_METRICS", "sweep_portfolio", "sweep_portfolio_uncertain"]

_KG_PER_TONNE = 1e3

#: Fleet metrics of the aggregated sweep (and the uncertain samples).
PORTFOLIO_METRICS = (
    "embodied_t",
    "use_t",
    "total_t",
    "annual_t",
    "embodied_fraction",
    "break_even_days_mean",
)

#: Extraction levels before a column's leftover residuals ship raw; the
#: portfolio quantities clear in two or three.
_MAX_LEVELS = 6
#: Largest ``log2(σ)`` extracted. Larger columns ship raw, keeping every
#: expansion float within ``2**1000``, so merging the expansions of up
#: to a million chunks cannot overflow where ``fsum`` over rows would not.
_MAX_SIGMA_EXPONENT = 1000
#: Chunks of at most this many (device, cell) values ship their rows raw:
#: rows are their own exact expansion, and below ~2k values numpy's
#: per-call overhead makes the extraction slower than ``fsum`` over rows.
_RAW_VALUES = 2048
#: The field the fleet ``units`` weight reads.
_UNITS = frozenset({"units"})


def _validate_axis_names(records: Sequence[Mapping[str, Any]]) -> None:
    for name in records[0]:
        if name not in OVERRIDABLE_FIELDS:
            raise SimulationError(
                f"cannot sweep {name!r}: portfolio scenarios may override "
                f"{sorted(OVERRIDABLE_FIELDS)}"
            )
    for index, record in enumerate(records):
        if "node" in record and is_distribution(record["node"]):
            raise SimulationError(
                f"scenario {index}: the 'node' axis is categorical and "
                "cannot be distribution-tagged"
            )


def _exact_partials(values: np.ndarray) -> "list[list[float]]":
    """Per-column exact expansions of a ``(rows, columns)`` float array.

    Each column's list of floats has the column sum as its exact real
    sum, so :func:`math.fsum` over the lists of any row blocks is the
    correctly rounded sum of all their rows. Each level is a
    Rump–Ogita–Oishi error-free extraction: with ``σ = 2**(M + e)``,
    ``2**M >= rows + 2`` and ``2**e`` above the column's largest
    residual ``r``, the high parts ``q = (σ + r) − σ`` sum exactly in
    any order and ``r − q`` is exact. Columns holding a non-finite
    value or a σ above ``2**_MAX_SIGMA_EXPONENT`` ship their values
    raw, as do residuals left after :data:`_MAX_LEVELS` levels, so
    ``fsum`` meets their inf, nan and overflow as it would in the rows.
    """
    shift = (len(values) + 1).bit_length()
    residual = np.array(values, dtype=np.float64)
    high = np.abs(residual)
    top = high.max(axis=0, initial=0.0)
    raw = ~np.isfinite(top) | (np.frexp(top)[1] + shift > _MAX_SIGMA_EXPONENT)
    residual[:, raw] = 0.0
    top[raw] = 0.0
    levels = []
    while top.any() and len(levels) < _MAX_LEVELS:
        sigma = np.ldexp(1.0, np.frexp(top)[1] + shift)
        np.add(residual, sigma, out=high)
        high -= sigma
        levels.append(high.sum(axis=0))
        residual -= high
        top = np.abs(residual, out=high).max(axis=0)
    partials = np.reshape(levels, (len(levels), residual.shape[1])).T.tolist()
    for column in np.flatnonzero(raw):
        partials[column] += values[:, column].tolist()
    for column in np.flatnonzero(top):
        leftover = residual[:, column]
        partials[column] += leftover[leftover != 0.0].tolist()
    return partials


def _quantities(
    layout: _ColumnLayout, metrics: Mapping[str, np.ndarray]
) -> Iterator:
    """``(name, fields read, values)`` of each reduced quantity in turn.

    Built one at a time, so a chunk holds one quantity's array (and its
    extraction's) at once.
    """
    units = layout.reader(_UNITS)("units")
    for name in ("embodied_kg", "use_kg", "annual_kg"):
        fields = _METRIC_FIELDS[name] | _UNITS
        yield name, fields, layout.lift(
            metrics[name], _METRIC_FIELDS[name], fields
        ) * layout.lift(units, _UNITS, fields)
    yield "units", _UNITS, units
    yield (
        "break_even_days",
        _METRIC_FIELDS["break_even_days"],
        metrics["break_even_days"],
    )


def _chunk_partials(grid: tuple, cells: int) -> tuple:
    """``(devices, {quantity: per-cell expansions})`` for one chunk.

    Each quantity is extracted once per distinct column of the fields
    it reads, and every cell takes its column's expansion.
    """
    devices = len(grid[3])
    layout, metrics = _metrics(*grid)
    raw = devices * cells <= _RAW_VALUES
    partials = {}
    for name, fields, values in _quantities(layout, metrics):
        block = np.broadcast_to(values, (devices, values.shape[1]))
        distinct = block.T.tolist() if raw else _exact_partials(block)
        if len(distinct) == 1:
            # One column (no varying field read): its sum in every cell.
            partials[name] = distinct * cells
        else:
            # A list per cell, not shared: a chunk result holds one
            # expansion per cell, and its pickled form (what crosses to
            # the driver) grows with the cells, as
            # tests/test_portfolio_partials.py pins. Shared lists would
            # pickle once per column.
            inverse = layout.columns(fields)[1].tolist()
            partials[name] = [list(distinct[index]) for index in inverse]
    return devices, partials


def _portfolio_chunk(payload: tuple, start: int, stop: int) -> tuple:
    """Chunk kernel: devices ``[start, stop)`` × every scenario.

    Module-level so :func:`repro.exec.run_sharded` workers can import
    it by name; scenarios are never sharded, so every chunk shares the
    full scenario axis and returns one expansion per cell.
    """
    columns, records = payload
    rows = tuple(part[start:stop] for part in columns)
    return _chunk_partials(_parameter_grid(rows, records), len(records))


def _portfolio_uncertain_chunk(payload: tuple, start: int, stop: int) -> tuple:
    """Chunk kernel: devices ``[start, stop)`` × every (scenario, draw).

    The draw matrix is rebuilt from the full scenario records —
    per-scenario seeded streams make it identical in every chunk — so
    sharding the device axis never perturbs the samples.
    """
    columns, records, draws, seed = payload
    rows = tuple(part[start:stop] for part in columns)
    matrix = build_draw_matrix(records, draws, seed)
    grid = _parameter_grid(rows, records, matrix)
    return _chunk_partials(grid, len(records) * draws)


def _fleet_aggregates(
    chunks: Sequence[tuple], cells: int
) -> "dict[str, np.ndarray]":
    """Per-cell fleet aggregates: one ``fsum`` over every chunk's floats."""
    devices = sum(count for count, _ in chunks)
    sums = {
        name: np.array([
            math.fsum(itertools.chain.from_iterable(parts))
            for parts in zip(*(partials[name] for _, partials in chunks))
        ])
        for name in chunks[0][1]
    }
    embodied_sum, use_sum = sums["embodied_kg"], sums["use_kg"]
    embodied_t = embodied_sum / _KG_PER_TONNE
    use_t = use_sum / _KG_PER_TONNE
    return {
        "devices": np.full(cells, devices, dtype=np.int64),
        "units": sums["units"],
        "embodied_t": embodied_t,
        "use_t": use_t,
        "total_t": embodied_t + use_t,
        "annual_t": sums["annual_kg"] / _KG_PER_TONNE,
        "embodied_fraction": embodied_sum / (embodied_sum + use_sum),
        "break_even_days_mean": sums["break_even_days"] / devices,
    }


def sweep_portfolio(
    catalog: Iterable[DeviceSpec],
    scenarios: Iterable[Mapping[str, Any]],
    **options: Any,
) -> Table:
    """Run a device catalog through a scenario grid, fleet-aggregated.

    Returns one row per scenario: the scenario's scalar axis values,
    then ``devices`` (catalog size), fleet ``units``, and the
    :data:`PORTFOLIO_METRICS` — embodied / use / total /
    replacement-cycle-annualized fleet carbon in tonnes, the embodied
    share of the fleet total, and the catalog-mean break-even days.
    Scenario axes override any numeric :class:`DeviceSpec` field (plus
    the ``node`` name) fleet-wide.

    ``options`` (the :class:`repro.exec.ExecOptions` knobs) shard the
    *device* axis through :func:`repro.exec.run_sharded`; results are
    element-identical for every geometry and invariant under catalog
    permutation (exactly rounded device sums). In skip mode the table
    aggregates only the devices whose chunks survived.
    """
    specs = tuple(catalog)
    columns = _device_columns(specs)
    records = _check_records(list(scenarios))
    _reject_distribution_values(records)
    _validate_axis_names(records)
    with active_recorder().span(
        "batch", fn="sweep_portfolio", scenarios=len(records),
        devices=len(specs),
    ):
        chunks = run_sharded(
            _portfolio_chunk, (columns, records), len(specs), **options
        )
    return _attach_axes(
        records,
        Table(_fleet_aggregates(chunks, len(records))),
        keep=_scalar_axis_names(records),
    )


def sweep_portfolio_uncertain(
    catalog: Iterable[DeviceSpec],
    scenarios: Iterable[Mapping[str, Any]],
    *,
    draws: int = 256,
    seed: int = 0,
    **options: Any,
) -> UncertainResult:
    """Portfolio sweep with distribution-tagged scenario axes.

    Tagged axes (fab-yield via ``defect_density_scale``, lifetime via
    ``lifetime_scale``, or any other numeric :class:`DeviceSpec` field)
    are sampled through the shared seeded
    :func:`~repro.uncertainty.draws.build_draw_matrix` path — the same
    per-scenario ``default_rng(seed)`` streams the scalar reference
    consumes — and every (device, scenario, draw) cell goes through the
    batch kernels in one broadcast. Fleet aggregates reduce over
    devices with exactly rounded sums, giving a
    :class:`~repro.uncertainty.UncertainResult` whose
    :data:`PORTFOLIO_METRICS` samples are bit-identical for every
    ``jobs``/``chunk_size`` geometry of ``options`` (the *device* axis
    is what shards). In skip mode the samples cover the surviving
    devices.
    """
    specs = tuple(catalog)
    columns = _device_columns(specs)
    records = _check_records(list(scenarios))
    _validate_axis_names(records)
    if draws <= 0:
        raise SimulationError("draw count must be positive")
    with active_recorder().span(
        "batch", fn="sweep_portfolio_uncertain", scenarios=len(records),
        draws=draws, devices=len(specs),
    ):
        chunks = run_sharded(
            _portfolio_uncertain_chunk, (columns, records, draws, seed),
            len(specs), **options,
        )
    aggregates = _fleet_aggregates(chunks, len(records) * draws)
    flat = Table({metric: aggregates[metric] for metric in PORTFOLIO_METRICS})
    return UncertainResult(
        axes=_axes_table(records, keep=_kept_axis_names(records)),
        samples=_reshape_metrics(flat, PORTFOLIO_METRICS, len(records), draws),
        draws=draws,
        seed=seed,
    )
