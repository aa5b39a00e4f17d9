"""Uncertainty-aware sweep runners: one draw matrix, one kernel call.

Each runner takes distribution-tagged scenarios, builds a seeded
(scenarios × draws) draw matrix, expands it along the existing batched
kernels' scenario axis, and makes a *single* batched call —
``simulate_fleet_batch``, ``provision_*_batch``, or
``evaluate_policies`` — for the whole cross-product. There is no
per-draw Python loop around a kernel anywhere; a draw is just one more
scenario to the kernel.

The scalar reference is ``repro.analysis.uncertainty.monte_carlo``
over the scalar simulators: for every scenario the batched runners
produce the *same floats* it would (same seed discipline, same metric
arithmetic), pinned by ``tests/test_uncertain_sweep_equivalence.py``.

Every runner takes the :class:`repro.exec.ExecOptions` knobs as
``**options`` and passes them untouched to
:func:`repro.exec.run_sharded`, which shards the scenario axis.
Because each scenario draws from its own ``default_rng(seed)`` stream
(see :mod:`repro.uncertainty.draws`), a chunk's draw matrix is exactly
the corresponding rows of the monolithic one, so sharded uncertain
sweeps stay bit-identical to monolithic runs under any chunk/job count
— and across recovered worker crashes, hangs and checkpoint resumes.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..analysis.uncertainty import is_distribution
from ..core.embodied import EmbodiedModel
from ..data.grids import US_GRID, region_names
from ..datacenter.fleet import FleetFrame, FleetParameters, simulate_fleet_batch
from ..datacenter.heterogeneity import (
    ServerType,
    WorkloadClass,
    provision_heterogeneous_batch,
    provision_homogeneous_batch,
)
from ..errors import SimulationError
from ..exec import run_sharded
from ..obs.recorder import active_recorder
from ..scenarios.runner import _scalar_axis_names, apply_overrides
from ..tabular import Table
from ..units import CarbonIntensity
from .draws import DrawMatrix, _check_records, build_draw_matrix
from .result import UncertainResult

__all__ = [
    "axis_label",
    "sweep_fleet_uncertain",
    "sweep_provisioning_uncertain",
    "sweep_temporal_shifting_uncertain",
]

#: Final-year fleet metrics an uncertain fleet sweep samples.
_FLEET_METRICS = (
    "servers",
    "energy_gwh",
    "opex_location_kt",
    "opex_market_kt",
    "capex_kt",
    "coverage",
    "capex_fraction_market",
    "capex_to_opex_market",
)

#: Provisioning metrics (the deterministic sweep's result columns).
_PROVISIONING_METRICS = (
    "servers_homogeneous",
    "servers_heterogeneous",
    "total_t_homogeneous",
    "total_t_heterogeneous",
    "carbon_saving_fraction",
)

#: Policy-evaluation metrics sampled across trace-noise draws.
_SHIFTING_METRICS = (
    "total_kg",
    "savings_fraction",
    "mean_deferral_hours",
    "max_deferral_hours",
    "peak_load_kw",
)


def axis_label(value: Any) -> Any:
    """Scenario axis value as a table cell: scalars pass, tags render.

    Distribution tags become their compact repr (``Normal(mean=0.45,
    std=0.05)``), so quantile tables stay self-describing.
    """
    if is_distribution(value):
        return repr(value)
    return value


def _kept_axis_names(records: Sequence[Mapping[str, Any]]) -> list[str]:
    """Axis names that become result columns, decided over all records.

    The deterministic runners' column policy with distribution tags
    rendered through :func:`axis_label`; global (not per chunk) so
    sharded runs keep exactly the columns a monolithic run would.
    """
    return _scalar_axis_names(records, label=axis_label)


def _axes_table(
    records: Sequence[Mapping[str, Any]],
    keep: Sequence[str] | None = None,
    offset: int = 0,
) -> Table:
    """Axis columns for an uncertain result, one row per scenario.

    Mirrors the deterministic runner's column policy — scalar axes
    become columns — and additionally renders distribution tags as
    label strings; richer objects (portfolios, servers) are skipped.
    ``offset`` is the chunk's global scenario offset, keeping the
    fallback ``scenario`` index column monolithic-identical.
    """
    if keep is None:
        keep = _kept_axis_names(records)
    columns: dict[str, list[Any]] = {
        name.replace(".", "_"): [axis_label(record[name]) for record in records]
        for name in keep
    }
    if not columns:
        columns["scenario"] = list(range(offset, offset + len(records)))
    return Table(columns)


def _reshape_metrics(
    table: Table,
    metrics: Sequence[str],
    num_scenarios: int,
    draws: int,
    allow_non_finite: Sequence[str] = (),
) -> dict[str, np.ndarray]:
    """Split flat (scenarios × draws) result columns into sample matrices.

    Mirrors the scalar reference's non-finite guard: ``monte_carlo``
    raises on inf/NaN model outputs naming the offending draw, and so
    does this — except for metrics in ``allow_non_finite``, where the
    kernel emits inf as a *designed* sentinel rather than a failure
    (``capex_to_opex_market`` is inf when renewables drive market opex
    to zero).
    """
    samples: dict[str, np.ndarray] = {}
    for metric in metrics:
        matrix = np.asarray(table.array(metric), dtype=np.float64).reshape(
            num_scenarios, draws
        )
        if metric not in allow_non_finite:
            bad = np.argwhere(~np.isfinite(matrix))
            if bad.size:
                scenario, draw = (int(index) for index in bad[0])
                raise SimulationError(
                    f"metric {metric!r} is non-finite "
                    f"({matrix[scenario, draw]!r}) at scenario {scenario}, "
                    f"draw {draw} ({len(bad)} of {matrix.size} cells "
                    "non-finite)"
                )
        samples[metric] = matrix
    return samples


def _fleet_uncertain_chunk(payload: tuple, start: int, stop: int) -> UncertainResult:
    """Chunk kernel: scenarios ``[start, stop)`` of an uncertain fleet sweep.

    Rebuilds the chunk's draw matrix from the global scenario records —
    per-scenario ``default_rng(seed)`` streams make those rows
    identical to the monolithic matrix — so nothing but record dicts
    crosses the process boundary. Fixed values build one
    :class:`FleetParameters` per scenario; its frame row is repeated
    per draw and each drawn path's samples replace their column.
    """
    base, records, draws, seed, embodied, keep = payload
    chunk = records[start:stop]
    matrix = build_draw_matrix(chunk, draws, seed)
    fixed = [
        {name: value for name, value in record.items() if name not in matrix.values}
        for record in chunk
    ]
    scenario_bases = [apply_overrides(base, values) for values in fixed]
    frame = FleetFrame.from_parameters(
        scenario_bases, embodied, where=lambda cell: f"scenario {start + cell}"
    ).repeat(draws)
    frame = frame.with_paths(
        {name: matrix.values[name].reshape(-1) for name in matrix.names},
        where=lambda cell: f"scenario {start + cell // draws}, draw {cell % draws}",
    )
    final = simulate_fleet_batch(frame).final_year_table()
    return UncertainResult(
        axes=_axes_table(chunk, keep=keep, offset=start),
        samples=_reshape_metrics(
            final,
            _FLEET_METRICS,
            len(chunk),
            draws,
            # Inf here means "market opex fully eliminated", a designed
            # kernel sentinel — not a failed draw.
            allow_non_finite=("capex_to_opex_market",),
        ),
        draws=draws,
        seed=seed,
    )


def sweep_fleet_uncertain(
    base: FleetParameters,
    scenarios: Iterable[Mapping[str, Any]],
    *,
    draws: int = 256,
    seed: int = 0,
    embodied: EmbodiedModel | None = None,
    **options: Any,
) -> UncertainResult:
    """Fleet sweep with distribution-tagged parameters.

    Every scenario's tagged parameters are sampled ``draws`` times
    (per-scenario ``default_rng(seed)`` streams — see
    :mod:`repro.uncertainty.draws`). Point values are applied once per
    scenario; the (scenarios × draws) cells never become dataclasses:
    each drawn path's samples go straight into its
    :class:`~repro.datacenter.fleet.FleetFrame` column (so only
    :data:`~repro.datacenter.fleet.DRAWABLE_PATHS` may carry
    distributions), and one
    :func:`~repro.datacenter.fleet.simulate_fleet_batch` call scores
    them all per chunk. Draws that break a parameter rule (PUE below
    1, utilization above 1, ...) raise naming scenario, draw and path.
    Metrics are the final simulated year's fleet columns.
    ``options`` (the :class:`repro.exec.ExecOptions` knobs) shard the
    scenario axis; peak kernel memory is bounded by ``chunk_size ×
    draws`` cells and the samples are bit-identical for every
    configuration.

    Non-finite samples raise, mirroring the scalar ``monte_carlo``
    guard — except ``capex_to_opex_market``, where inf is the kernel's
    designed "market opex fully eliminated" sentinel and flows into
    the quantile columns as an ordinary order statistic.
    """
    records = _check_records(list(scenarios))
    payload = (base, records, draws, seed, embodied, _kept_axis_names(records))
    with active_recorder().span(
        "batch",
        fn="sweep_fleet_uncertain",
        scenarios=len(records),
        draws=draws,
    ):
        return run_sharded(
            _fleet_uncertain_chunk, payload, len(records),
            combine=UncertainResult.concat, **options,
        )


def _axis_values(name: str, axis: Any) -> list[Any]:
    """Normalize one provisioning axis to a list of values/tags."""
    if is_distribution(axis) or isinstance(axis, (int, float)):
        return [axis]
    values = list(axis)
    if not values:
        raise SimulationError(f"axis {name!r} has no values")
    return values


def _flat_axis(
    name: str,
    records: Sequence[Mapping[str, Any]],
    matrix: DrawMatrix,
) -> np.ndarray:
    """One axis as a flat (scenarios × draws) array, draw-minor."""
    if name in matrix.values:
        return matrix.values[name].reshape(-1)
    return np.repeat(
        np.array([float(record[name]) for record in records]), matrix.draws
    )


def _provisioning_uncertain_chunk(
    payload: tuple, start: int, stop: int
) -> UncertainResult:
    """Chunk kernel: scenarios ``[start, stop)`` of an uncertain
    provisioning sweep; draw rows are rebuilt per scenario record."""
    workloads, general, server_types, records, draws, seed, grid, model, keep = (
        payload
    )
    chunk = records[start:stop]
    matrix = build_draw_matrix(chunk, draws, seed)
    target_axis = _flat_axis("utilization_target", chunk, matrix)
    scale_axis = _flat_axis("demand_scale", chunk, matrix)

    homogeneous = provision_homogeneous_batch(
        workloads, general, target_axis, scale_axis
    )
    heterogeneous = provision_heterogeneous_batch(
        workloads, server_types, target_axis, scale_axis
    )
    homo_total = homogeneous.total_per_year_grams(grid, model)
    hetero_total = heterogeneous.total_per_year_grams(grid, model)
    flat = Table(
        {
            "servers_homogeneous": homogeneous.total_servers(),
            "servers_heterogeneous": heterogeneous.total_servers(),
            "total_t_homogeneous": homo_total / 1e6,
            "total_t_heterogeneous": hetero_total / 1e6,
            "carbon_saving_fraction": 1.0 - hetero_total / homo_total,
        }
    )
    return UncertainResult(
        axes=_axes_table(chunk, keep=keep, offset=start),
        samples=_reshape_metrics(
            flat, _PROVISIONING_METRICS, len(chunk), draws
        ),
        draws=draws,
        seed=seed,
    )


def sweep_provisioning_uncertain(
    workloads: Sequence[WorkloadClass],
    general: ServerType,
    server_types: Sequence[ServerType],
    *,
    utilization_targets: Any = 0.6,
    demand_scales: Any = 1.0,
    draws: int = 256,
    seed: int = 0,
    grid: CarbonIntensity | None = None,
    model: EmbodiedModel | None = None,
    **options: Any,
) -> UncertainResult:
    """Provisioning sweep with uncertain targets and demand forecasts.

    Axes may mix point values and distribution tags (a log-normal
    demand scale is the canonical case). The (scenarios × draws) axis
    goes straight into the array-valued provisioning kernels — the
    draw axis needs no dataclass expansion at all here. ``options``
    (the :class:`repro.exec.ExecOptions` knobs) shard the scenario axis
    with bit-identical samples (per-scenario seeded draw streams).
    """
    grid = grid or US_GRID.intensity
    model = model or EmbodiedModel()
    targets = _axis_values("utilization_targets", utilization_targets)
    scales = _axis_values("demand_scales", demand_scales)
    records = [
        {"utilization_target": target, "demand_scale": scale}
        for target in targets
        for scale in scales
    ]
    payload = (
        tuple(workloads),
        general,
        tuple(server_types),
        records,
        draws,
        seed,
        grid,
        model,
        _kept_axis_names(records),
    )
    with active_recorder().span(
        "batch",
        fn="sweep_provisioning_uncertain",
        scenarios=len(records),
        draws=draws,
    ):
        return run_sharded(
            _provisioning_uncertain_chunk, payload, len(records),
            combine=UncertainResult.concat, **options,
        )


def _shifting_uncertain_chunk(
    payload: tuple, start: int, stop: int
) -> UncertainResult:
    """Chunk kernel: regions ``[start, stop)`` of the temporal sweep.

    Each region's noisy traces are seeded by draw index alone, and
    evaluator rows are region-major, so a region slice reproduces
    exactly that block of the monolithic result.
    """
    regions, hours, capacity_kw, draws, seed = payload
    from ..traces import (
        DEFAULT_POLICIES,
        canonical_workloads,
        evaluate_policies,
        stochastic_variant,
    )

    chunk = regions[start:stop]
    traces = [
        stochastic_variant(region, hours, seed=seed + draw)
        for region in chunk
        for draw in range(draws)
    ]
    workloads = canonical_workloads()
    policies = list(DEFAULT_POLICIES)
    flat = evaluate_policies(traces, workloads, policies, capacity_kw=capacity_kw)

    # Rows arrive (trace, workload, policy)-major with the trace axis
    # ordered region-major, draw-minor; fold the draw axis to the back.
    shape = (len(chunk), draws, len(workloads), len(policies))
    samples: dict[str, np.ndarray] = {}
    for metric in _SHIFTING_METRICS:
        values = np.asarray(flat.array(metric), dtype=np.float64)
        samples[metric] = (
            values.reshape(shape)
            .transpose(0, 2, 3, 1)
            .reshape(-1, draws)
            .copy()
        )
    records = [
        {"region": region, "workload": workload.name, "policy": policy.name}
        for region in chunk
        for workload in workloads
        for policy in policies
    ]
    return UncertainResult(
        axes=Table(
            {
                name: [record[name] for record in records]
                for name in ("region", "workload", "policy")
            }
        ),
        samples=samples,
        draws=draws,
        seed=seed,
    )


def sweep_temporal_shifting_uncertain(
    hours: int = 72,
    *,
    capacity_kw: float = 2500.0,
    draws: int = 8,
    seed: int = 0,
    **options: Any,
) -> UncertainResult:
    """Carbon-aware scheduling bands across weather/demand noise draws.

    The elusive input here is the *trace itself*: each draw is a
    seeded stochastic variant of every Table III region's duck curve
    (seeds ``seed .. seed + draws - 1``). All regions × draws go
    through one batched :func:`~repro.traces.evaluate_policies` call
    per chunk — a draw is literally one more trace row in the
    evaluator's matrix — and come back as (region × workload × policy)
    scenarios with per-draw samples. ``options`` (the
    :class:`repro.exec.ExecOptions` knobs) shard the *region* axis;
    noisy-trace seeds depend only on the draw index, so sharded samples
    are bit-identical.
    """
    if hours < 48:
        raise SimulationError(
            "the temporal-shifting sweep's workloads span two days; "
            f"need hours >= 48, got {hours}"
        )
    if draws <= 0:
        raise SimulationError("draw count must be positive")
    regions = region_names()
    payload = (tuple(regions), hours, capacity_kw, draws, seed)
    with active_recorder().span(
        "batch",
        fn="sweep_temporal_shifting_uncertain",
        scenarios=len(regions),
        draws=draws,
    ):
        return run_sharded(
            _shifting_uncertain_chunk, payload, len(regions),
            combine=UncertainResult.concat, **options,
        )
