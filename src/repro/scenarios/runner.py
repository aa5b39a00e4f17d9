"""Batched sweep runners: a grid in, a Table of results out.

``sweep_fleet`` turns every scenario into a cell of one
:class:`~repro.datacenter.fleet.FleetFrame` (:func:`fleet_scenario_frame`:
a chunk of numeric overrides swaps frame columns of the gathered base,
any other chunk goes through dotted-path :func:`apply_overrides`) and
runs them all through :func:`simulate_fleet_batch` — one vectorized
kernel call, not one simulation per scenario. ``sweep_provisioning``
does the same for the heterogeneous-provisioning question. ``SWEEPS`` names a few
ready-made decision-space explorations for the ``repro sweep`` CLI.

Every runner takes the :class:`repro.exec.ExecOptions` knobs
(``jobs``, ``chunk_size``, ``retries``, ``timeout``, ``skip``,
``checkpoint``) as ``**options`` and passes them untouched to
:func:`repro.exec.run_sharded`: the scenario axis is split into
contiguous chunks (peak kernel memory is bounded by ``chunk_size``
scenarios) evaluated inline or over a process pool, and the chunk
tables are stacked with :meth:`repro.tabular.Table.concat`. Sharded
results are element-identical to monolithic runs for any chunk/job
configuration (``tests/test_sharded_equivalence.py``). A runner
returns the same type in skip mode; the chunks it skipped land in the
:class:`~repro.exec.FailureReport` the caller passed as ``skip``.

:func:`cached_sweep` is how both front ends (``repro sweep`` and
``repro serve``) run a named sweep through the shared
:class:`~repro.exec.ResultCache`: one spec, one key, one checkpoint
namespace, and a result is cached only when no chunk failed.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.embodied import EmbodiedModel
from ..data.grids import US_GRID
from ..datacenter.fleet import (
    DRAWABLE_PATHS,
    FleetFrame,
    FleetParameters,
    simulate_fleet_batch,
)
from ..datacenter.heterogeneity import (
    ServerType,
    WorkloadClass,
    provision_heterogeneous_batch,
    provision_homogeneous_batch,
)
from ..errors import SimulationError
from ..exec import (
    CheckpointStore,
    ResultCache,
    cache_key,
    package_fingerprint,
    run_sharded,
)
from ..obs.recorder import active_recorder
from ..tabular import Table
from ..units import CarbonIntensity
from .grid import ScenarioGrid
from .presets import example_service_mix, facebook_like_fleet

__all__ = [
    "apply_overrides",
    "fleet_scenario_parameters",
    "fleet_scenario_frame",
    "sweep_fleet",
    "sweep_provisioning",
    "sweep_temporal_shifting",
    "SweepSpec",
    "SWEEPS",
    "sweep_names",
    "run_sweep",
    "run_uncertain_sweep",
    "cached_sweep",
]


def apply_overrides(base: Any, overrides: Mapping[str, Any]) -> Any:
    """Return ``base`` with dotted-path dataclass fields replaced.

    ``apply_overrides(params, {"server.lifetime_years": 3.0})`` rebuilds
    the nested frozen dataclasses along the path; every other field is
    shared with ``base``.
    """
    result = base
    for path, value in overrides.items():
        result = _replace_path(result, path, value)
    return result


def _replace_path(obj: Any, path: str, value: Any) -> Any:
    head, _, rest = path.partition(".")
    fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
    if head not in {field.name for field in fields}:
        raise SimulationError(
            f"cannot override {path!r}: {type(obj).__name__} has no field "
            f"{head!r}"
        )
    if rest:
        value = _replace_path(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


def _reject_distribution_values(scenarios: Sequence[Mapping[str, Any]]) -> None:
    """Deterministic runners cannot evaluate distribution-tagged axes."""
    from ..analysis.uncertainty import is_distribution

    for index, scenario in enumerate(scenarios):
        tagged = [name for name, value in scenario.items() if is_distribution(value)]
        if tagged:
            raise SimulationError(
                f"scenario {index} tags {tagged} with distributions; "
                "deterministic sweeps need point values — run it through "
                "repro.uncertainty (sweep_fleet_uncertain / "
                "'repro sweep --draws N') instead"
            )


def fleet_scenario_parameters(
    base: FleetParameters, scenarios: Iterable[Mapping[str, Any]]
) -> list[FleetParameters]:
    """One :class:`FleetParameters` per scenario dict."""
    records = [dict(scenario) for scenario in scenarios]
    _reject_distribution_values(records)
    return [apply_overrides(base, scenario) for scenario in records]


def _swappable(record: Mapping[str, Any]) -> bool:
    """Whether every override of ``record`` is a number on a frame column."""
    return all(
        path in DRAWABLE_PATHS
        and isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        for path, value in record.items()
    )


def fleet_scenario_frame(
    base: FleetParameters,
    base_frame: FleetFrame,
    records: Sequence[Mapping[str, Any]],
    embodied: EmbodiedModel | None = None,
) -> FleetFrame:
    """The kernel frame of ``base`` under each override record, in order.

    ``base_frame`` is ``FleetFrame.from_parameters([base], embodied)``,
    which callers build once and reuse. When every record only sets
    numbers on :data:`~repro.datacenter.fleet.DRAWABLE_PATHS`, each
    takes a copy of that one cell and its values are swapped in with
    :meth:`FleetFrame.with_paths`, which enforces the dataclasses'
    rules; no cell becomes a dataclass. Otherwise every record is
    gathered through :func:`apply_overrides` and
    :meth:`FleetFrame.from_parameters`. Either way the frame simulates
    exactly as ``[apply_overrides(base, record) for record in
    records]`` does.
    """
    if not records:
        raise SimulationError("need at least one scenario")
    if not all(map(_swappable, records)):
        return FleetFrame.from_parameters(
            [apply_overrides(base, record) for record in records], embodied
        )
    paths = dict.fromkeys(path for record in records for path in record)
    values = {
        path: np.array(
            [record.get(path, base_frame.columns[path][0]) for record in records],
            dtype=np.float64,
        )
        for path in paths
    }
    return base_frame.repeat(len(records)).with_paths(
        values, where="scenario {}".format
    )


def _fleet_chunk(payload: tuple, start: int, stop: int) -> Table:
    """Chunk kernel: scenarios ``[start, stop)`` of a fleet sweep.

    Module-level so :func:`repro.exec.run_sharded` workers can import
    it by name; axis-column selection (``keep``) is decided over the
    *full* record list, so every chunk emits identical columns.
    """
    base, base_frame, records, embodied, keep = payload
    chunk = records[start:stop]
    frame = fleet_scenario_frame(base, base_frame, chunk, embodied)
    final = simulate_fleet_batch(frame).final_year_table()
    return _attach_axes(chunk, final, keep=keep)


def sweep_fleet(
    base: FleetParameters,
    scenarios: Iterable[Mapping[str, Any]],
    embodied: EmbodiedModel | None = None,
    **options: Any,
) -> Table:
    """Run a fleet scenario sweep through the batched kernel.

    Returns one row per scenario: the scenario's axis values followed
    by its final simulated year's fleet metrics. ``options`` (the
    :class:`repro.exec.ExecOptions` knobs) shard the scenario axis
    through :func:`repro.exec.run_sharded`; the result is
    element-identical for every configuration. In skip mode the table
    covers only the surviving scenarios.
    """
    records = [dict(scenario) for scenario in scenarios]
    if not records:
        raise SimulationError("need at least one scenario")
    _reject_distribution_values(records)
    payload = (
        base,
        FleetFrame.from_parameters([base], embodied),
        records,
        embodied,
        _scalar_axis_names(records),
    )
    with active_recorder().span(
        "batch", fn="sweep_fleet", scenarios=len(records)
    ):
        return run_sharded(
            _fleet_chunk, payload, len(records), combine=Table.concat,
            **options,
        )


def _reject_distribution_axis(name: str, values: np.ndarray) -> None:
    """Array axes of a deterministic sweep must be numeric."""
    if values.dtype == object:
        raise SimulationError(
            f"axis {name!r} holds non-numeric values (distribution-tagged "
            "axes go through repro.uncertainty.sweep_provisioning_uncertain "
            "or 'repro sweep --draws N')"
        )


def _scalar_axis_names(
    records: Sequence[Mapping[str, Any]],
    label: Callable[[Any], Any] = lambda value: value,
) -> list[str]:
    """Axis names whose values are plain scalars in *every* scenario.

    Axis values may be rich objects (portfolios, servers); only scalar
    axes become result columns. The decision is global so chunked runs
    keep exactly the columns a monolithic run would. ``label`` maps
    values before the check — the uncertain sweeps pass
    :func:`repro.uncertainty.axis_label` so distribution tags (which
    render as strings) also qualify.
    """
    return [
        name
        for name in records[0]
        if all(
            isinstance(label(record[name]), (int, float, str, bool))
            for record in records
        )
    ]


def _attach_axes(
    records: Sequence[Mapping[str, Any]],
    results: Table,
    keep: Sequence[str] | None = None,
) -> Table:
    """Prefix result rows with their scenario's axis values."""
    if not records:
        raise SimulationError("need at least one scenario")
    if keep is None:
        keep = _scalar_axis_names(records)
    columns: dict[str, Any] = {
        name.replace(".", "_"): [record[name] for record in records]
        for name in keep
    }
    for name in results.column_names:
        if name != "scenario":
            columns[name] = results.column(name)
    return Table(columns)


def _provisioning_chunk(payload: tuple, start: int, stop: int) -> Table:
    """Chunk kernel: scenarios ``[start, stop)`` of a provisioning sweep.

    The provisioning kernels are elementwise along the scenario axis,
    so slicing the (target, scale) arrays yields exactly the rows a
    monolithic call would produce for those scenarios.
    """
    workloads, general, server_types, target_axis, scale_axis, grid, model = (
        payload
    )
    targets = target_axis[start:stop]
    scales = scale_axis[start:stop]
    homogeneous = provision_homogeneous_batch(
        workloads, general, targets, scales
    )
    heterogeneous = provision_heterogeneous_batch(
        workloads, server_types, targets, scales
    )
    homo_total = homogeneous.total_per_year_grams(grid, model)
    hetero_total = heterogeneous.total_per_year_grams(grid, model)
    return Table(
        {
            "utilization_target": targets,
            "demand_scale": scales,
            "servers_homogeneous": homogeneous.total_servers(),
            "servers_heterogeneous": heterogeneous.total_servers(),
            "total_t_homogeneous": homo_total / 1e6,
            "total_t_heterogeneous": hetero_total / 1e6,
            "carbon_saving_fraction": 1.0 - hetero_total / homo_total,
        }
    )


def sweep_provisioning(
    workloads: Sequence[WorkloadClass],
    general: ServerType,
    server_types: Sequence[ServerType],
    utilization_targets: "float | Sequence[float]" = 0.6,
    demand_scales: "float | Sequence[float]" = 1.0,
    grid: CarbonIntensity | None = None,
    model: EmbodiedModel | None = None,
    **options: Any,
) -> Table:
    """Homogeneous vs heterogeneous provisioning across scenarios.

    Scenario axes are the cartesian product of utilization targets and
    demand scale factors; both fleets are provisioned by the batched
    kernels and priced in embodied + operational carbon. ``options``
    (the :class:`repro.exec.ExecOptions` knobs) shard the scenario
    axis through :func:`repro.exec.run_sharded` with element-identical
    results.
    """
    grid = grid or US_GRID.intensity
    model = model or EmbodiedModel()
    _reject_distribution_axis(
        "utilization_targets", np.atleast_1d(np.asarray(utilization_targets))
    )
    _reject_distribution_axis(
        "demand_scales", np.atleast_1d(np.asarray(demand_scales))
    )
    targets = np.atleast_1d(np.asarray(utilization_targets, dtype=np.float64))
    scales = np.atleast_1d(np.asarray(demand_scales, dtype=np.float64))
    target_axis = np.repeat(targets, len(scales))
    scale_axis = np.tile(scales, len(targets))
    payload = (
        tuple(workloads),
        general,
        tuple(server_types),
        target_axis,
        scale_axis,
        grid,
        model,
    )
    with active_recorder().span(
        "batch", fn="sweep_provisioning", scenarios=int(target_axis.shape[0])
    ):
        return run_sharded(
            _provisioning_chunk, payload, int(target_axis.shape[0]),
            combine=Table.concat, **options,
        )


def sweep_temporal_shifting(
    hours: int = 72,
    *,
    capacity_kw: float = 2500.0,
    stochastic_seeds: "tuple[int, ...]" = (0, 1),
    **options: Any,
) -> Table:
    """Carbon-aware scheduling across the bundled trace catalog.

    Runs the default policy spectrum (agnostic / aware / slack-bounded)
    over every bundled intensity profile and two canonical workload
    streams through the batched evaluator — the temporal analogue of
    the fleet and provisioning sweeps. The canonical workloads span
    two days, so the horizon must cover at least 48 hours.
    ``options`` (the :class:`repro.exec.ExecOptions` knobs) shard the
    trace axis of the evaluator.
    """
    from ..traces import canonical_workloads, evaluate_policies, profile_catalog

    if hours < 48:
        raise SimulationError(
            "the temporal-shifting sweep's workloads span two days; "
            f"need hours >= 48, got {hours}"
        )
    catalog = profile_catalog(hours, stochastic_seeds=stochastic_seeds)
    return evaluate_policies(
        catalog, canonical_workloads(), capacity_kw=capacity_kw, **options
    )


@dataclass(frozen=True)
class SweepSpec:
    """A named, CLI-runnable decision-space exploration.

    ``build`` runs the deterministic point-estimate sweep;
    ``build_uncertain(draws, seed)``, when present, runs the same
    decision space with its elusive parameters tagged as distributions
    and returns an :class:`repro.uncertainty.UncertainResult`
    (``repro sweep NAME --draws N``). Both callables accept the
    :class:`repro.exec.ExecOptions` keywords and forward them to the
    sharded runners.

    ``axis_size``, when present, reports the length of the axis the
    sweep's sharded runner actually chunks when that is *not* the
    result row count — the ``portfolio`` sweep shards its device
    catalog, not its scenario grid — so fault-injection tooling can
    compute valid chunk starts.
    """

    name: str
    description: str
    build: Callable[..., Table]
    build_uncertain: "Callable[..., Any] | None" = None
    axis_size: "Callable[[], int] | None" = None


def _fleet_growth_lifetime(**exec_options: Any) -> Table:
    grid = ScenarioGrid(
        **{
            "annual_growth": [0.0, 0.1, 0.25, 0.5],
            "server.lifetime_years": [2.0, 3.0, 4.0, 6.0],
        }
    )
    return sweep_fleet(facebook_like_fleet(), grid, **exec_options)


def _fleet_pue_utilization(**exec_options: Any) -> Table:
    grid = ScenarioGrid(
        **{
            "facility.pue": [1.07, 1.1, 1.25, 1.5],
            "utilization": [0.25, 0.45, 0.65, 0.85],
        }
    )
    return sweep_fleet(facebook_like_fleet(), grid, **exec_options)


def _provisioning_mix(**exec_options: Any) -> Table:
    workloads, general, server_types = example_service_mix()
    return sweep_provisioning(
        workloads,
        general,
        server_types,
        utilization_targets=[0.4, 0.5, 0.6, 0.7, 0.8],
        demand_scales=[0.5, 1.0, 2.0, 4.0],
        **exec_options,
    )


def _fleet_growth_lifetime_uncertain(
    draws: int, seed: int, **exec_options: Any
):
    """Growth × lifetime axes with PUE and utilization left elusive."""
    from ..analysis.uncertainty import Normal, Triangular
    from ..uncertainty import sweep_fleet_uncertain

    grid = ScenarioGrid(
        **{
            "annual_growth": [0.0, 0.1, 0.25, 0.5],
            "server.lifetime_years": [2.0, 3.0, 4.0, 6.0],
            "facility.pue": [Triangular(1.07, 1.10, 1.30)],
            "utilization": [Normal(0.45, 0.05)],
        }
    )
    return sweep_fleet_uncertain(
        facebook_like_fleet(),
        grid,
        draws=draws,
        seed=seed,
        **exec_options,
    )


def _fleet_pue_utilization_uncertain(
    draws: int, seed: int, **exec_options: Any
):
    """PUE × utilization axes with growth and lifetime left elusive."""
    from ..analysis.uncertainty import Mixture, Normal
    from ..uncertainty import sweep_fleet_uncertain

    grid = ScenarioGrid(
        **{
            "facility.pue": [1.07, 1.1, 1.25, 1.5],
            "utilization": [0.25, 0.45, 0.65, 0.85],
            "annual_growth": [Normal(0.25, 0.05)],
            "server.lifetime_years": [
                Mixture.discrete({3.0: 0.3, 4.0: 0.5, 6.0: 0.2})
            ],
        }
    )
    return sweep_fleet_uncertain(
        facebook_like_fleet(),
        grid,
        draws=draws,
        seed=seed,
        **exec_options,
    )


def _provisioning_mix_uncertain(
    draws: int, seed: int, **exec_options: Any
):
    """Utilization-target axis with a log-normal demand forecast."""
    from ..analysis.uncertainty import LogNormal
    from ..uncertainty import sweep_provisioning_uncertain

    workloads, general, server_types = example_service_mix()
    return sweep_provisioning_uncertain(
        workloads,
        general,
        server_types,
        utilization_targets=[0.4, 0.5, 0.6, 0.7, 0.8],
        demand_scales=[LogNormal.from_median(1.0, 0.35)],
        draws=draws,
        seed=seed,
        **exec_options,
    )


def _temporal_shifting_uncertain(
    draws: int, seed: int, **exec_options: Any
):
    """Policy savings bands across seeded weather/demand noise draws."""
    from ..uncertainty import sweep_temporal_shifting_uncertain

    return sweep_temporal_shifting_uncertain(
        draws=draws, seed=seed, **exec_options
    )


def _device_portfolio(**exec_options: Any) -> Table:
    """Default catalog across node-shrink, fab-grid, and lifetime axes."""
    from ..portfolio import default_catalog, sweep_portfolio

    grid = ScenarioGrid(
        **{
            "node_shift": [0.0, 1.0, 2.0],
            "fab_intensity_g_per_kwh": [583.0, 250.0],
            "lifetime_scale": [1.0, 1.5],
        }
    )
    return sweep_portfolio(default_catalog(), grid, **exec_options)


def _device_portfolio_uncertain(
    draws: int, seed: int, **exec_options: Any
):
    """Node-shrink axis with fab-yield and lifetime left elusive."""
    from ..analysis.uncertainty import LogNormal, Triangular
    from ..portfolio import default_catalog, sweep_portfolio_uncertain

    grid = ScenarioGrid(
        **{
            "node_shift": [0.0, 1.0, 2.0],
            "defect_density_scale": [LogNormal.from_median(1.0, 0.25)],
            "lifetime_scale": [Triangular(0.8, 1.0, 1.4)],
        }
    )
    return sweep_portfolio_uncertain(
        default_catalog(), grid, draws=draws, seed=seed, **exec_options
    )


def _device_portfolio_axis_size() -> int:
    """The portfolio sweep shards its device catalog, not its grid."""
    from ..portfolio import default_catalog

    return len(default_catalog())


SWEEPS: dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        SweepSpec(
            name="fleet_growth_lifetime",
            description=(
                "Final-year opex/capex split of the Facebook-like fleet "
                "across growth rates and server lifetimes"
            ),
            build=_fleet_growth_lifetime,
            build_uncertain=_fleet_growth_lifetime_uncertain,
        ),
        SweepSpec(
            name="fleet_pue_utilization",
            description=(
                "Final-year fleet footprint across facility PUE and "
                "steady-state utilization"
            ),
            build=_fleet_pue_utilization,
            build_uncertain=_fleet_pue_utilization_uncertain,
        ),
        SweepSpec(
            name="provisioning_mix",
            description=(
                "Homogeneous vs heterogeneous provisioning carbon across "
                "utilization targets and demand scales"
            ),
            build=_provisioning_mix,
            build_uncertain=_provisioning_mix_uncertain,
        ),
        SweepSpec(
            name="temporal_shifting",
            description=(
                "Carbon-aware scheduling policies across the bundled "
                "intensity-trace catalog and canonical workloads"
            ),
            build=sweep_temporal_shifting,
            build_uncertain=_temporal_shifting_uncertain,
        ),
        SweepSpec(
            name="portfolio",
            description=(
                "Fleet embodied + use-phase carbon of the default device "
                "catalog across node-shrink, fab-grid, and lifetime axes"
            ),
            build=_device_portfolio,
            build_uncertain=_device_portfolio_uncertain,
            axis_size=_device_portfolio_axis_size,
        ),
    )
}


def sweep_names() -> list[str]:
    """The registered sweep names, in registry order."""
    return list(SWEEPS)


def run_sweep(name: str, **options: Any) -> Table:
    """Run one named sweep and return its result table.

    ``options`` (the :class:`repro.exec.ExecOptions` knobs) pass to the
    sweep's builder untouched, so a builder given none runs at its
    defaults. They shard the sweep's scenario axis; the table is
    identical for every setting.
    """
    if name not in SWEEPS:
        raise SimulationError(
            f"unknown sweep {name!r}; have {sweep_names()}"
        )
    with active_recorder().span("sweep", name=name, mode="point") as span:
        table = SWEEPS[name].build(**options)
        span.note(rows=table.num_rows)
        return table


def run_uncertain_sweep(
    name: str,
    draws: int,
    seed: int = 0,
    **options: Any,
) -> Any:
    """Run one named sweep's distribution-tagged variant.

    Returns the :class:`repro.uncertainty.UncertainResult`; raises for
    sweeps that have no uncertain variant registered. ``options`` (the
    :class:`repro.exec.ExecOptions` knobs) pass to the builder
    untouched. Sharding preserves the per-scenario seeded draw
    streams, so the samples are bit-identical for every setting — and
    the fault-tolerance knobs extend that guarantee across recovered
    worker failures.
    """
    if name not in SWEEPS:
        raise SimulationError(
            f"unknown sweep {name!r}; have {sweep_names()}"
        )
    spec = SWEEPS[name]
    if spec.build_uncertain is None:
        raise SimulationError(
            f"sweep {name!r} has no distribution-tagged variant; "
            "run it without --draws"
        )
    with active_recorder().span(
        "sweep", name=name, mode="uncertain", draws=draws, seed=seed
    ) as span:
        result = spec.build_uncertain(draws, seed, **options)
        span.note(rows=result.num_scenarios * result.draws)
        return result


def cached_sweep(
    name: str,
    draws: "int | None" = None,
    seed: int = 0,
    *,
    cache: "ResultCache | None" = None,
    resume: bool = False,
    **options: Any,
) -> "tuple[Any, bool]":
    """Run one named sweep through the shared result cache.

    The one place that decides how a named sweep is keyed,
    checkpointed and cached. Its spec parts — ``("sweep", name,
    "point")``, or ``("sweep", name, draws, seed)`` with ``draws`` —
    are both the cache key (with :func:`~repro.exec.package_fingerprint`
    folded in) and the checkpoint namespace. ``jobs``/``chunk_size``
    are not part of either: sharded sweeps are bit-identical to
    monolithic ones, so any parallelism level warm-starts every other.

    With a ``cache``, a hit of the right type (a
    :class:`~repro.tabular.Table`, or an
    :class:`~repro.uncertainty.UncertainResult` with ``draws``) is
    returned as is; on a miss the sweep runs with a
    :class:`~repro.exec.CheckpointStore` under ``cache.directory``
    (``resume`` serves an interrupted run's finished chunks), and its
    result is cached only when no chunk failed — the ``skip`` report,
    if one was passed, is still empty. ``options`` are the
    :class:`~repro.exec.ExecOptions` knobs.

    Returns ``(result, cached)``: the table or uncertain result, and
    whether it came from the cache.
    """
    from ..uncertainty import UncertainResult

    if draws is None:
        parts: "tuple[Any, ...]" = ("sweep", name, "point")
        expected: type = Table
    else:
        parts, expected = ("sweep", name, draws, seed), UncertainResult
    if cache is not None:
        key = cache_key(*parts, package_fingerprint())
        value = cache.get(key)
        if isinstance(value, expected):
            return value, True
        options["checkpoint"] = CheckpointStore(
            cache.directory, spec_parts=parts, consume=resume
        )
    if draws is None:
        result = run_sweep(name, **options)
    else:
        result = run_uncertain_sweep(name, draws, seed, **options)
    # A partial result must never be served as the sweep's result.
    if cache is not None and not options.get("skip"):
        cache.put(key, result)
    return result, False
