"""Batched policy evaluation over traces × workloads × policies.

The temporal-shifting question the paper's Section VI poses is a
cross-product: for every grid (trace), every job stream (workload),
and every scheduling policy, how much carbon does shifting save, how
long do jobs wait, and what does it do to peak load?
``evaluate_policies`` answers the whole grid in one call, sharing
per-trace prefix sums across every (workload, policy) pair and running
the placement loop over all traces of a horizon at once via
:func:`~repro.traces.batch.schedule_batch`.

``evaluate_policies_scalar`` is the same contract computed the obvious
way — one scalar scheduler call per scenario. It exists as the
reference the equivalence suite pins the batched path against, and as
the benchmark baseline that shows why the batched path exists.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..datacenter.scheduler import (
    BatchJob,
    ScheduleResult,
    schedule_carbon_agnostic,
    schedule_carbon_aware,
)
from ..errors import SimulationError
from ..exec import run_sharded
from ..obs.recorder import active_recorder
from ..tabular import Table
from .batch import prefix_sums, schedule_batch
from .intensity import IntensityTrace
from .workload import WorkloadTrace

__all__ = [
    "SchedulingPolicy",
    "CARBON_AGNOSTIC",
    "CARBON_AWARE",
    "slack_bounded",
    "DEFAULT_POLICIES",
    "evaluate_policies",
    "evaluate_policies_scalar",
]


@dataclass(frozen=True)
class SchedulingPolicy:
    """How a scheduler treats the grid and how far jobs may slide.

    ``carbon_aware=False`` is the earliest-start throughput queue;
    ``carbon_aware=True`` chases clean windows. ``slack_hours`` bounds
    deferral: each job's deadline is tightened to
    ``arrival + duration + slack`` (never loosened), the
    latency-vs-carbon dial operators actually control.
    """

    name: str
    carbon_aware: bool = True
    slack_hours: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("a scheduling policy needs a name")
        if self.slack_hours is not None and self.slack_hours < 0:
            raise SimulationError(
                f"{self.name}: slack must be non-negative, got {self.slack_hours}"
            )

    def lower(self, jobs: Sequence[BatchJob]) -> tuple[BatchJob, ...]:
        """The job set as this policy's scheduler will see it."""
        if self.slack_hours is None:
            return tuple(jobs)
        bounded = []
        for job in jobs:
            latest = job.arrival_hour + job.duration_hours + self.slack_hours
            deadline = (
                latest
                if job.deadline_hour is None
                else min(job.deadline_hour, latest)
            )
            bounded.append(dataclasses.replace(job, deadline_hour=deadline))
        return tuple(bounded)


CARBON_AGNOSTIC = SchedulingPolicy("agnostic", carbon_aware=False)
CARBON_AWARE = SchedulingPolicy("aware", carbon_aware=True)


def slack_bounded(slack_hours: int) -> SchedulingPolicy:
    """A carbon-aware policy whose deferral is capped at ``slack_hours``."""
    return SchedulingPolicy(
        f"slack{slack_hours}", carbon_aware=True, slack_hours=slack_hours
    )


#: The spectrum the experiments sweep: ignore the grid, chase it
#: freely, or chase it within a bounded latency budget.
DEFAULT_POLICIES: tuple[SchedulingPolicy, ...] = (
    CARBON_AGNOSTIC,
    CARBON_AWARE,
    slack_bounded(6),
)

_COLUMNS = (
    "trace",
    "workload",
    "policy",
    "total_kg",
    "savings_fraction",
    "mean_deferral_hours",
    "max_deferral_hours",
    "peak_load_kw",
)


def _normalize_traces(
    traces: "Sequence[IntensityTrace] | Mapping[str, IntensityTrace]",
) -> list[IntensityTrace]:
    items = list(traces.values()) if isinstance(traces, Mapping) else list(traces)
    if not items:
        raise SimulationError("need at least one intensity trace")
    names = [trace.name for trace in items]
    if len(set(names)) != len(names):
        raise SimulationError("trace names must be unique within an evaluation")
    return items


def _normalize_workloads(
    workloads: Sequence[WorkloadTrace],
) -> list[WorkloadTrace]:
    items = list(workloads)
    if not items:
        raise SimulationError("need at least one workload trace")
    names = [workload.name for workload in items]
    if len(set(names)) != len(names):
        raise SimulationError("workload names must be unique within an evaluation")
    return items


def _normalize_policies(
    policies: Sequence[SchedulingPolicy],
) -> list[SchedulingPolicy]:
    items = list(policies)
    if not items:
        raise SimulationError("need at least one scheduling policy")
    names = [policy.name for policy in items]
    if len(set(names)) != len(names):
        raise SimulationError("policy names must be unique within an evaluation")
    return items


def _check_span(trace_name: str, workload: WorkloadTrace, horizon: int) -> None:
    if workload.span_hours > horizon:
        raise SimulationError(
            f"trace {trace_name!r} covers {horizon} h but workload "
            f"{workload.name!r} needs {workload.span_hours} h"
        )


def _stats_row(
    trace_name: str,
    workload_name: str,
    policy_name: str,
    jobs_in_order: Sequence[BatchJob],
    starts: np.ndarray,
    grams: np.ndarray,
    load_row: np.ndarray,
    baseline_grams: float,
) -> dict[str, object]:
    """One scalar-path result row.

    The reductions (contiguous ``np.sum``/``mean``/``max``) are the
    same numpy kernels the batched path applies along ``axis=1``, so
    both evaluators produce bit-identical statistics.
    """
    total = float(np.sum(grams))
    arrivals = np.array([job.arrival_hour for job in jobs_in_order], dtype=float)
    deferral = starts - arrivals
    # An all-zero trace has a zero baseline; savings are 0, not NaN.
    ratio = total / baseline_grams if baseline_grams > 0.0 else 1.0
    return {
        "trace": trace_name,
        "workload": workload_name,
        "policy": policy_name,
        "total_kg": total / 1e3,
        "savings_fraction": 1.0 - ratio,
        "mean_deferral_hours": float(np.mean(deferral)),
        "max_deferral_hours": float(np.max(deferral)),
        "peak_load_kw": float(np.max(load_row)),
    }


def _stats_block(
    batch: "np.ndarray | object",
    baseline_totals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-trace statistics for one (workload, policy) batch, vectorized.

    Axis-1 reductions over C-contiguous rows use the same pairwise
    kernels as the scalar path's 1-D reductions, keeping the two
    evaluators element-identical.
    """
    totals = np.sum(batch.grams, axis=1)
    deferral = batch.deferral_hours()
    # Zero-baseline rows (all-zero traces) report 0 savings, like the
    # scalar path.
    ratios = np.divide(
        totals,
        baseline_totals,
        out=np.ones_like(totals),
        where=baseline_totals > 0.0,
    )
    return (
        totals / 1e3,
        1.0 - ratios,
        np.mean(deferral, axis=1),
        np.max(deferral, axis=1),
        np.max(batch.load_kw, axis=1),
    )


def _scalar_arrays(
    result: ScheduleResult,
) -> tuple[list[BatchJob], np.ndarray, np.ndarray]:
    jobs = [placement.job for placement in result.placements]
    starts = np.array(
        [placement.start_hour for placement in result.placements], dtype=float
    )
    grams = np.array(
        [placement.carbon.grams for placement in result.placements]
    )
    return jobs, starts, grams


def _evaluate_chunk(payload: tuple, start: int, stop: int) -> Table:
    """Chunk kernel: traces ``[start, stop)`` of a policy evaluation.

    Statistics are per-trace (each trace carries its own prefix sums
    and carbon-agnostic baseline), so evaluating a contiguous slice of
    the trace axis reproduces exactly those rows of the monolithic
    table. Module-level so :func:`repro.exec.run_sharded` workers can
    import it by name.
    """
    trace_list, workload_list, policies, capacity_kw = payload
    return _evaluate_batched(
        trace_list[start:stop], workload_list, policies, capacity_kw
    )


def evaluate_policies(
    traces: "Sequence[IntensityTrace] | Mapping[str, IntensityTrace]",
    workloads: Sequence[WorkloadTrace],
    policies: Sequence[SchedulingPolicy] = DEFAULT_POLICIES,
    *,
    capacity_kw: float,
    **options: Any,
) -> Table:
    """Evaluate every (trace, workload, policy) scenario, batched.

    Traces are resampled to the schedulers' hourly granularity,
    grouped by horizon, and stacked into matrices; each horizon
    group's prefix sums are computed once and shared across every
    (workload, policy) pair. Savings are measured against the
    carbon-agnostic schedule of the untightened job set on the same
    trace. Rows come back in (trace, workload, policy) order.
    ``options`` (the :class:`repro.exec.ExecOptions` knobs) shard the
    *trace* axis through :func:`repro.exec.run_sharded`; results are
    element-identical for every configuration. Under
    ``on_error="skip"`` the return value becomes a ``(Table,
    FailureReport)`` pair covering the surviving trace chunks.
    """
    trace_list = _normalize_traces(traces)
    workload_list = _normalize_workloads(workloads)
    policy_list = _normalize_policies(policies)
    payload = (trace_list, workload_list, policy_list, capacity_kw)
    with active_recorder().span(
        "batch",
        fn="evaluate_policies",
        traces=len(trace_list),
        workloads=len(workload_list),
        policies=len(policy_list),
    ):
        return run_sharded(
            _evaluate_chunk, payload, len(trace_list), combine=Table.concat,
            **options,
        )


def _evaluate_batched(
    trace_list: Sequence[IntensityTrace],
    workload_list: Sequence[WorkloadTrace],
    policies: Sequence[SchedulingPolicy],
    capacity_kw: float,
) -> Table:
    """The monolithic batched evaluation of one trace-axis chunk."""
    hourly = [trace.hourly_values() for trace in trace_list]
    groups: dict[int, list[int]] = {}
    for index, values in enumerate(hourly):
        groups.setdefault(values.shape[0], []).append(index)

    cells: dict[tuple[int, int, int], tuple] = {}
    for horizon, trace_indices in groups.items():
        matrix = np.vstack([hourly[index] for index in trace_indices])
        csum = prefix_sums(matrix)
        for w_index, workload in enumerate(workload_list):
            _check_span(trace_list[trace_indices[0]].name, workload, horizon)
            baseline = schedule_batch(
                workload.jobs,
                matrix,
                capacity_kw,
                carbon_aware=False,
                csum=csum,
            )
            baseline_totals = baseline.total_grams()
            for p_index, policy in enumerate(policies):
                if not policy.carbon_aware and policy.slack_hours is None:
                    batch = baseline
                else:
                    batch = schedule_batch(
                        policy.lower(workload.jobs),
                        matrix,
                        capacity_kw,
                        carbon_aware=policy.carbon_aware,
                        csum=csum,
                    )
                block = _stats_block(batch, baseline_totals)
                for row, trace_index in enumerate(trace_indices):
                    cells[(trace_index, w_index, p_index)] = tuple(
                        float(column[row]) for column in block
                    )

    stat_names = _COLUMNS[3:]
    keys = [
        (t, w, p)
        for t in range(len(trace_list))
        for w in range(len(workload_list))
        for p in range(len(policies))
    ]
    columns: dict[str, list] = {
        "trace": [trace_list[t].name for t, _, _ in keys],
        "workload": [workload_list[w].name for _, w, _ in keys],
        "policy": [policies[p].name for _, _, p in keys],
    }
    for offset, stat in enumerate(stat_names):
        columns[stat] = [cells[key][offset] for key in keys]
    return Table(columns)


def evaluate_policies_scalar(
    traces: "Sequence[IntensityTrace] | Mapping[str, IntensityTrace]",
    workloads: Sequence[WorkloadTrace],
    policies: Sequence[SchedulingPolicy] = DEFAULT_POLICIES,
    *,
    capacity_kw: float,
) -> Table:
    """The reference evaluator: one scalar scheduler call per scenario.

    Same contract and row order as :func:`evaluate_policies`; exists
    for the equivalence suite and the benchmark baseline.
    """
    trace_list = _normalize_traces(traces)
    workload_list = _normalize_workloads(workloads)
    policies = _normalize_policies(policies)

    records = []
    for trace in trace_list:
        values = trace.hourly_values()
        horizon = values.shape[0]
        for workload in workload_list:
            _check_span(trace.name, workload, horizon)
            baseline = schedule_carbon_agnostic(
                workload.jobs, values, capacity_kw
            )
            _, _, baseline_grams = _scalar_arrays(baseline)
            baseline_total = float(np.sum(baseline_grams))
            for policy in policies:
                if not policy.carbon_aware and policy.slack_hours is None:
                    result = baseline
                else:
                    scheduler = (
                        schedule_carbon_aware
                        if policy.carbon_aware
                        else schedule_carbon_agnostic
                    )
                    result = scheduler(
                        policy.lower(workload.jobs), values, capacity_kw
                    )
                jobs, starts, grams = _scalar_arrays(result)
                records.append(
                    _stats_row(
                        trace.name,
                        workload.name,
                        policy.name,
                        jobs,
                        starts,
                        grams,
                        result.load_profile(horizon),
                        baseline_total,
                    )
                )
    return Table({name: [r[name] for r in records] for name in _COLUMNS})
