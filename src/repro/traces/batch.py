"""Batched scheduling kernel: one job loop, every trace at once.

The scalar schedulers in :mod:`repro.datacenter.scheduler` place one
job set against one intensity series. Evaluating a policy across a
catalog of traces repeats the identical control flow with different
numbers — exactly the struct-of-arrays shape the fleet and
provisioning kernels exploit. ``schedule_batch`` runs the same greedy
placement over a ``(traces, hours)`` intensity matrix: prefix sums,
sliding-window load maxima, masked argmins — all with a trace axis in
front, so the per-job Python loop runs once regardless of how many
traces are being evaluated.

The kernel *shares* the scalar reference's primitives (prefix sums,
sliding-window load maxima, ordering keys, feasible-start ranges —
all axis-generic) and mirrors the rest op for op — same ``capacity +
1e-9`` tolerance, same first-minimum tie-break — so the equivalence
suite can pin placements and carbon element-identical, not merely
close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datacenter.scheduler import (
    BatchJob,
    JobPlacement,
    ScheduleResult,
    _agnostic_order,
    _aware_order,
    _feasible_starts,
    _prefix_sum,
    _window_load_max,
)
from ..errors import SimulationError
from ..units import Carbon

__all__ = ["BatchSchedule", "prefix_sums", "schedule_batch"]


def prefix_sums(intensity_rows: np.ndarray) -> np.ndarray:
    """Per-trace intensity prefix sums, shareable across evaluations.

    ``result[t, k]`` is trace ``t``'s intensity summed over hours
    ``[0, k)``; any window's carbon is one subtraction. Computing this
    once per trace and passing it to every :func:`schedule_batch` call
    is the evaluator's cross-product economy. Delegates to the scalar
    scheduler's ``_prefix_sum`` (which reduces along the last axis),
    so both paths share one implementation.
    """
    intensity = np.asarray(intensity_rows, dtype=float)
    if intensity.ndim != 2:
        raise SimulationError(
            f"intensity rows must be (traces, hours), got shape {intensity.shape}"
        )
    return _prefix_sum(intensity)


@dataclass(frozen=True, eq=False)
class BatchSchedule:
    """Placements for one job set across many traces.

    ``jobs`` is the placement (processing) order; ``starts`` and
    ``grams`` are ``(traces, jobs)`` arrays aligned with it;
    ``load_kw`` is each trace's committed hourly power.
    """

    jobs: tuple[BatchJob, ...]
    starts: np.ndarray
    grams: np.ndarray
    load_kw: np.ndarray

    @property
    def num_traces(self) -> int:
        return int(self.starts.shape[0])

    def total_grams(self) -> np.ndarray:
        """Per-trace schedule carbon (grams)."""
        return np.sum(self.grams, axis=1)

    def peak_load_kw(self) -> np.ndarray:
        """Per-trace peak committed power."""
        return np.max(self.load_kw, axis=1)

    def deferral_hours(self) -> np.ndarray:
        """``(traces, jobs)`` hours each job waited past its arrival."""
        arrivals = np.array([job.arrival_hour for job in self.jobs], dtype=float)
        return self.starts - arrivals

    def result_for(self, trace_index: int) -> ScheduleResult:
        """Reconstruct one trace's schedule as the scalar result type."""
        if not 0 <= trace_index < self.num_traces:
            raise SimulationError(
                f"trace index {trace_index} outside 0..{self.num_traces - 1}"
            )
        placements = tuple(
            JobPlacement(
                job,
                int(self.starts[trace_index, position]),
                Carbon.from_grams(float(self.grams[trace_index, position])),
            )
            for position, job in enumerate(self.jobs)
        )
        return ScheduleResult(placements)


def _validate_batch(
    jobs: Sequence[BatchJob], horizon: int, capacity_kw: float
) -> None:
    if capacity_kw <= 0.0:
        raise SimulationError("cluster capacity must be positive")
    for job in jobs:
        if job.power_kw > capacity_kw:
            raise SimulationError(f"{job.name}: power exceeds cluster capacity")
        if job.arrival_hour + job.duration_hours > horizon:
            raise SimulationError(f"{job.name}: cannot finish within the horizon")


def schedule_batch(
    jobs: Sequence[BatchJob],
    /,
    intensity_rows: np.ndarray,
    capacity_kw: float,
    *,
    carbon_aware: bool = True,
    csum: np.ndarray | None = None,
) -> BatchSchedule:
    """Place one job set against every trace row simultaneously.

    ``jobs`` is the job set, positional-only so it never reads as the
    sharded runners' ``jobs=`` worker count. With ``carbon_aware=True``
    this is the greedy most-energy-first scheduler (each job takes its
    cheapest feasible start per trace); otherwise the
    earliest-feasible-start baseline. Pass a precomputed
    ``csum`` from :func:`prefix_sums` to share the per-trace prefix
    sums across many calls.
    """
    intensity = np.asarray(intensity_rows, dtype=float)
    if intensity.ndim == 1:
        intensity = intensity[np.newaxis, :]
    if intensity.ndim != 2:
        raise SimulationError(
            f"intensity rows must be (traces, hours), got shape {intensity.shape}"
        )
    num_traces, horizon = intensity.shape
    _validate_batch(jobs, horizon, capacity_kw)
    if csum is None:
        csum = prefix_sums(intensity)
    elif csum.shape != (num_traces, horizon + 1):
        raise SimulationError(
            f"prefix sums shape {csum.shape} does not match "
            f"({num_traces}, {horizon + 1})"
        )

    ordered = tuple(
        sorted(jobs, key=_aware_order if carbon_aware else _agnostic_order)
    )
    rows = np.arange(num_traces)
    load = np.zeros((num_traces, horizon))
    starts_out = np.zeros((num_traces, len(ordered)), dtype=np.int64)
    grams_out = np.zeros((num_traces, len(ordered)))

    for position, job in enumerate(ordered):
        candidates = _feasible_starts(job, horizon)
        if len(candidates) == 0:
            raise SimulationError(f"{job.name}: no feasible slot under capacity")
        window_max = _window_load_max(load, job.duration_hours)
        feasible = (
            window_max[:, candidates.start : candidates.stop] + job.power_kw
            <= capacity_kw + 1e-9
        )
        duration = job.duration_hours
        if carbon_aware:
            window_grams = (
                csum[:, candidates.start + duration : candidates.stop + duration]
                - csum[:, candidates.start : candidates.stop]
            ) * job.power_kw
            masked = np.where(feasible, window_grams, np.inf)
            # First minimum = earliest clean start, like the scalar path.
            best = np.argmin(masked, axis=1)
            chosen_ok = feasible[rows, best]
            grams = masked[rows, best]
        else:
            best = np.argmax(feasible, axis=1)  # first feasible start
            chosen_ok = feasible[rows, best]
            start = candidates.start + best
            grams = (csum[rows, start + duration] - csum[rows, start]) * job.power_kw
        if not chosen_ok.all():
            bad = int(np.argmin(chosen_ok))
            raise SimulationError(
                f"{job.name}: no feasible slot under capacity "
                f"(trace row {bad})"
            )
        start = candidates.start + best
        for offset in range(duration):
            load[rows, start + offset] += job.power_kw
        starts_out[:, position] = start
        grams_out[:, position] = grams

    return BatchSchedule(ordered, starts_out, grams_out, load)
