"""Uncertain sweep results: per-scenario sample matrices with bands.

An :class:`UncertainResult` is the uncertainty-aware analogue of the
deterministic sweep tables: one *row* per scenario, but every metric
now carries a full ``(scenarios, draws)`` sample matrix instead of a
point estimate. Summaries reduce each ``(scenarios, draws)`` matrix
along the draw axis in one numpy call; on C-contiguous rows that is
the same arithmetic :class:`repro.analysis.uncertainty.UncertaintyResult`
applies to one scenario, so every mean and percentile is bit-identical
to what the scalar Monte Carlo reference reports for the same samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.uncertainty import UncertaintyResult
from ..errors import SimulationError
from ..tabular import Table

__all__ = ["quantile_column", "UncertainResult", "DEFAULT_QUANTILES"]

#: The p5-p50-p95 band every quantile table carries by default.
DEFAULT_QUANTILES: tuple[float, ...] = (5.0, 50.0, 95.0)


def quantile_column(q: float) -> str:
    """The column name for a percentile: 5 -> 'p05', 97.5 -> 'p97_5'."""
    if not 0.0 <= q <= 100.0:
        raise SimulationError(f"percentile must be in [0, 100], got {q}")
    if float(q).is_integer():
        return f"p{int(q):02d}"
    return "p" + f"{q:g}".replace(".", "_")


@dataclass(frozen=True)
class UncertainResult:
    """Sampled sweep output: axes, metrics, and quantile summaries.

    ``axes`` holds one row per scenario (axis values, with
    distribution tags rendered as labels); ``samples`` maps metric
    name to a ``(scenarios, draws)`` float array in draw order.
    """

    axes: Table
    samples: dict[str, np.ndarray]
    draws: int
    seed: int

    def __post_init__(self) -> None:
        if not self.samples:
            raise SimulationError("an uncertain result needs at least one metric")
        if self.draws <= 0:
            raise SimulationError("draw count must be positive")
        expected = (self.axes.num_rows, self.draws)
        checked: dict[str, np.ndarray] = {}
        for name, values in self.samples.items():
            array = np.ascontiguousarray(values, dtype=np.float64)
            if array.shape != expected:
                raise SimulationError(
                    f"metric {name!r} has shape {array.shape}, expected "
                    f"{expected}"
                )
            checked[name] = array
        object.__setattr__(self, "samples", checked)

    @classmethod
    def concat(cls, results: "Sequence[UncertainResult]") -> "UncertainResult":
        """Stack chunk results along the scenario axis, preserving order.

        The chunk reducer of the sharded uncertain sweeps
        (:mod:`repro.exec`): axes tables are stacked with
        :meth:`repro.tabular.Table.concat` and every metric's
        ``(scenarios, draws)`` sample matrix with one
        ``np.concatenate``. All chunks must agree on metrics, draw
        count, and seed.
        """
        if not results:
            raise SimulationError("concat() needs at least one result")
        first = results[0]
        for result in results[1:]:
            if result.metric_names != first.metric_names:
                raise SimulationError(
                    f"metric mismatch: {result.metric_names} vs "
                    f"{first.metric_names}"
                )
            if result.draws != first.draws or result.seed != first.seed:
                raise SimulationError(
                    f"draw/seed mismatch: ({result.draws}, {result.seed}) vs "
                    f"({first.draws}, {first.seed})"
                )
        return cls(
            axes=Table.concat([result.axes for result in results]),
            samples={
                metric: np.concatenate(
                    [result.samples[metric] for result in results], axis=0
                )
                for metric in first.metric_names
            },
            draws=first.draws,
            seed=first.seed,
        )

    @property
    def num_scenarios(self) -> int:
        return self.axes.num_rows

    @property
    def metric_names(self) -> list[str]:
        return list(self.samples)

    def samples_for(self, metric: str) -> np.ndarray:
        """The ``(scenarios, draws)`` sample matrix of one metric."""
        if metric not in self.samples:
            raise SimulationError(
                f"no metric {metric!r}; have {self.metric_names}"
            )
        return self.samples[metric]

    def distribution(self, metric: str, scenario: int = 0) -> UncertaintyResult:
        """One scenario's output distribution, in the scalar result type.

        The returned :class:`UncertaintyResult` is exactly what the
        scalar ``monte_carlo`` reference produces for the same draws,
        so its ``mean``/``percentile``/``interval`` are the canonical
        summary arithmetic.
        """
        matrix = self.samples_for(metric)
        if not 0 <= scenario < self.num_scenarios:
            raise SimulationError(
                f"scenario index {scenario} out of range "
                f"[0, {self.num_scenarios})"
            )
        return UncertaintyResult(matrix[scenario])

    def band(
        self, metric: str, low: float = 5.0, high: float = 95.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-scenario (low, median, high) percentile arrays."""
        if not 0.0 <= low < high <= 100.0:
            raise SimulationError(
                f"band needs 0 <= low < high <= 100, got ({low}, {high})"
            )
        return tuple(np.percentile(self.samples_for(metric), [low, 50.0, high], axis=1))

    def quantile_table(
        self, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> Table:
        """One row per scenario: axes, then mean + quantiles per metric.

        Metric columns are named ``{metric}_mean``, ``{metric}_p05``,
        ``{metric}_p50``, ``{metric}_p95`` (for the default band).
        """
        quantiles = [float(q) for q in quantiles]
        if not quantiles:
            raise SimulationError("need at least one quantile")
        if sorted(quantiles) != quantiles:
            raise SimulationError(f"quantiles must be ascending, got {quantiles}")
        names = [quantile_column(q) for q in quantiles]
        columns: dict[str, object] = {
            name: self.axes.column(name) for name in self.axes.column_names
        }
        for metric, matrix in self.samples.items():
            columns[f"{metric}_mean"] = np.mean(matrix, axis=1)
            for name, values in zip(
                names, np.percentile(matrix, quantiles, axis=1)
            ):
                columns[f"{metric}_{name}"] = values
        return Table(columns)

    def metric_summary(
        self,
        scenario: int = 0,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> Table:
        """One scenario as a (metric × statistics) table.

        The narrow companion to :meth:`quantile_table` — one row per
        metric, which is what experiment reports render.
        """
        quantiles = [float(q) for q in quantiles]
        if not quantiles:
            raise SimulationError("need at least one quantile")
        records = []
        for metric in self.metric_names:
            result = self.distribution(metric, scenario)
            record: dict[str, object] = {
                "metric": metric,
                "mean": result.mean,
                "std": result.std,
            }
            for q in quantiles:
                record[quantile_column(q)] = result.percentile(q)
            records.append(record)
        return Table.from_records(records)

    def __repr__(self) -> str:
        return (
            f"UncertainResult({self.num_scenarios} scenarios x "
            f"{self.draws} draws, metrics={self.metric_names}, "
            f"seed={self.seed})"
        )
