"""Metric names, units and the statistics every workload reports."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The seed whose result digests are pinned in ``pins.json``.
DEFAULT_SEED = 11

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3

#: End-to-end metrics (untraced runs), with units: the gated set.
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "cells/s",
    "peak_rss_mb": "MB",
    "req_per_s": "req/s",
}

#: End-to-end metrics that are reported but too noisy on a shared host to
#: gate on: the median sweep call moved 30% between sessions, and a serve
#: p99 moved by 0.4 to 0.95 of its median between runs.
REPORTED_ONLY = {"latency_p50_ms": "ms", "latency_p99_ms": "ms"}

#: Per-layer metrics (traced runs), with units.
PER_LAYER = {
    "exec.chunks": "count",
    "exec.chunk_s": "s",
    "exec.run_s": "s",
    "exec.overhead_s": "s",
    "tabular.concat_s": "s",
    "tabular.concat_rows": "count",
    "tabular.column_s": "s",
    "tabular.column_calls": "count",
    "portfolio.sweep_s": "s",
    "portfolio.reduce_s": "s",
    "uncertainty.draws_s": "s",
    "uncertainty.quantile_s": "s",
    "uncertainty.concat_s": "s",
    "scenarios.gather_s": "s",
    "scenarios.gather_calls": "count",
    "datacenter.fleet_kernel_s": "s",
    "datacenter.table_s": "s",
    "serve.parse_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.write_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.edge_ms": "ms",
    "serve.batches": "count",
    "serve.coalesce_width_mean": "count",
    "trace.covered_frac": "frac",
    "trace.uncovered_s": "s",
    "trace.rows_per_s": "cells/s",
    "trace.req_per_s": "req/s",
}


@dataclass
class Outcome:
    """What one run measured: operation counts, metrics and their samples."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, samples: "Sequence[float] | None" = None) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = [float(s) for s in (samples if samples is not None else [value])]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and count; no raw samples."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int) -> dict[str, object]:
    """The host and code a result was measured on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": _commit(),
    }
