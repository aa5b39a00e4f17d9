"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload portfolio_fleet --seed 11 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``# stats``, holds each metric's median, quartiles and sample
count within the run, the host fingerprint and the first problems the
checks found, plus ``latency_p99_ms``, which is reported but not gated.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from common import END_TO_END, PER_LAYER, REPORTED_ONLY, SRC, fingerprint, summary  # noqa: E402

sys.path.insert(0, str(SRC))

WORKLOADS = ("portfolio_fleet", "portfolio_draws", "uncertain_fleet", "serve_cells")


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool,
            import_began: "float | None" = None) -> "tuple[dict, dict]":
    """Run one workload; return ``(result line, stats line)`` dicts."""
    began = time.perf_counter() if import_began is None else import_began
    import serving
    import workloads

    import_s = time.perf_counter() - began
    if workload == "serve_cells":
        outcome = serving.measure_serve(seed, seconds, trace, import_s)
    else:
        outcome = workloads.measure_sweep(
            workloads.SWEEPS[workload], seed, seconds, trace, small, import_s
        )
    units = PER_LAYER if trace else END_TO_END
    reported = units if trace else {**END_TO_END, **REPORTED_ONLY}
    metrics = {
        name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": outcome.attempted > 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    stats = {
        "workload": workload,
        "trace": int(trace),
        "host": fingerprint(seed),
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "values": {name: outcome.metrics.get(name, 0.0) for name in reported},
        "metrics": {
            name: {"unit": unit, **summary(outcome.samples.get(name, [0.0]))}
            for name, unit in reported.items()
        },
        "notes": outcome.notes,
        "problems": outcome.problems[:20],
    }
    return result, stats


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, stats = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), False,
        import_began=_STARTED,
    )
    print("# stats " + json.dumps(stats, default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
