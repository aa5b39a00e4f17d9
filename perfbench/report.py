"""Run every workload and print every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/report.py                      # all workloads, one round
    python3 perfbench/report.py --rounds 10 --no-trace --workloads serve_cells
    python3 perfbench/report.py --json snapshot.json # stats-only snapshot

Each round runs ``run.py`` in a fresh process per workload with seed
``--seed + round``: once untraced (end-to-end metrics) and, unless
``--no-trace``, once traced (per-layer metrics). Across rounds each
metric is summarised by median, quartiles, sample count and spread
(interquartile range over median). The traced section also shows how
much of an operation's wall time the wrapped layers' self times cover,
the tracing overhead (traced against untraced throughput) and the
breakdown shares the benchmark's documentation predicts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import END_TO_END, PER_LAYER, REPORTED_ONLY, fingerprint, summary

HERE = Path(__file__).resolve().parent
WORKLOADS = ("portfolio_fleet", "portfolio_draws", "uncertain_fleet", "serve_cells")


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> "tuple[dict, dict]":
    """One ``run.py`` process; returns its result and stats lines."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=str(HERE.parent), capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("# stats "):])


def _stats(values: list[float]) -> dict:
    stats = summary(values)
    stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
    return stats


def _table(title: str, rows: dict, units: dict) -> list[str]:
    lines = [f"  {title:<28}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}{'spread':>8}  unit"]
    for name, unit in units.items():
        s = rows[name]
        lines.append(
            f"  {name:<28}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
            f"{s['n']:>4}{s['spread']:>8.3f}  {unit}"
        )
    return lines


def _shares(workload: str, layer: dict) -> list[str]:
    """The breakdown claims the benchmark documentation makes."""
    get = lambda name: layer[name]["median"]  # noqa: E731
    if workload.startswith("portfolio"):
        sweep = get("portfolio.sweep_s")
        share = (get("tabular.column_s") + get("portfolio.reduce_s")) / sweep
        return [f"  Table conversion + reduce = {share:.0%} of portfolio.sweep_s"]
    if workload == "uncertain_fleet":
        wall = 1.0 / get("trace.req_per_s")  # mean traced operation
        share = (get("scenarios.gather_s") + get("datacenter.fleet_kernel_s")) / wall
        return [f"  scenarios.gather_s + datacenter.fleet_kernel_s = {share:.0%} "
                "of the traced operation"]
    parts = {n: get(n) for n in ("serve.edge_ms", "serve.parse_ms", "serve.wait_ms",
                                 "serve.execute_ms", "serve.write_ms")}
    largest = max(parts, key=parts.get)
    return ["  serve latency parts (mean ms): "
            + ", ".join(f"{n.split('.')[1]} {v:.3f}" for n, v in parts.items()),
            f"  largest part: {largest}"]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="Run and summarise every workload.")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--json", help="write a stats-only snapshot here")
    args = parser.parse_args(argv)
    snapshot = {"host": fingerprint(args.seed), "seconds": args.seconds,
                "rounds": args.rounds, "workloads": {}}
    failures = 0
    for workload in args.workloads.split(","):
        seeds = [args.seed + index for index in range(args.rounds)]
        plain_runs = [run_once(workload, seed, args.seconds, False) for seed in seeds]
        traced_runs = [] if args.no_trace else [
            run_once(workload, seed, args.seconds, True) for seed in seeds
        ]
        attempted = sum(r["attempted"] for r, _ in plain_runs + traced_runs)
        failed = sum(r["failed"] for r, _ in plain_runs + traced_runs)
        failures += failed
        entry = {"seeds": seeds, "attempted": attempted, "failed": failed,
                 "failed_frac": failed / max(attempted, 1)}
        reported = {**END_TO_END, **REPORTED_ONLY}
        plain = {name: _stats([stats["values"][name] for _, stats in plain_runs])
                 for name in reported}
        entry["end_to_end"] = {n: {"unit": reported[n], **s} for n, s in plain.items()}
        print(f"{workload}: seeds {seeds[0]}..{seeds[-1]}, {args.seconds:g} s per run, "
              f"failed_frac {entry['failed_frac']:.4g} ({failed}/{attempted})")
        print("\n".join(_table("end-to-end", plain, reported)))
        for _, stats in plain_runs + traced_runs:
            for problem in stats["problems"][:3]:
                print(f"  problem (seed {stats['host']['seed']}): {problem}")
        if traced_runs:
            layer = {name: _stats([stats["values"][name] for _, stats in traced_runs])
                     for name in PER_LAYER}
            entry["per_layer"] = {n: {"unit": PER_LAYER[n], **s} for n, s in layer.items()}
            print("\n".join(_table("per-layer (traced)", layer, PER_LAYER)))
            notes = traced_runs[-1][1]["notes"]
            if "self_s" in notes:
                wall = notes["wall_s"]
                print(f"  self time by layer, last traced operation ({wall:.4g} s wall):")
                for name, value in sorted(notes["self_s"].items(), key=lambda kv: -kv[1]):
                    print(f"    {name:<26}{value:>12.4g} s {value / wall:>7.1%}")
            print(f"  uncovered: {layer['trace.uncovered_s']['median']:.4g} s; covered "
                  f"{layer['trace.covered_frac']['median']:.1%}")
            if notes.get("missing_hooks"):
                print(f"  hooks not found (layer reads 0): {notes['missing_hooks']}")
            for traced, untraced in (("trace.rows_per_s", "rows_per_s"),
                                     ("trace.req_per_s", "req_per_s")):
                ratio = layer[traced]["median"] / plain[untraced]["median"]
                print(f"  tracing overhead: {untraced} traced/untraced = {ratio:.3f}")
            print("\n".join(_shares(workload, layer)))
        snapshot["workloads"][workload] = entry
        print()
    if args.json:
        Path(args.json).write_text(json.dumps(snapshot, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
