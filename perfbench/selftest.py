"""Self-tests for the benchmark itself.

Run from the repository root (about ten seconds)::

    python3 perfbench/selftest.py

They check that a reduced-size run of every workload emits every
metric named in ``BENCHMARK.json`` with its unit, that the oracle
rejects perturbed results and wrong served rows (so ``failed`` cannot
pass vacuously), and that the benchmark fails cleanly without the
program beside it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
import workloads  # noqa: E402
from common import DEFAULT_SEED, END_TO_END, PER_LAYER, ROOT  # noqa: E402

from repro.tabular import Table  # noqa: E402
from repro.uncertainty import UncertainResult  # noqa: E402

#: Per-layer metrics that must be non-zero on each workload's traced run.
MOVED = {
    "portfolio_fleet": ("portfolio.sweep_s", "tabular.concat_rows", "exec.chunks"),
    "portfolio_draws": ("uncertainty.draws_s", "uncertainty.quantile_s",
                        "tabular.column_calls"),
    "uncertain_fleet": ("scenarios.gather_calls", "datacenter.fleet_kernel_s",
                        "uncertainty.concat_s"),
    "serve_cells": ("serve.batches", "serve.wait_ms", "serve.execute_ms"),
}


def _with_column(table: Table, name: str, values: np.ndarray) -> Table:
    columns = {n: table.column(n) for n in table.column_names}
    columns[name] = values
    return Table(columns)


def _with_samples(result: UncertainResult, name: str, values: np.ndarray):
    samples = dict(result.samples)
    samples[name] = values
    return dataclasses.replace(result, samples=samples)


class BenchmarkDefinition(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


class SmallRuns(unittest.TestCase):
    def _check(self, workload: str, trace: bool) -> dict:
        result, stats = run.measure(workload, 5, 0.3, trace, small=True)
        expected = PER_LAYER if trace else END_TO_END
        self.assertTrue(result["correct"], stats["problems"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), list(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name])
            self.assertIsInstance(metric["value"], float)
        return result["metrics"]

    def test_every_workload_emits_every_metric(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = self._check(workload, trace=False)
                for name in END_TO_END:
                    self.assertGreater(plain[name]["value"], 0.0, name)
                traced = self._check(workload, trace=True)
                for name in MOVED[workload]:
                    self.assertGreater(traced[name]["value"], 0.0, name)


class OracleRejects(unittest.TestCase):
    def test_perturbed_portfolio_table(self) -> None:
        workload = workloads.SWEEPS["portfolio_fleet"]
        inputs = workload.setup(DEFAULT_SEED, small=True)
        table = workload.run(inputs)
        problems, digests = workload.check(inputs, table)
        self.assertEqual(problems, [])
        total = np.array(table.column("total_t"))
        total[3] = np.nextafter(total[3], np.inf)
        bad = _with_column(table, "total_t", total)
        bad_problems, bad_digests = workload.check(inputs, bad)
        self.assertIn("total_t != embodied_t + use_t", bad_problems)
        self.assertTrue(oracle.compare_digests(bad_digests, digests, "repeat"))

    def test_perturbed_uncertain_results(self) -> None:
        for name, metric in (("portfolio_draws", "use_t"),
                             ("uncertain_fleet", "capex_fraction_market")):
            with self.subTest(workload=name):
                workload = workloads.SWEEPS[name]
                inputs = workload.setup(DEFAULT_SEED, small=True)
                result, quantiles = workload.run(inputs)
                self.assertEqual(workload.check(inputs, (result, quantiles))[0], [])
                samples = result.samples_for(metric).copy()
                spot = inputs.get("reference", (0,))[0]
                samples[spot, 0] *= 1.0 + 1e-12
                bad = _with_samples(result, metric, samples)
                problems, _ = workload.check(inputs, (bad, quantiles))
                self.assertTrue(problems)

    def test_measure_counts_every_failed_operation(self) -> None:
        class Perturbed(workloads.PortfolioFleet):
            def run(self, inputs: dict) -> Table:
                table = super().run(inputs)
                return _with_column(table, "embodied_fraction",
                                    np.full(table.num_rows, 1.5))

        outcome = workloads.measure_sweep(Perturbed(), 5, 0.2, False, True, 0.0)
        self.assertGreater(outcome.attempted, 0)
        self.assertEqual(outcome.failed, outcome.attempted)

    def test_wrong_served_row(self) -> None:
        values = serving.override_values(7, count=2)
        expected = serving.direct_answers(values)
        good = json.dumps({"row": expected["portfolio"][0], "degraded": False}).encode()
        swapped = json.dumps({"row": expected["portfolio"][1], "degraded": False}).encode()
        log = [
            ("portfolio", 0, 200, good, 0.001),
            ("portfolio", 0, 200, swapped, 0.001),
            ("scenario", 1, 500, b"{}", 0.001),
        ]
        failed, problems = serving.check_replies(log, expected)
        self.assertEqual(failed, 2)
        self.assertEqual(len([p for p in problems if p.startswith("scenario")]), 1)


class WithoutProgram(unittest.TestCase):
    def test_fails_cleanly_without_the_program(self) -> None:
        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "serve_cells",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
