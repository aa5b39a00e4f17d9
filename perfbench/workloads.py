"""The three sweep workloads and the loop that measures them.

Each workload builds its inputs from the seed (``setup``), runs one
operation (``run``: a sweep call, plus ``quantile_table()`` for the
uncertain ones) and checks a result (``check``, returning problems and
column digests). :func:`measure_sweep` repeats set-up, then runs
operations for the requested seconds, checking every result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import random
import statistics
import time
from typing import Any

import numpy as np

from common import DEFAULT_SEED, SETUP_REPS, Outcome, peak_rss_mb, percentile
from layers import Probe, self_times, sweep_layers
import oracle

# Sweeps are called through their packages so that traced runs reach
# the wrappers a Probe installs on the package attributes.
import repro.portfolio as portfolio
import repro.uncertainty as uncertainty
from repro.analysis.uncertainty import Normal, Triangular, is_distribution, monte_carlo
from repro.datacenter.fleet import simulate_fleet
from repro.scenarios import ScenarioGrid, apply_overrides, facebook_like_fleet


def spun_catalog(copies: int, seed: int) -> tuple:
    """``copies`` spins of the 8-archetype catalog, die area wobbled per spin.

    The wobble (up to +10%) keeps the yield math from repeating across
    spins; unit counts are scaled so fleet totals stay comparable.
    """
    rng = random.Random(seed)
    base = portfolio.default_catalog()
    specs = []
    for spin in range(copies):
        wobble = 1.0 + 0.1 * rng.random()
        specs.extend(
            dataclasses.replace(
                spec,
                name=f"{spec.name}_{spin}",
                die_area_mm2=spec.die_area_mm2 * wobble,
                units=spec.units / copies,
            )
            for spec in base
        )
    return tuple(specs)


class PortfolioFleet:
    """Tall shape: 100k devices x 64 point scenarios, 5000-device chunks."""

    name = "portfolio_fleet"
    warmup = 0
    grid = ScenarioGrid(**{
        "node_shift": [0.0, 1.0, 2.0, 3.0],
        "fab_intensity_g_per_kwh": [583.0, 400.0, 250.0, 100.0],
        "lifetime_scale": [1.0, 1.1, 1.25, 1.5],
    })

    def setup(self, seed: int, small: bool) -> dict:
        copies, chunk = (4, 10) if small else (12_500, 5_000)
        return {
            "catalog": spun_catalog(copies, seed),
            "records": list(self.grid),
            "chunk": chunk,
        }

    def cells(self, inputs: dict) -> int:
        return len(inputs["catalog"]) * len(inputs["records"])

    def run(self, inputs: dict) -> Any:
        return portfolio.sweep_portfolio(
            inputs["catalog"], inputs["records"], jobs=1, chunk_size=inputs["chunk"]
        )

    def check(self, inputs: dict, table: Any) -> "tuple[list[str], dict]":
        problems = oracle.check_portfolio_table(
            table, len(inputs["catalog"]), len(inputs["records"])
        )
        return problems, oracle.table_digests(table)


class PortfolioDraws:
    """Wide shape: 800 devices x 16 scenarios x 256 draws, 200-device chunks."""

    name = "portfolio_draws"
    warmup = 1
    grid = ScenarioGrid(**{
        "node_shift": [0.0, 1.0, 2.0, 3.0],
        "fab_intensity_g_per_kwh": [583.0, 250.0],
        "lifetime_scale": [Triangular(0.8, 1.0, 1.3), Triangular(1.0, 1.25, 1.6)],
        "defect_density_scale": [Normal(1.0, 0.1)],
    })

    def setup(self, seed: int, small: bool) -> dict:
        copies, draws, chunk = (2, 8, 5) if small else (100, 256, 200)
        return {
            "catalog": spun_catalog(copies, seed),
            "records": list(self.grid),
            "draws": draws,
            "chunk": chunk,
            "seed": seed,
        }

    def cells(self, inputs: dict) -> int:
        return len(inputs["catalog"]) * len(inputs["records"]) * inputs["draws"]

    def run(self, inputs: dict) -> Any:
        result = portfolio.sweep_portfolio_uncertain(
            inputs["catalog"], inputs["records"], draws=inputs["draws"],
            seed=inputs["seed"], jobs=1, chunk_size=inputs["chunk"],
        )
        return result, result.quantile_table()

    def check(self, inputs: dict, outcome: Any) -> "tuple[list[str], dict]":
        result, quantiles = outcome
        problems = oracle.check_portfolio_uncertain(
            result, quantiles, len(inputs["records"]), inputs["draws"]
        )
        return problems, oracle.uncertain_digests(result, quantiles)


def scalar_fleet_reference(record: dict, draws: int, seed: int) -> np.ndarray:
    """One scenario through scalar ``monte_carlo`` over ``simulate_fleet``."""
    base = facebook_like_fleet()
    fixed = {k: v for k, v in record.items() if not is_distribution(v)}
    spec = {k: v for k, v in record.items() if is_distribution(v)}

    def model(point: dict) -> float:
        final = simulate_fleet(apply_overrides(base, {**fixed, **point}))[-1]
        return final.capex_fraction_market

    return np.asarray(monte_carlo(model, spec, samples=draws, seed=seed).samples)


class UncertainFleet:
    """200 scenarios x 256 draws through one monolithic fleet sweep."""

    name = "uncertain_fleet"
    warmup = 1
    grid = ScenarioGrid(**{
        "annual_growth": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75],
        "server.lifetime_years": [2.0, 3.0, 4.0, 5.0, 6.0],
        "facility.pue": [Triangular(1.07, 1.10, 1.30), Triangular(1.10, 1.25, 1.50)],
        "utilization": [Normal(0.45, 0.06), Normal(0.65, 0.06)],
    })

    def setup(self, seed: int, small: bool) -> dict:
        records = self.grid.scenarios()
        draws = 256
        if small:
            records, draws = records[:8], 8
        spot = random.Random(seed).randrange(len(records))
        return {
            "base": facebook_like_fleet(),
            "records": records,
            "draws": draws,
            "seed": seed,
            "reference": (spot, scalar_fleet_reference(records[spot], draws, seed)),
        }

    def cells(self, inputs: dict) -> int:
        return len(inputs["records"]) * inputs["draws"]

    def run(self, inputs: dict) -> Any:
        result = uncertainty.sweep_fleet_uncertain(
            inputs["base"], inputs["records"], draws=inputs["draws"],
            seed=inputs["seed"], jobs=1,
        )
        return result, result.quantile_table()

    def check(self, inputs: dict, outcome: Any) -> "tuple[list[str], dict]":
        result, quantiles = outcome
        problems = oracle.check_fleet_uncertain(
            result, quantiles, len(inputs["records"]), inputs["draws"],
            inputs["reference"],
        )
        return problems, oracle.uncertain_digests(result, quantiles)


SWEEPS = {w.name: w for w in (PortfolioFleet(), PortfolioDraws(), UncertainFleet())}


def measure_sweep(
    workload: Any, seed: int, seconds: float, trace: bool, small: bool,
    import_s: float,
) -> Outcome:
    """Set up ``SETUP_REPS`` times, then run and check operations."""
    setup_times = []
    for _ in range(SETUP_REPS):
        inputs = None  # free the previous set-up before timing the next
        gc.collect()
        began = time.perf_counter()
        inputs = workload.setup(seed, small)
        setup_times.append(time.perf_counter() - began)

    pins = None
    if seed == DEFAULT_SEED and not small:
        pins = oracle.load_pins().get(workload.name)
    outcome = Outcome()
    probe = recorder = None
    scope: Any = contextlib.nullcontext()
    if trace:
        from repro.obs import TraceRecorder, install_recorder

        probe, recorder = Probe().install(), TraceRecorder()
        scope = install_recorder(recorder)
    times: list[float] = []
    rates: list[float] = []
    layer_rows: list[dict] = []
    reference = None
    try:
        with scope:
            for _ in range(workload.warmup):
                workload.run(inputs)
            began = time.perf_counter()
            while not times or time.perf_counter() - began < seconds:
                gc.collect()
                if trace:
                    probe.take()
                    recorder.events.clear()
                start = time.perf_counter()
                try:
                    result = workload.run(inputs)
                except Exception as error:  # a failed operation is counted
                    outcome.attempted += 1
                    outcome.failed += 1
                    outcome.problems.append(f"run raised {error!r}")
                    continue
                wall = time.perf_counter() - start
                if trace:
                    calls, events = probe.take(), list(recorder.events)
                problems, digests = workload.check(inputs, result)
                if reference is None:
                    reference = digests
                    if pins is not None:
                        problems += oracle.compare_digests(digests, pins, "pinned")
                else:
                    problems += oracle.compare_digests(digests, reference, "repeat")
                outcome.attempted += 1
                if problems:
                    outcome.failed += 1
                    outcome.problems += problems
                times.append(wall)
                rates.append(workload.cells(inputs) / wall)
                if trace:
                    probe.take()  # drop calls the checks made
                    covered = sum(self_times(calls).values())
                    row = sweep_layers(calls, events)
                    row["trace.covered_frac"] = covered / wall
                    row["trace.uncovered_s"] = wall - covered
                    layer_rows.append(row)
    finally:
        if probe is not None:
            probe.uninstall()
    if not times:
        return outcome
    # Throughput is the rate the run sustained: its slowest call. On a
    # shared host, neighbours slow calls by up to 2x for seconds at a
    # time; between 30-second runs the slowest call moved about half as
    # much as the median call (interquartile spread 0.07-0.11 against
    # 0.13-0.20 over 10 seeds, and 12% against 30% between sessions).
    rows_per_s = workload.cells(inputs) / max(times)
    req_per_s = 1.0 / max(times)
    if trace:
        for name in layer_rows[0]:
            values = [row[name] for row in layer_rows]
            outcome.put(name, statistics.median(values), values)
        outcome.put("trace.rows_per_s", rows_per_s, rates)
        outcome.put("trace.req_per_s", req_per_s)
        outcome.notes["self_s"] = self_times(calls)
        outcome.notes["wall_s"] = wall
        outcome.notes["missing_hooks"] = probe.missing
    else:
        outcome.put("setup_s", import_s + statistics.median(setup_times),
                    [import_s + t for t in setup_times])
        outcome.put("rows_per_s", rows_per_s, rates)
        outcome.put("peak_rss_mb", peak_rss_mb())
        outcome.put("req_per_s", req_per_s)
        latencies = [t * 1e3 for t in times]
        outcome.put("latency_p50_ms", statistics.median(latencies), latencies)
        outcome.put("latency_p99_ms", percentile(latencies, 99.0), latencies)
    return outcome
