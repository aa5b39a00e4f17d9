"""Correctness checks behind ``failed``: invariants, digests and pins.

Every check returns a list of problems; an empty list means the result
passed. Invariants hold for any seed. Digests are sha256 over each
result column's bytes: a run compares every call against its first
call, and at the default seed against the digests pinned in
``pins.json``, because the program's equivalence contracts are
bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Mapping

import numpy as np

PINS_PATH = Path(__file__).with_name("pins.json")


def _digest(values: Any) -> str:
    array = np.asarray(values)
    if array.dtype.kind in "fiub":
        data = np.ascontiguousarray(array, dtype=np.float64).tobytes()
    else:
        data = json.dumps([str(value) for value in array.ravel()]).encode()
    return hashlib.sha256(data).hexdigest()


def table_digests(table: Any) -> "dict[str, str]":
    return {name: _digest(table.column(name)) for name in table.column_names}


def uncertain_digests(result: Any, quantiles: Any) -> "dict[str, str]":
    digests = {
        f"samples.{name}": _digest(result.samples_for(name))
        for name in result.metric_names
    }
    digests.update(
        (f"quantiles.{name}", digest)
        for name, digest in table_digests(quantiles).items()
    )
    return digests


def load_pins() -> "dict[str, dict[str, str]]":
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def compare_digests(
    digests: Mapping[str, str], expected: Mapping[str, str], what: str
) -> list[str]:
    if set(digests) != set(expected):
        return [f"{what}: columns {sorted(digests)} != {sorted(expected)}"]
    return [
        f"{what}: column {name!r} differs"
        for name in sorted(expected)
        if digests[name] != expected[name]
    ]


def _all_finite(name: str, values: Any, allow_inf: bool = False) -> list[str]:
    array = np.asarray(values, dtype=np.float64)
    bad = np.isnan(array) if allow_inf else ~np.isfinite(array)
    return [f"{name}: {int(bad.sum())} non-finite value(s)"] if bad.any() else []


def check_portfolio_table(table: Any, devices: int, cells: int) -> list[str]:
    """Invariants of a ``sweep_portfolio`` result."""
    problems: list[str] = []
    if table.num_rows != cells:
        return [f"{table.num_rows} rows, expected {cells}"]
    if any(int(value) != devices for value in table.column("devices")):
        problems.append(f"devices column is not {devices} everywhere")
    for name in ("units", "embodied_t", "use_t", "total_t", "annual_t",
                 "embodied_fraction", "break_even_days_mean"):
        problems += _all_finite(name, table.column(name))
    embodied = np.asarray(table.column("embodied_t"), dtype=np.float64)
    use = np.asarray(table.column("use_t"), dtype=np.float64)
    total = np.asarray(table.column("total_t"), dtype=np.float64)
    fraction = np.asarray(table.column("embodied_fraction"), dtype=np.float64)
    if not np.all((fraction > 0.0) & (fraction < 1.0)):
        problems.append("embodied_fraction outside (0, 1)")
    if not np.array_equal(total, embodied + use):
        problems.append("total_t != embodied_t + use_t")
    return problems


def check_bands(quantiles: Any, metrics: Any, allow_inf: Any = ()) -> list[str]:
    """``p05 <= p50 <= p95`` and finite means, per metric."""
    problems: list[str] = []
    for metric in metrics:
        low, mid, high = (
            np.asarray(quantiles.column(f"{metric}_{q}"), dtype=np.float64)
            for q in ("p05", "p50", "p95")
        )
        problems += _all_finite(
            f"{metric}_mean", quantiles.column(f"{metric}_mean"),
            allow_inf=metric in allow_inf,
        )
        if not (np.all(low <= mid) and np.all(mid <= high)):
            problems.append(f"{metric}: band is not p05 <= p50 <= p95")
    return problems


def check_portfolio_uncertain(result: Any, quantiles: Any, scenarios: int,
                              draws: int) -> list[str]:
    """Invariants of ``sweep_portfolio_uncertain`` plus its quantile table."""
    problems: list[str] = []
    if result.num_scenarios != scenarios or result.draws != draws:
        return [f"shape {result.num_scenarios}x{result.draws}, "
                f"expected {scenarios}x{draws}"]
    for name in result.metric_names:
        problems += _all_finite(f"samples.{name}", result.samples_for(name))
    total = result.samples_for("total_t")
    if not np.array_equal(
        total, result.samples_for("embodied_t") + result.samples_for("use_t")
    ):
        problems.append("total_t != embodied_t + use_t")
    fraction = result.samples_for("embodied_fraction")
    if not np.all((fraction > 0.0) & (fraction < 1.0)):
        problems.append("embodied_fraction outside (0, 1)")
    return problems + check_bands(quantiles, result.metric_names)


def check_fleet_uncertain(result: Any, quantiles: Any, scenarios: int,
                          draws: int, reference: "tuple[int, Any]") -> list[str]:
    """Invariants of ``sweep_fleet_uncertain`` plus a scalar spot check.

    ``capex_to_opex_market`` is infinite by design when renewables
    remove all market opex, so only NaN counts against it.
    """
    problems: list[str] = []
    if result.num_scenarios != scenarios or result.draws != draws:
        return [f"shape {result.num_scenarios}x{result.draws}, "
                f"expected {scenarios}x{draws}"]
    for name in result.metric_names:
        problems += _all_finite(
            f"samples.{name}", result.samples_for(name),
            allow_inf=name == "capex_to_opex_market",
        )
    fraction = result.samples_for("capex_fraction_market")
    if not np.all((fraction > 0.0) & (fraction <= 1.0)):
        problems.append("capex_fraction_market outside (0, 1]")
    scenario, samples = reference
    if not np.array_equal(fraction[scenario], samples):
        problems.append(
            f"scenario {scenario} differs from scalar monte_carlo"
        )
    return problems + check_bands(
        quantiles, result.metric_names, allow_inf=("capex_to_opex_market",)
    )


def check_row(row: Any, expected: Mapping[str, Any]) -> list[str]:
    """A served response row must equal the direct library answer exactly."""
    if not isinstance(row, dict) or set(row) != set(expected):
        return [f"row keys {sorted(row) if isinstance(row, dict) else row!r} "
                f"!= {sorted(expected)}"]
    problems = []
    for name, want in expected.items():
        got = row[name]
        same = got == want or (
            isinstance(got, float) and isinstance(want, float)
            and math.isnan(got) and math.isnan(want)
        )
        if not same:
            problems.append(f"{name}: served {got!r}, direct {want!r}")
    return problems
