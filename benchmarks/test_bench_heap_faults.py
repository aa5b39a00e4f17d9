"""Gates: sweeps reuse their freed working set instead of re-faulting it.

``repro.exec`` fixes glibc's malloc thresholds once per process
(:mod:`repro.exec.heap`), so a chunk's freed arrays go to the next
chunk or call rather than back to the OS. Without it, glibc unmaps and
trims each sweep's outputs and temporaries, and the next call faults
them back in. Each gate runs its sweep in a fresh interpreter and
counts minor page faults (``ru_minflt``) across the calls:

- ``sweep_fleet_uncertain`` at 200 scenarios x 256 draws: the second
  and third calls take at most 500 faults each (~8k without the
  policy);
- ``sweep_portfolio`` at 100k devices x 64 cells, ``chunk_size=5000``:
  the first call takes at most 15k faults (72–85k without the policy).

Both skip where the C library has no ``mallopt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.heap import apply_heap_policy

_UNCERTAIN_SCRIPT = """
import resource
from repro.analysis.uncertainty import Normal, Triangular
from repro.scenarios import ScenarioGrid, facebook_like_fleet
from repro.uncertainty import sweep_fleet_uncertain

grid = ScenarioGrid(**{
    "annual_growth": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75],
    "server.lifetime_years": [2.0, 3.0, 4.0, 5.0, 6.0],
    "facility.pue": [Triangular(1.07, 1.10, 1.30), Triangular(1.10, 1.25, 1.50)],
    "utilization": [Normal(0.45, 0.06), Normal(0.65, 0.06)],
})
base, records = facebook_like_fleet(), grid.scenarios()
assert len(records) == 200
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = sweep_fleet_uncertain(base, records, draws=256, seed=11, jobs=1)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    del result
print(*faults)
"""

_PORTFOLIO_SCRIPT = """
import dataclasses, resource
from repro.portfolio import default_catalog, sweep_portfolio
from repro.scenarios import ScenarioGrid

grid = ScenarioGrid(**{
    "node_shift": [0.0, 1.0, 2.0, 3.0],
    "fab_intensity_g_per_kwh": [583.0, 400.0, 250.0, 100.0],
    "lifetime_scale": [1.0, 1.1, 1.25, 1.5],
})
catalog = tuple(
    dataclasses.replace(
        spec,
        name=f"{spec.name}_{spin}",
        die_area_mm2=spec.die_area_mm2 * (1.0 + 0.1 * (spin % 7) / 7.0),
        units=spec.units / 12_500,
    )
    for spin in range(12_500)
    for spec in default_catalog()
)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
table = sweep_portfolio(catalog, grid, chunk_size=5000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
assert table.num_rows == 64 and table.column("devices") == [100_000] * 64
"""


def _child_faults(script: str) -> list[int]:
    """Run ``script`` in a fresh interpreter; return the counts it prints."""
    if not apply_heap_policy():
        pytest.skip("the C library has no mallopt; no heap policy to gate")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    )}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return [int(count) for count in done.stdout.split()]


def test_bench_uncertain_fleet_repeat_calls_fault_gate():
    """Calls 2 and 3 of a 200 x 256 uncertain fleet sweep take <= 500 faults."""
    faults = _child_faults(_UNCERTAIN_SCRIPT)
    assert len(faults) == 3
    assert max(faults[1:]) <= 500, (
        f"minor faults per sweep_fleet_uncertain call: {faults}"
    )


def test_bench_portfolio_first_call_fault_gate():
    """The first 100k x 64 portfolio sweep takes <= 15k faults."""
    (faults,) = _child_faults(_PORTFOLIO_SCRIPT)
    assert faults <= 15_000, (
        f"first sweep_portfolio call took {faults} minor faults"
    )
