"""Regenerate ``pins.json``: result-column digests at the default seed.

Usage (from the repository root)::

    python3 perfbench/pin.py [workload ...]

Run this only when a change is meant to alter sweep results; a change
that keeps the program's bit-exact contracts leaves the pins valid.
"""

from __future__ import annotations

import json
import sys

from common import DEFAULT_SEED, SRC

sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import workloads  # noqa: E402


def main(names: list[str]) -> int:
    pins = oracle.load_pins()
    for name in names or list(workloads.SWEEPS):
        workload = workloads.SWEEPS[name]
        inputs = workload.setup(DEFAULT_SEED, small=False)
        problems, digests = workload.check(inputs, workload.run(inputs))
        if problems:
            print(f"{name}: not pinned, checks failed: {problems}", file=sys.stderr)
            return 1
        pins[name] = digests
        print(f"{name}: pinned {len(digests)} columns")
    oracle.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
