"""Timing helpers shared by the benchmark gates."""

from __future__ import annotations

import time


def best_of_alternating(first, second, rounds: int) -> "tuple[float, float]":
    """Min-of-``rounds`` timings of both calls, run first/second in turn.

    Alternating the rounds (ABAB...) means a burst of host contention
    lands on both sides instead of on whichever block it overlapped.
    """
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for side, call in enumerate((first, second)):
            start = time.perf_counter()
            call()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]
