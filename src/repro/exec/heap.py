"""One heap policy per process: sweep arrays stay in the heap between chunks.

A sweep allocates the same multi-megabyte arrays chunk after chunk and
call after call. glibc's defaults hand them back to the OS: blocks at
or above the mmap threshold are unmapped on free, and a free top of
heap past the trim threshold is trimmed. The dynamic thresholds only
grow after a large mmapped block has been freed, so every early call,
and every call whose sizes move, faults its whole working set back in
(~8.6k minor faults and ~15 ms of system time per ~48 ms 200 × 256
uncertain fleet sweep; ~72–85k on the first 100k × 64 portfolio sweep).

:func:`apply_heap_policy` fixes both thresholds once per process:
blocks under 32 MiB come from the heap, and up to 64 MiB of free heap
top stays mapped in each malloc arena, so the next chunk reuses what
the last one freed. Both must be set: setting either one
turns off glibc's dynamic adjustment of the other. Where ``mallopt``
is missing (macOS, Windows) the policy is a no-op.
"""

from __future__ import annotations

import ctypes

__all__ = ["apply_heap_policy"]

# Blocks below this many bytes are served from the heap, not mmap;
# 32 MiB is glibc's largest accepted value on 64-bit builds.
_MMAP_THRESHOLD = 32 << 20
# Free heap top kept mapped before glibc trims it back to the OS.
_TRIM_THRESHOLD = 64 << 20

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_applied: "bool | None" = None


def apply_heap_policy() -> bool:
    """Set the process's malloc thresholds once; return whether they hold.

    Idempotent and cheap after the first call. Returns ``False`` where
    the C library has no ``mallopt`` or refuses either value.
    """
    global _applied
    if _applied is None:
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, TypeError):
            _applied = False
        else:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            _applied = bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and bool(
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
            )
    return _applied
