"""A content-addressed on-disk result cache shared across processes.

Extends the experiments registry's in-process cache to disk: results
are pickled under ``<cache-dir>/v1/<sha256>.pkl`` where the key digest
folds in everything the result depends on — the *source fingerprint*
of the ``repro`` package (any code edit invalidates the whole cache)
plus the caller's spec parts (experiment id and driver digest, or
sweep name / draws / seed). Sweep results are independent of
``jobs``/``chunk_size`` by the sharding bit-identity invariant, so
those knobs are deliberately *not* part of the key: a result computed
at one parallelism level warm-starts every other.

Writes are atomic (temp file + ``os.replace``) so concurrent
processes — ``run_all(jobs=N)`` workers, overlapping CLI
invocations — can share one directory without torn reads; a corrupt
or unreadable entry is treated as a miss, never an error.

The default directory is ``~/.cache/repro`` (honouring
``REPRO_CACHE_DIR`` and ``XDG_CACHE_HOME``), overridable per call via
``--cache-dir`` on the CLI.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any

from ..errors import ExecutionError
from ..obs.recorder import active_recorder

__all__ = [
    "default_cache_dir",
    "package_fingerprint",
    "cache_key",
    "CacheStats",
    "ResultCache",
]

#: Bump when the on-disk entry format changes; old entries are simply
#: never looked up again.
_SCHEMA = "v1"

#: Folded into every key digest (see :func:`cache_key`). Bump when the
#: *meaning* of cached values changes — a pickle-layout or result-schema
#: change the schema directory alone would not catch — so stale entries
#: become unreachable instead of deserializing into the wrong shape.
CACHE_FORMAT_VERSION = 2


def default_cache_dir() -> Path:
    """The cache directory used when the caller does not name one.

    ``$REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/repro``, then
    ``~/.cache/repro``.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    return Path.home() / ".cache" / "repro"


@lru_cache(maxsize=1)
def package_fingerprint() -> str:
    """A digest of every ``repro`` source file, computed once per process.

    Keys cached results to the exact code that produced them: editing
    any module in the package changes the fingerprint and orphans
    every stale entry. (The per-process memoization assumes sources do
    not change mid-process — the same assumption the in-process
    experiment cache already makes.)
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_key(*parts: object) -> str:
    """The content-addressed key for a sequence of spec parts.

    Parts are joined unambiguously (length-prefixed) and digested, so
    ``cache_key("a", "bc")`` and ``cache_key("ab", "c")`` differ. The
    digest is prefixed with :data:`CACHE_FORMAT_VERSION`, so bumping
    the format version orphans every existing entry at once.
    """
    if not parts:
        raise ExecutionError("a cache key needs at least one part")
    digest = hashlib.sha256()
    for part in (f"format={CACHE_FORMAT_VERSION}", *parts):
        text = str(part)
        digest.update(f"{len(text)}:".encode())
        digest.update(text.encode())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counts of what one :class:`ResultCache` instance observed.

    ``corrupt`` counts entries that *existed* but could not be read
    back (torn write, bit flip, renamed class); each such entry also
    counts as a miss, since the caller recomputes either way.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0


class ResultCache:
    """Pickled results keyed by content digest, safe to share on disk.

    ``scope`` labels this cache's telemetry (``"result"`` for the
    whole-run cache, ``"checkpoint"`` for chunk checkpoints) so traces
    and metrics can tell the two apart; it never affects keys or
    storage. Per-instance :class:`CacheStats` tally hits, misses,
    corrupt entries, and completed writes regardless of whether a
    recorder is installed.
    """

    def __init__(
        self,
        directory: "str | os.PathLike[str] | None" = None,
        *,
        scope: str = "result",
    ) -> None:
        self._directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )
        self._scope = scope
        self.stats = CacheStats()

    @property
    def directory(self) -> Path:
        """The cache's root directory (entries live under a schema subdir)."""
        return self._directory

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        if not key or any(ch in key for ch in "/\\."):
            raise ExecutionError(f"malformed cache key {key!r}")
        return self._directory / _SCHEMA / f"{key}.pkl"

    def get(self, key: str, default: Any = None) -> Any:
        """The cached value for ``key``, or ``default`` on any miss.

        Unreadable, truncated, or unpicklable entries count as misses:
        a shared cache must degrade to recomputation, never crash the
        sweep that consulted it. An entry that *opened* but failed to
        read back is additionally counted corrupt and flagged with one
        ``RuntimeWarning``, so a torn cache is visible instead of
        silently slow.
        """
        path = self.path_for(key)
        try:
            handle = path.open("rb")
        except Exception:
            self.stats.misses += 1
            active_recorder().event("cache", scope=self._scope, op="miss")
            return default
        try:
            with handle:
                value = pickle.load(handle)
        except Exception:
            # Deliberately broad: a torn or bit-flipped pickle can raise
            # nearly anything (TypeError from a mangled REDUCE opcode,
            # KeyError from __setstate__, ImportError from a renamed
            # class, ...) and every one of them means "miss", not
            # "crash the sweep that consulted a shared cache".
            self.stats.misses += 1
            self.stats.corrupt += 1
            warnings.warn(
                f"repro cache: dropping corrupt entry {path.name} "
                "(treated as a miss)",
                RuntimeWarning,
                stacklevel=2,
            )
            active_recorder().event("cache", scope=self._scope, op="corrupt")
            return default
        self.stats.hits += 1
        active_recorder().event("cache", scope=self._scope, op="hit")
        return value

    def put(self, key: str, value: Any) -> bool:
        """Best-effort atomic store; returns whether the entry landed.

        The pickle is written to a temp file in the same directory and
        ``os.replace``d into place, so readers in other processes see
        either the old entry or the complete new one. Write failures —
        an unwritable cache location, a full disk, an unpicklable
        value — return ``False`` instead of raising: the cache is an
        accelerator, and the run that already *computed* the result
        must never crash while memoizing it. (A malformed ``key`` still
        raises: that is a caller bug, not an environment condition.)
        """
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:16]}-", suffix=".tmp"
            )
        except Exception:
            return False
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except Exception:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            return False
        self.stats.writes += 1
        active_recorder().event("cache", scope=self._scope, op="write")
        return True

    def clear(self) -> int:
        """Delete every entry of the current schema; returns the count.

        Also sweeps ``*.tmp`` files orphaned by writers killed between
        ``mkstemp`` and ``os.replace`` (safe: a live writer's rename is
        atomic and every ``put`` uses a fresh temp name), and the
        ``checkpoints/`` tree under this directory — chunk checkpoints
        exist only to resume runs whose results this cache would have
        held, so clearing the results makes every checkpoint stale by
        definition. Orphans and checkpoints do not count toward the
        returned entry count.
        """
        removed = 0
        schema_dir = self._directory / _SCHEMA
        if schema_dir.is_dir():
            for path in schema_dir.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in schema_dir.glob("*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
        checkpoints = self._directory / "checkpoints"
        if checkpoints.is_dir():
            import shutil

            shutil.rmtree(checkpoints, ignore_errors=True)
        return removed
