"""The persistent on-disk compile cache (cross-process warm starts).

The in-memory LRU in :mod:`repro.pipeline` amortizes compilation
within one process; every fresh process still used to recompile from
scratch.  This module adds the second layer: pickled
:class:`~repro.pipeline.CompileResult` artifacts on disk, keyed by a
SHA-256 digest over ``(kernel fingerprint, dims, pipeline specs)``
plus a **version salt**, so a cold process whose kernel was compiled
by any earlier process starts warm.

Layout and atomicity
--------------------
Artifacts live under ``<cache_dir>/compile/<digest>.pkl`` where
``<cache_dir>`` is ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.  Writes go to a
``NamedTemporaryFile`` in the same directory followed by
``os.replace``, which is atomic on POSIX and Windows — concurrent
workers (the parallel shot executor, a future multi-tenant service)
can race on the same key and readers still never observe a torn
entry.  A corrupted or truncated entry (killed writer on a non-atomic
filesystem, bit rot, a hand-edited file) fails to unpickle, is counted
(``corrupt``), deleted, and treated as a miss — the caller recompiles
and rewrites it.

Invalidation
------------
The digest folds in :func:`version_salt`: a format version, the
Python/NumPy versions (pickles of ndarray-bearing artifacts are not
guaranteed portable across them), and a fingerprint of the ``repro``
package's own source files (per-file path, size, mtime).  Editing the
compiler therefore invalidates every artifact automatically — stale
results can never outlive the code that produced them, which is what
keeps benchmark numbers and dev iterations honest.  Old-salt entries
are garbage, removed by :func:`clear` or an eventual manual wipe.

Set ``REPRO_DISK_CACHE=0`` to disable the layer entirely (the
in-memory LRU still works); counters are exposed through
:func:`repro.pipeline.compile_cache_info`.  See docs/performance.md.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

_DISK_LOOKUPS = _metrics.counter(
    "repro_cache_lookups_total",
    "Compile-cache lookups by layer and outcome",
    labels=("layer", "outcome"),
)
_DISK_WRITES = _metrics.counter(
    "repro_cache_writes_total",
    "Persistent compile-cache write attempts by outcome",
    labels=("layer", "outcome"),
)
_TMP_SWEPT = _metrics.counter(
    "repro_cache_tmp_swept_total",
    "Orphaned compile-cache tmpfiles removed by the startup sweep",
    labels=("layer",),
)

#: Environment variable naming the cache directory root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set to "0" to disable the persistent layer ("1"/unset enables it).
DISK_CACHE_ENV = "REPRO_DISK_CACHE"

#: Bump when the on-disk format changes incompatibly.  v2:
#: :class:`repro.sim.backend.RunInfo` grew robustness counters
#: (``retries`` / ``faults_injected``); bumping the
#: version salts every key so artifacts pickled before the counters
#: existed invalidate cleanly instead of resurfacing as
#: attribute-less records.
CACHE_FORMAT_VERSION = 2

#: Orphaned ``*.tmp`` files (a worker killed mid-write never reaches
#: its ``os.replace``) older than this many seconds are swept on first
#: cache use per process.  The TTL keeps the sweep from racing a live
#: concurrent writer whose tmpfile is seconds old.
DEFAULT_TMP_TTL_SECONDS = 3600.0

def _counts() -> dict[str, float]:
    """The persistent layer's counters, read from the registry series
    above (the only place they are kept).  ``misses`` includes
    ``corrupt``: entries that failed to unpickle (bit rot, torn writes
    on non-atomic filesystems, injected ``diskcache_corrupt`` faults).
    ``tmp_swept`` counts orphaned tmpfiles removed."""
    corrupt = _DISK_LOOKUPS.value(layer="disk", outcome="corrupt")
    return {
        "hits": _DISK_LOOKUPS.value(layer="disk", outcome="hit"),
        "misses": _DISK_LOOKUPS.value(layer="disk", outcome="miss") + corrupt,
        "writes": _DISK_WRITES.value(layer="disk", outcome="written"),
        "corrupt": corrupt,
        "errors": _DISK_WRITES.value(layer="disk", outcome="error"),
        "tmp_swept": _TMP_SWEPT.value(layer="disk"),
    }


#: Registry readings at the last :func:`reset_stats`; :func:`info`
#: reports the counts since.
_BASELINE = _counts()

#: One sweep per process (reset by :func:`reset_stats` for tests).
_SWEPT = False


def enabled() -> bool:
    """Whether the persistent layer is active (``REPRO_DISK_CACHE``)."""
    return os.environ.get(DISK_CACHE_ENV, "1") != "0"


def cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro``
    > ``~/.cache/repro`` (not created until the first write)."""
    explicit = os.environ.get(CACHE_DIR_ENV)
    if explicit:
        return Path(explicit)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    return Path.home() / ".cache" / "repro"


def _compile_dir() -> Path:
    return cache_dir() / "compile"


@functools.lru_cache(maxsize=1)
def _source_fingerprint() -> str:
    """A digest of the ``repro`` package's own source files.

    Folding (relative path, size, mtime_ns) of every ``*.py`` under
    the package root into the salt makes *any* compiler edit invalidate
    the whole cache — the safe direction: an unnecessary miss costs one
    recompile, a stale hit would silently serve old-compiler output.
    Computed once per process (~100 stat calls).
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    try:
        for path in sorted(root.rglob("*.py")):
            stat = path.stat()
            digest.update(str(path.relative_to(root)).encode())
            digest.update(f":{stat.st_size}:{stat.st_mtime_ns};".encode())
    except OSError:
        # An unreadable tree falls back to a constant — the version
        # components below still gate format compatibility.
        digest.update(b"unreadable")
    return digest.hexdigest()


def version_salt() -> str:
    """The invalidation salt folded into every key digest."""
    import numpy

    return (
        f"v{CACHE_FORMAT_VERSION}"
        f":py{sys.version_info.major}.{sys.version_info.minor}"
        f":np{numpy.__version__}"
        f":src{_source_fingerprint()}"
    )


def key_digest(key: object) -> str:
    """SHA-256 hex digest identifying one compile-cache key on disk.

    ``key`` is the in-memory cache key — nested tuples of strings,
    ints, and frozen dataclasses, whose ``repr`` is deterministic
    across processes (no memory addresses participate).
    """
    payload = f"{version_salt()}\x00{key!r}".encode()
    return hashlib.sha256(payload).hexdigest()


def _entry_path(digest: str) -> Path:
    return _compile_dir() / f"{digest}.pkl"


def sweep_stale_tmpfiles(
    ttl_seconds: float = DEFAULT_TMP_TTL_SECONDS,
) -> int:
    """Remove orphaned ``*.tmp`` files older than the TTL.

    A worker killed between ``NamedTemporaryFile`` and ``os.replace``
    (an injected ``worker_crash``, an OOM kill, a hard service stop)
    leaks its tmpfile; they accumulate forever since no reader ever
    opens them.  Runs automatically on the first cache access per
    process; the TTL (default one hour) keeps the sweep from deleting
    a live concurrent writer's seconds-old tmpfile out from under it.
    Returns the number removed.
    """
    directory = _compile_dir()
    if not directory.is_dir():
        return 0
    import time

    cutoff = time.time() - ttl_seconds
    removed = 0
    for path in directory.glob("*.tmp"):
        try:
            if path.stat().st_mtime <= cutoff:
                path.unlink()
                removed += 1
        except OSError:
            pass  # already gone, or the writer's — either way, skip
    if removed:
        _TMP_SWEPT.inc(removed, layer="disk")
    return removed


def _sweep_once() -> None:
    global _SWEPT
    if not _SWEPT:
        _SWEPT = True
        sweep_stale_tmpfiles()


def load(digest: str) -> Optional[object]:
    """The artifact stored under ``digest``, or ``None``.

    Any failure — missing entry, truncated pickle, unpicklable payload
    from an incompatible environment — is a miss; corrupt entries are
    additionally counted and deleted so they are rebuilt, not retried
    forever.  An active ``diskcache_corrupt`` fault plan
    (:mod:`repro.exec.faults`) truncates the blob before unpickling,
    driving this exact path on purpose.
    """
    if not enabled():
        return None
    _sweep_once()
    path = _entry_path(digest)
    with _trace.span("cache.lookup", layer="disk") as span:
        try:
            blob = path.read_bytes()
        except OSError:
            span.set(outcome="miss")
            _DISK_LOOKUPS.inc(layer="disk", outcome="miss")
            return None
        from repro.exec.faults import maybe_corrupt_blob

        blob = maybe_corrupt_blob(digest, blob)
        try:
            artifact = pickle.loads(blob)
        except Exception:
            span.set(outcome="corrupt")
            _DISK_LOOKUPS.inc(layer="disk", outcome="corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        span.set(outcome="hit")
        _DISK_LOOKUPS.inc(layer="disk", outcome="hit")
        return artifact


def store(digest: str, artifact: object) -> bool:
    """Persist ``artifact`` under ``digest``, atomically.

    tmpfile-in-same-directory + ``os.replace``: a concurrent reader
    sees either the old entry or the complete new one, never a torn
    write.  Failures (unwritable cache dir, unpicklable artifact) are
    counted and swallowed — the disk layer is an accelerator, never a
    correctness dependency.
    """
    if not enabled():
        return False
    _sweep_once()
    directory = _compile_dir()
    tmp_name = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            mode="wb", dir=directory, suffix=".tmp", delete=False
        ) as handle:
            tmp_name = handle.name
            pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        # Includes RecursionError: a deeply nested artifact (large-n
        # kernels carry deeply recursive IR) can exceed pickle's
        # recursion limit, and that must fall back to "not cached", not
        # break the compile that produced the artifact.
        _DISK_WRITES.inc(layer="disk", outcome="error")
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        return False
    try:
        os.replace(tmp_name, _entry_path(digest))
    except OSError:
        _DISK_WRITES.inc(layer="disk", outcome="error")
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        return False
    _DISK_WRITES.inc(layer="disk", outcome="written")
    return True


def clear() -> int:
    """Delete every persisted compile artifact; returns the count."""
    removed = 0
    directory = _compile_dir()
    if not directory.is_dir():
        return 0
    for path in directory.glob("*.pkl"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    for path in directory.glob("*.tmp"):
        try:
            path.unlink()
        except OSError:
            pass
    return removed


def reset_stats() -> None:
    """Zero the counters :func:`info` reports and re-arm the
    once-per-process tmpfile sweep (test isolation)."""
    global _BASELINE, _SWEPT
    _BASELINE = _counts()
    _SWEPT = False


def info() -> dict:
    """Observability snapshot for ``compile_cache_info()``."""
    directory = _compile_dir()
    entries = (
        sum(1 for _ in directory.glob("*.pkl"))
        if directory.is_dir()
        else 0
    )
    return {
        "enabled": enabled(),
        "dir": str(directory),
        "entries": entries,
        **_metrics.counts_since(_counts(), _BASELINE),
    }
