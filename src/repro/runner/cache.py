"""Content-addressed on-disk artifact cache.

Entries are keyed by a SHA-256 over everything that determines the
artifact: the benchmark's MKC source text, the pipeline name, the full
compiler-flag dictionary and the ``repro`` package version.  Values are
pickles wrapped in a small envelope carrying the cache format revision;
anything that fails to load — truncated pickle, foreign object, stale
format, wrong key — is *evicted*, never raised, so a corrupt or outdated
cache can only cost a recompute.

Writes are atomic (``os.replace`` of a same-directory temp file), which
also makes concurrent writers from a process pool safe: both produce the
same content-addressed bytes and the last rename wins.  One instance may
be shared between threads (the service's workers do): its stats ledger
is updated under a lock, and the file operations need none.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import repro

#: bump to invalidate every existing cache entry on format changes
#: (2: ``Compiled`` gained the ``overlay`` field — pre-overlay base
#: pickles are stale)
CACHE_FORMAT = 2

#: default cache location, relative to the working directory (gitignored)
DEFAULT_CACHE_DIR = ".repro_cache"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"

#: with a ``max_bytes`` bound, sweep the cache every N stores (a scan per
#: store would make every write O(entries))
GC_EVERY_STORES = 32


def cache_key(source: str, pipeline: str, flags: dict | None = None,
              version: str | None = None) -> str:
    """Content hash of everything that determines a compiled artifact.

    ``flags`` is canonicalized (sorted keys, JSON) so dict ordering never
    perturbs the key; ``version`` defaults to the package version so a
    release invalidates old artifacts wholesale.
    """
    payload = json.dumps(
        {
            "source": source,
            "pipeline": pipeline,
            "flags": flags or {},
            "version": version if version is not None else repro.__version__,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "evictions": self.evictions}


@dataclass
class ArtifactCache:
    """Pickle store under ``root`` with hit/miss/eviction accounting.

    ``kind`` namespaces the artifact classes sharing one key space:
    ``"base"`` (a capacity-independent :class:`~repro.pipeline.Compiled`),
    ``"run"`` (a :class:`~repro.runner.summary.RunSummary`) and
    ``"trace"`` (a tracer payload dict recorded beside either, so warm
    cells replay their traces).  ``max_bytes`` bounds the whole cache:
    every :data:`GC_EVERY_STORES` stores, :func:`gc_lru` evicts the least
    recently used entries past it (``None``: unbounded).
    """

    root: Path
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._lock = threading.Lock()
        self._stores = 0

    def _count(self, counter: str, n: int = 1) -> None:
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + n)

    def path_for(self, key: str, kind: str) -> Path:
        return self.root / key[:2] / f"{key}.{kind}.pkl"

    def load(self, key: str, kind: str):
        """Return the cached object, or ``None`` on miss.

        A present-but-unusable entry (corrupt pickle, stale format, key
        mismatch) counts as a miss *and* is deleted so it cannot keep
        costing a read.
        """
        if not self.enabled:
            self._count("misses")
            return None
        path = self.path_for(key, kind)
        try:
            blob = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        try:
            envelope = pickle.loads(blob)
            if (not isinstance(envelope, dict)
                    or envelope.get("format") != CACHE_FORMAT
                    or envelope.get("key") != key):
                raise ValueError("stale or foreign cache entry")
            value = envelope["payload"]
        except Exception:
            # bad entry: evict, never crash
            self.evict(key, kind)
            self._count("misses")
            return None
        self._count("hits")
        try:
            # refresh mtime so it doubles as an access stamp: the LRU gc
            # (gc_lru, the ``max_bytes`` bound, `runner cache gc`) evicts
            # by it
            os.utime(path)
        except OSError:
            pass
        return value

    def store(self, key: str, kind: str, value) -> Path | None:
        if not self.enabled:
            return None
        path = self.path_for(key, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(
            {"format": CACHE_FORMAT, "key": key, "payload": value},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.stats.stores += 1
            self._stores += 1
            sweep = (self.max_bytes is not None
                     and self._stores % GC_EVERY_STORES == 0)
        if sweep:
            # outside the lock: the scan is O(entries) and loads/stores
            # must not wait on it; a racing writer at worst loses a
            # freshly stored entry, which costs a recompute
            evicted, _kept = gc_lru(self.root, self.max_bytes)
            self._count("evictions", len(evicted))
        return path

    def evict(self, key: str, kind: str) -> None:
        try:
            self.path_for(key, kind).unlink()
        except OSError:
            return
        self._count("evictions")


# --------------------------------------------------------------------------
# maintenance: scanning, usage accounting and LRU garbage collection
#
# These operate on the on-disk layout directly (root/<key[:2]>/<key>.<kind>
# .pkl), so they work on any cache directory regardless of which process
# wrote it.  ``load`` refreshes an entry's mtime on every hit, making mtime
# an access-recency proxy; ``gc_lru`` evicts oldest-accessed-first.  The
# ``max_bytes`` bound of :class:`ArtifactCache` and the ``python -m
# repro.runner cache`` subcommand both build on these.


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache file, as seen by the maintenance tools."""

    key: str
    kind: str
    bytes: int
    mtime: float
    path: Path


def iter_entries(root: str | os.PathLike,
                 prefixes: Iterable[str] | None = None) -> list[CacheEntry]:
    """Every parseable entry under ``root``, unsorted.

    ``prefixes`` restricts the scan to those two-hex-digit key prefixes.
    Temp files from in-flight atomic writes
    (``<name>.pkl.XXXX``) and anything else that doesn't parse as
    ``<key>.<kind>.pkl`` are skipped, not errors.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    wanted = set(prefixes) if prefixes is not None else None
    entries: list[CacheEntry] = []
    for sub in root.iterdir():
        if not sub.is_dir() or len(sub.name) != 2:
            continue
        if wanted is not None and sub.name not in wanted:
            continue
        for path in sub.iterdir():
            parts = path.name.split(".")
            if len(parts) != 3 or parts[2] != "pkl":
                continue
            key, kind = parts[0], parts[1]
            if not key.startswith(sub.name):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with an eviction
            entries.append(CacheEntry(key, kind, stat.st_size,
                                      stat.st_mtime, path))
    return entries


def usage_by_kind(entries: Iterable[CacheEntry]) -> dict[str, dict[str, int]]:
    """``{kind: {"entries": n, "bytes": total}}``, sorted by kind."""
    out: dict[str, dict[str, int]] = {}
    for entry in entries:
        bucket = out.setdefault(entry.kind, {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += entry.bytes
    return dict(sorted(out.items()))


def gc_lru(root: str | os.PathLike, max_bytes: int,
           dry_run: bool = False) -> tuple[list[CacheEntry], int]:
    """Evict least-recently-used entries until the total fits ``max_bytes``.

    Returns ``(evicted, kept_bytes)``.  Eviction order is oldest mtime
    first (``load`` touches entries on every hit, so mtime tracks
    access).  ``dry_run`` reports what would go without unlinking.
    A concurrent writer can race the scan; a file that vanishes under us
    counts as already evicted.
    """
    entries = sorted(iter_entries(root), key=lambda e: e.mtime)
    total = sum(e.bytes for e in entries)
    evicted: list[CacheEntry] = []
    for entry in entries:
        if total <= max_bytes:
            break
        if not dry_run:
            try:
                entry.path.unlink()
            except OSError:
                pass
        evicted.append(entry)
        total -= entry.bytes
    return evicted, total


def default_cache(cache_dir: str | os.PathLike | None = None,
                  enabled: bool | None = None) -> ArtifactCache:
    """Cache configured from arguments, falling back to the environment."""
    if cache_dir is None:
        cache_dir = os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
    if enabled is None:
        enabled = repro.falsey(os.environ.get(ENV_NO_CACHE))
    return ArtifactCache(Path(cache_dir), enabled=enabled)
