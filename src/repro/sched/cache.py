"""Content-addressed memoization and timing for the schedulers.

The list and modulo schedulers are deterministic functions of an op
list's *content* plus the machine description (and, for list scheduling,
the side-exit liveness map).  A Figure 7 capacity sweep re-list-schedules
a deep copy of the same module once per buffer size, the fuzz oracle
compiles one program once per grid config, and checked mode re-derives
the same dependence systems the schedulers just used — all identical
work.  This module memoizes *placements* by content: a hit replays the
stored (index, cycle, slot) assignments onto the caller's operations,
skipping dependence-graph construction and the scheduling search
entirely, while producing a byte-identical schedule.

The schedules these paths produce are pinned per benchmark cell in
``tests/golden/retarget_grid.json``, which was generated with the
original unmemoized linear-probe schedulers asserted identical.

All scheduling time (cold builds *and* cache replays) is accumulated per
phase in :data:`STATS`, so benchmarks can report scheduler-phase seconds
without tracing overhead.

The same process-level home holds checked mode's per-function check memo
(:func:`check_entry`): :class:`repro.pipeline._PassChecker` keys each
function's verify and IR-lint results by a digest of its content, so an
unchanged function is checked once per process.  It also holds the
pipelines' frontend memo (:func:`frontend_get` / :func:`frontend_put`):
the cleaned, inlined module and its profile, keyed by the input program
and the frontend's settings, so both pipelines of one program share one
frontend run (DESIGN.md §5e).  :func:`clear_caches` drops both with the
placements.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.analysis.dependence import (
    clear_dependence_cache,
    dependence_cache_stats,
)

#: bounded LRU size for each placement cache
CACHE_LIMIT = 4096


@dataclass
class SchedCacheStats:
    """Hit/miss accounting plus scheduler-phase wall time per kind."""

    list_hits: int = 0
    list_misses: int = 0
    modulo_hits: int = 0
    modulo_misses: int = 0
    evictions: int = 0
    #: phase -> accumulated seconds ("list" | "modulo" | "oracle")
    seconds: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "list_hits": self.list_hits,
            "list_misses": self.list_misses,
            "modulo_hits": self.modulo_hits,
            "modulo_misses": self.modulo_misses,
            "evictions": self.evictions,
            "seconds": {k: round(v, 6) for k, v in sorted(
                self.seconds.items())},
            "dependence": dependence_cache_stats().as_dict(),
        }


STATS = SchedCacheStats()


@dataclass
class MemoStats:
    """A process-level memo's hits, misses and LRU evictions.

    For the check memo, a hit or a miss is counted per function verify
    or IR lint a check needed; for the frontend memo, per frontend a
    compile needed."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def counts(self) -> tuple[int, int, int]:
        return self.hits, self.misses, self.evictions

    def since(self, before: tuple[int, int, int]) -> tuple[int, int, int]:
        """The counts added since ``before`` (an earlier :meth:`counts`)."""
        return tuple(now - then for now, then in zip(self.counts(), before))

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def add(self, counts: tuple[int, int, int]) -> None:
        """Fold in another process's (hits, misses, evictions)."""
        self.hits += counts[0]
        self.misses += counts[1]
        self.evictions += counts[2]

    def as_dict(self) -> dict:
        looked = self.hits + self.misses
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "hit_frac": round(self.hits / looked, 4) if looked else 0.0}


CHECK_STATS = MemoStats()
FRONTEND_STATS = MemoStats()

#: bounded LRU size of the check memo (entries are 16-byte digests
#: mapped to a function's verify message and lint diagnostics)
CHECK_LIMIT = 4096

_list_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_modulo_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_check_memo: "OrderedDict[bytes, CheckEntry]" = OrderedDict()
#: (machine, rules) -> small id folded into check digests.  Kept across
#: clear_caches(): a reissued id could alias a checker still running.
_check_contexts: dict[tuple, int] = {}
_check_lock = threading.Lock()

#: bounded LRU size of the frontend memo (each entry holds one program's
#: cleaned, inlined module and its profile)
FRONTEND_LIMIT = 32

_frontend_memo: "OrderedDict[tuple, tuple]" = OrderedDict()
_frontend_lock = threading.Lock()


def clear_caches() -> None:
    """Drop every memoized placement, dependence graph, check result,
    frontend and benchmark checksum, and zero the memos' counters."""
    from repro.bench.suite import clear_benchmark_memo

    _list_cache.clear()
    _modulo_cache.clear()
    clear_dependence_cache()
    with _check_lock:
        _check_memo.clear()
        CHECK_STATS.reset()
    with _frontend_lock:
        _frontend_memo.clear()
        FRONTEND_STATS.reset()
    clear_benchmark_memo()


@contextmanager
def timed(kind: str):
    """Accumulate wall seconds against ``STATS.seconds[kind]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        STATS.seconds[kind] = (STATS.seconds.get(kind, 0.0)
                               + time.perf_counter() - t0)


def _lookup(cache: OrderedDict, key: tuple):
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
    return value


def _store(cache: OrderedDict, key: tuple, value: tuple) -> None:
    cache[key] = value
    if len(cache) > CACHE_LIMIT:
        cache.popitem(last=False)
        STATS.evictions += 1


# -- list-schedule placements ------------------------------------------------


def list_placements_get(key: tuple):
    """Stored ``((index, cycle, slot), ...)`` for a block, or ``None``."""
    value = _lookup(_list_cache, key)
    if value is None:
        STATS.list_misses += 1
    else:
        STATS.list_hits += 1
    return value


def list_placements_put(key: tuple, placements: tuple) -> None:
    _store(_list_cache, key, placements)


# -- modulo-schedule placements ----------------------------------------------


def modulo_result_get(key: tuple):
    """Stored modulo outcome: ``("ok", ii, times, slots, mve)`` with
    times/slots as index-keyed tuples, or ``("fail", message)``."""
    value = _lookup(_modulo_cache, key)
    if value is None:
        STATS.modulo_misses += 1
    else:
        STATS.modulo_hits += 1
    return value


def modulo_result_put(key: tuple, value: tuple) -> None:
    _store(_modulo_cache, key, value)


# -- checked-mode check results ----------------------------------------------


class CheckEntry:
    """One function's memoized check results; ``None`` until computed.

    ``verify`` is ``()`` for a clean function or ``(message,)``; ``lint``
    maps a rule id to the diagnostics that rule reported.
    """

    __slots__ = ("verify", "lint")

    def __init__(self) -> None:
        self.verify: tuple | None = None
        self.lint: dict | None = None


def check_context(context: tuple) -> int:
    """A small id for a hashable check context, stable for the process."""
    with _check_lock:
        return _check_contexts.setdefault(context, len(_check_contexts))


def check_entry(digest: bytes) -> CheckEntry:
    """The memo entry for ``digest``, created empty on first use."""
    with _check_lock:
        entry = _check_memo.get(digest)
        if entry is not None:
            _check_memo.move_to_end(digest)
            return entry
        entry = _check_memo[digest] = CheckEntry()
        if len(_check_memo) > CHECK_LIMIT:
            _check_memo.popitem(last=False)
            CHECK_STATS.evictions += 1
        return entry


# -- the pipelines' shared frontend ------------------------------------------


def frontend_get(key: tuple):
    """The stored ``(module, profile)`` frontend for ``key``, or ``None``.

    Callers must not mutate either: they deep-copy the module and only
    read the profile."""
    with _frontend_lock:
        value = _frontend_memo.get(key)
        if value is None:
            FRONTEND_STATS.misses += 1
            return None
        _frontend_memo.move_to_end(key)
        FRONTEND_STATS.hits += 1
        return value


def frontend_put(key: tuple, value: tuple) -> None:
    with _frontend_lock:
        _frontend_memo[key] = value
        _frontend_memo.move_to_end(key)
        while len(_frontend_memo) > FRONTEND_LIMIT:
            _frontend_memo.popitem(last=False)
            FRONTEND_STATS.evictions += 1
