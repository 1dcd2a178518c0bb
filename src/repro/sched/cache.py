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
"""

from __future__ import annotations

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

_list_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_modulo_cache: "OrderedDict[tuple, tuple]" = OrderedDict()

def clear_caches() -> None:
    """Drop every memoized placement and dependence graph."""
    _list_cache.clear()
    _modulo_cache.clear()
    clear_dependence_cache()


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
