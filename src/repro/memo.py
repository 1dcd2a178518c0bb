"""One bounded LRU type for every in-process memo, and one way to drop them.

Each layer memoizes deterministic work by content: schedule placements,
dependence graphs, per-function check results, parsed programs, the
pipelines' frontend, compiled interpreter blocks and compiled bases
(DESIGN.md §5j lists each memo with its key and bound).  Every one of them is a :class:`Memo`: a
bounded LRU behind one lock that counts its hits, misses and evictions
in a :class:`MemoStats`.  :func:`clear_caches` empties them all and
zeroes their counters, as a new process would start.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class MemoStats:
    """A memo's hits, misses and LRU evictions.

    For the check memo, a hit or a miss is counted per function verify
    or IR lint a check needed; for every other memo, per lookup."""

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


#: every live memo, for :func:`clear_caches`
_MEMOS: "weakref.WeakSet[Memo]" = weakref.WeakSet()


class Memo:
    """A bounded LRU of at most ``limit`` entries behind one lock.

    Values are never ``None``: :meth:`get` answers ``None`` for a miss.
    Any thread may call any method; a lookup that races an eviction
    sees the entry or a miss, never a half-updated table.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.stats = MemoStats()
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        _MEMOS.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The value for ``key``, refreshed as most recently used, or
        ``None``; counts a hit or a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key, value) -> None:
        """Store ``value`` as most recently used, evicting beyond the
        bound."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict()

    def setdefault(self, key, make):
        """The value for ``key``, stored from ``make()`` on first use.

        Counts neither a hit nor a miss: the caller counts what the
        entry served (the check memo fills its entries in place)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                value = self._entries[key] = make()
                self._evict()
            else:
                self._entries.move_to_end(key)
            return value

    def clear(self, counters: bool = True) -> None:
        """Drop every entry and, unless ``counters`` is false, zero the
        counters."""
        with self._lock:
            self._entries.clear()
            if counters:
                self.stats.reset()

    def _evict(self) -> None:
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


def clear_caches(counters: bool = True) -> None:
    """Empty every memo and zero its counters, and forget every built
    benchmark and reference checksum.  ``counters=False`` keeps the
    counters, for a caller that drops entries mid-run and still reports
    what the run's lookups hit."""
    from repro.bench.suite import clear_benchmark_memo

    for memo in list(_MEMOS):
        memo.clear(counters)
    clear_benchmark_memo()
