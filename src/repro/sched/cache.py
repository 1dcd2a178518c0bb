"""Content-addressed memoization and timing for the schedulers.

The list and modulo schedulers are deterministic functions of an op
list's *content* plus the machine description (and, for list scheduling,
the side-exit liveness map).  A Figure 7 capacity sweep retargets one
base at many buffer sizes, re-list-scheduling the preheaders that gain
``rec`` directives each time (the fuzz oracle buffers one base per
pipeline at each of its capacities), and checked mode re-derives
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

The same module holds checked mode's per-function check memo
(:func:`check_entry`): :class:`repro.pipeline._PassChecker` keys each
function's verify and IR-lint results by a digest of its content, so an
unchanged function is checked once per process.  It also holds the
pipelines' frontend memo (:func:`frontend_get` / :func:`frontend_put`):
the cleaned, inlined module and its profile, keyed by the input program
and the frontend's settings, so both pipelines of one program share one
frontend run (DESIGN.md §5e).  Each of the four is a
:class:`repro.memo.Memo` (DESIGN.md §5j); :func:`clear_caches` drops
every process memo.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.memo import Memo, clear_caches  # noqa: F401  (re-exported)


@dataclass
class SchedCacheStats:
    """Scheduler-phase wall time."""

    #: phase -> accumulated seconds ("list" | "modulo" | "oracle")
    seconds: dict = field(default_factory=dict)


STATS = SchedCacheStats()

#: block content, machine and side-exit liveness -> list placements
_list_cache = Memo(4096)
#: loop content and machine -> modulo outcome
_modulo_cache = Memo(4096)
#: function digest -> :class:`CheckEntry` (a function's verify message
#: and lint diagnostics)
_check_memo = Memo(4096)
#: input program and frontend settings -> (module, profile); each entry
#: holds one program's cleaned, inlined module and its profile
_frontend_memo = Memo(32)

LIST_STATS = _list_cache.stats
CHECK_STATS = _check_memo.stats
FRONTEND_STATS = _frontend_memo.stats

#: (machine, rules) -> small id folded into check digests.  Kept across
#: clear_caches(): a reissued id could alias a checker still running.
_check_contexts: dict[tuple, int] = {}
_check_lock = threading.Lock()


@contextmanager
def timed(kind: str):
    """Accumulate wall seconds against ``STATS.seconds[kind]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        STATS.seconds[kind] = (STATS.seconds.get(kind, 0.0)
                               + time.perf_counter() - t0)


# -- list-schedule placements ------------------------------------------------


def list_placements_get(key: tuple):
    """Stored ``((index, cycle, slot), ...)`` for a block, or ``None``."""
    return _list_cache.get(key)


def list_placements_put(key: tuple, placements: tuple) -> None:
    _list_cache.put(key, placements)


# -- modulo-schedule placements ----------------------------------------------


def modulo_result_get(key: tuple):
    """Stored modulo outcome: ``("ok", ii, times, slots, mve)`` with
    times/slots as index-keyed tuples, or ``("fail", message)``."""
    return _modulo_cache.get(key)


def modulo_result_put(key: tuple, value: tuple) -> None:
    _modulo_cache.put(key, value)


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
    return _check_memo.setdefault(digest, CheckEntry)


# -- the pipelines' shared frontend ------------------------------------------


def frontend_get(key: tuple):
    """The stored ``(module, profile)`` frontend for ``key``, or ``None``.

    Callers must not mutate either: they deep-copy the module and only
    read the profile."""
    return _frontend_memo.get(key)


def frontend_put(key: tuple, value: tuple) -> None:
    _frontend_memo.put(key, value)
