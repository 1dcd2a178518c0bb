"""The one memo type: its contract on every process memo, its lock under
a thread race, and the compiled-base memo shared across figures."""

import importlib
import sys
import threading
import time

import pytest

from repro.analysis.dependence import dependence_cache_stats, dependence_graph
from repro.experiments import common, fig3, fig7, fig8
from repro.ir import Imm, Opcode, Operation, ireg
from repro.memo import Memo
from repro.runner.cache import ArtifactCache
from repro.sched import cache as sched_cache
from repro.sched.cache import clear_caches

#: (module, attribute, bound) of every process memo
PROCESS_MEMOS = {
    "list": ("repro.sched.cache", "_list_cache", 4096),
    "modulo": ("repro.sched.cache", "_modulo_cache", 4096),
    "dependence": ("repro.analysis.dependence", "_graph_cache", 4096),
    "check": ("repro.sched.cache", "_check_memo", 4096),
    "frontend": ("repro.sched.cache", "_frontend_memo", 32),
    "parse": ("repro.bench.suite", "PARSED", 32),
    "block-code": ("repro.sim.engine", "_block_code", 512),
    "bases": ("repro.runner.parallel", "BASE_MEMO", 32),
    "loop-scans": ("repro.loopbuffer.overlay", "LOOP_SCANS", 32),
    "base-live-in": ("repro.loopbuffer.overlay", "BASE_LIVE_IN", 128),
    "classes": ("repro.runner.parallel", "CLASS_MEMO", 256),
}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _memo(name: str) -> Memo:
    module, attr, _bound = PROCESS_MEMOS[name]
    return getattr(importlib.import_module(module), attr)


# -- the contract, on every process memo -------------------------------------


@pytest.mark.parametrize("name", sorted(PROCESS_MEMOS))
def test_process_memo_contract(name):
    memo, bound = _memo(name), PROCESS_MEMOS[name][2]

    def key(n):
        return ("contract", n)

    assert isinstance(memo, Memo)
    assert memo.limit == bound
    for n in range(bound + 1):
        memo.put(key(n), ("value", n))
    # the bound holds, and the eviction that kept it is counted
    assert len(memo) == bound
    assert memo.stats.evictions == 1
    assert memo.get(key(0)) is None
    # a hit refreshes the entry: the next eviction takes key 2, not 1
    assert memo.get(key(1)) == ("value", 1)
    memo.put(key(bound + 1), ("value", bound + 1))
    assert memo.get(key(1)) == ("value", 1)
    assert memo.get(key(2)) is None
    assert memo.stats.counts() == (2, 2, 2)

    # a fault injection drops the entries but keeps the counts
    clear_caches(counters=False)
    assert len(memo) == 0
    assert memo.stats.counts() == (2, 2, 2)
    memo.put(key(0), ("value", 0))
    clear_caches()
    assert len(memo) == 0
    assert memo.stats.counts() == (0, 0, 0)


def test_setdefault_counts_neither_hit_nor_miss():
    memo = Memo(2)
    first = memo.setdefault("a", list)
    assert memo.setdefault("a", list) is first
    memo.setdefault("b", list)
    memo.setdefault("a", list)          # refreshed: "b" is now oldest
    memo.setdefault("c", list)
    assert memo.get("b") is None
    assert memo.get("a") is first
    assert memo.stats.counts() == (1, 1, 1)


# -- lookups racing evictions ------------------------------------------------


THREADS = 8
ROUNDS = 1000
KEYS = 8
LIMIT = 4


class SlowKey:
    """A key whose hash gives up the interpreter lock, as any hash that
    runs Python code can be preempted: each lookup of it then spans a
    thread switch, which an unlocked LRU turns into a lost entry."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __hash__(self) -> int:
        time.sleep(0)
        return hash(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, SlowKey) and other.n == self.n


SLOW_KEYS = [SlowKey(n) for n in range(KEYS)]


def _race(lookup) -> int:
    """Run ``lookup(n)`` for keys ``0..KEYS-1`` on THREADS threads with a
    tiny switch interval; returns the number of lookups made."""
    errors = []
    gate = threading.Barrier(THREADS)

    def work(offset):
        gate.wait()
        try:
            for i in range(ROUNDS):
                lookup((i + offset) % KEYS)
        except Exception as exc:
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(n,))
               for n in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    return THREADS * ROUNDS


def test_memo_survives_lookups_racing_evictions():
    memo = Memo(LIMIT)

    def lookup(n):
        if memo.get(SLOW_KEYS[n]) is None:
            memo.put(SLOW_KEYS[n], ("value", n))

    lookups = _race(lookup)
    assert len(memo) <= LIMIT
    assert memo.stats.hits + memo.stats.misses == lookups


def test_placements_survive_lookups_racing_evictions(monkeypatch):
    monkeypatch.setattr(sched_cache._list_cache, "limit", LIMIT)

    def lookup(n):
        key = (SLOW_KEYS[n],)
        if sched_cache.list_placements_get(key) is None:
            sched_cache.list_placements_put(key, ((0, n, 0),))

    lookups = _race(lookup)
    assert len(sched_cache._list_cache) <= LIMIT
    stats = sched_cache.LIST_STATS
    assert stats.hits + stats.misses == lookups


def test_dependence_graphs_survive_lookups_racing_evictions(monkeypatch):
    from repro.analysis import dependence

    monkeypatch.setattr(dependence._graph_cache, "limit", LIMIT)
    blocks = [[Operation(Opcode.ADD, [ireg(1)], [ireg(0), Imm(n)]),
               Operation(Opcode.MUL, [ireg(2)], [ireg(1), ireg(1)])]
              for n in range(KEYS)]

    lookups = _race(lambda n: dependence_graph(
        blocks[n], fingerprint=(SLOW_KEYS[n],)))
    assert len(dependence._graph_cache) <= LIMIT
    stats = dependence_cache_stats()
    assert stats.hits + stats.misses == lookups


# -- one compiled base per process, across figures ---------------------------


class CountingCache(ArtifactCache):
    """Records the key of every base loaded from disk and stored."""

    def __init__(self, root):
        super().__init__(root)
        self.base_loads: list[str] = []
        self.base_stores: list[str] = []

    def load(self, key, kind):
        value = super().load(key, kind)
        if kind == "base" and value is not None:
            self.base_loads.append(key)
        return value

    def store(self, key, kind, value):
        if kind == "base":
            self.base_stores.append(key)
        return super().store(key, kind, value)


def test_cold_figures_share_each_base(tmp_path):
    cache = CountingCache(tmp_path / "cache")
    common.reset(cache)
    try:
        fig3.run(["adpcm_enc"])
        fig7.run(["adpcm_enc"], (64, 256), workers=1)
        fig8.run(["adpcm_enc"], workers=1)
    finally:
        common.reset()
    # fig3 compiles the aggressive base, fig7 the traditional one; every
    # later use of either comes from the base memo, not from disk
    assert len(cache.base_stores) == len(set(cache.base_stores)) == 2
    assert cache.base_loads == []
