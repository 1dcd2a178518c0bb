"""Scheduler memoization: content-keyed hits, pinned schedules, stats."""

import pytest

from repro.analysis.dependence import (
    build_dependence_graph,
    dependence_cache_stats,
    dependence_graph,
    ops_fingerprint,
)
from repro.bench import benchmark
from repro.ir import BasicBlock, Imm, Opcode, Operation, ireg
from repro.pipeline import compile_aggressive, compile_traditional
from repro.sched import cache as sched_cache
from repro.sched.list_sched import schedule_block
from repro.sched.modulo import modulo_schedule

from tests.retarget_golden import GOLDEN, canonical_retarget, cell_key, digest


@pytest.fixture(autouse=True)
def _fresh_caches():
    sched_cache.clear_caches()
    yield
    sched_cache.clear_caches()


def _body():
    """A block with some ILP and a branch (fresh Operation objects)."""
    return [
        Operation(Opcode.LD, [ireg(2)], [ireg(0), Imm(0)]),
        Operation(Opcode.ADD, [ireg(3)], [ireg(2), Imm(1)]),
        Operation(Opcode.MUL, [ireg(4)], [ireg(3), ireg(3)]),
        Operation(Opcode.ADD, [ireg(0)], [ireg(0), Imm(4)]),
        Operation(Opcode.BR, [], [ireg(0), Imm(64)],
                  attrs={"cmp": "lt", "target": "loop"}),
    ]


def _loop_body():
    return [
        Operation(Opcode.ADD, [ireg(0)], [ireg(0), ireg(1)]),
        Operation(Opcode.ADD, [ireg(1)], [ireg(1), Imm(1)]),
        Operation(Opcode.BR_CLOOP, [], [],
                  attrs={"target": "loop", "lc": "l0"}),
    ]


def _compile_matches_golden(name, pipeline):
    """Compile an unbuffered base; its list and modulo schedules must
    match the digest the linear-probe schedulers pinned for the cell."""
    compiler = {"traditional": compile_traditional,
                "aggressive": compile_aggressive}[pipeline]
    bench = benchmark(name)
    base = compiler(bench.build(), entry=bench.entry, args=bench.args,
                    buffer_capacity=None)
    assert (digest(canonical_retarget(base))
            == GOLDEN["retarget"][cell_key(name, pipeline, None)])


def _canonical(schedule, ops):
    return tuple(sorted((schedule.placement[op.uid].cycle,
                         schedule.placement[op.uid].slot, repr(op))
                        for op in ops))


class TestContentKeys:
    def test_same_content_same_fingerprint(self):
        assert ops_fingerprint(_body()) == ops_fingerprint(_body())

    def test_different_content_different_fingerprint(self):
        other = _body()
        other[1] = Operation(Opcode.SUB, [ireg(3)], [ireg(2), Imm(1)])
        assert ops_fingerprint(_body()) != ops_fingerprint(other)

    def test_uids_do_not_leak_into_fingerprint(self):
        a, b = _body(), _body()
        assert [op.uid for op in a] != [op.uid for op in b]
        assert ops_fingerprint(a) == ops_fingerprint(b)


class TestListScheduleCache:
    def test_identical_blocks_hit_and_replay_identically(self):
        before = sched_cache.LIST_STATS.hits
        ops_a, ops_b = _body(), _body()
        sched_a = schedule_block(BasicBlock("loop", ops_a))
        sched_b = schedule_block(BasicBlock("loop", ops_b))
        assert sched_cache.LIST_STATS.hits == before + 1
        assert _canonical(sched_a, ops_a) == _canonical(sched_b, ops_b)

    def test_replayed_schedule_binds_callers_operations(self):
        schedule_block(BasicBlock("loop", _body()))
        ops = _body()
        sched = schedule_block(BasicBlock("loop", ops))
        placed = {op for bundle in sched.bundles
                  for _, op in bundle.in_slot_order()}
        assert placed == set(ops)

    def test_exit_live_is_part_of_the_key(self):
        ops_a, ops_b = _body(), _body()
        schedule_block(BasicBlock("loop", ops_a))
        misses = sched_cache.LIST_STATS.misses
        schedule_block(BasicBlock("loop", ops_b),
                       exit_live={4: {ireg(3)}})
        assert sched_cache.LIST_STATS.misses == misses + 1

    def test_legacy_and_optimized_schedules_identical(self):
        # cold (empty caches), then warm: every block replays from cache
        _compile_matches_golden("adpcm_enc", "traditional")
        hits = sched_cache.LIST_STATS.hits
        _compile_matches_golden("adpcm_enc", "traditional")
        assert sched_cache.LIST_STATS.hits > hits


class TestModuloCache:
    def test_identical_loops_hit_with_identical_schedules(self):
        ops_a, ops_b = _loop_body(), _loop_body()
        sched_a = modulo_schedule(BasicBlock("loop", ops_a))
        before = sched_cache._modulo_cache.stats.hits
        sched_b = modulo_schedule(BasicBlock("loop", ops_b))
        assert sched_cache._modulo_cache.stats.hits == before + 1
        assert sched_a.ii == sched_b.ii
        assert sched_a.mve_factor == sched_b.mve_factor
        assert ([sched_a.times[op.uid] for op in ops_a]
                == [sched_b.times[op.uid] for op in ops_b])
        assert ([sched_a.slots[op.uid] for op in ops_a]
                == [sched_b.slots[op.uid] for op in ops_b])

    def test_cached_schedule_rebinds_uids(self):
        modulo_schedule(BasicBlock("loop", _loop_body()))
        ops = _loop_body()
        sched = modulo_schedule(BasicBlock("loop", ops))
        assert set(sched.times) == {op.uid for op in ops}

    def test_legacy_and_optimized_agree(self):
        # cold (empty caches), then warm: every loop replays from cache
        _compile_matches_golden("adpcm_enc", "aggressive")
        hits = sched_cache._modulo_cache.stats.hits
        _compile_matches_golden("adpcm_enc", "aggressive")
        assert sched_cache._modulo_cache.stats.hits > hits


class TestDependenceCache:
    def test_hit_rebinds_edges_onto_caller_ops(self):
        ops_a, ops_b = _body(), _body()
        graph_a = dependence_graph(ops_a, fingerprint=ops_fingerprint(ops_a))
        hits = dependence_cache_stats().hits
        graph_b = dependence_graph(ops_b, fingerprint=ops_fingerprint(ops_b))
        assert dependence_cache_stats().hits == hits + 1
        assert graph_b.ops == list(ops_b)
        assert ([(e.src, e.dst, e.kind, e.latency, e.distance)
                 for e in graph_a.edges]
                == [(e.src, e.dst, e.kind, e.latency, e.distance)
                    for e in graph_b.edges])

    def test_cached_graph_matches_fresh_build(self):
        ops = _loop_body()
        fresh = build_dependence_graph(ops, loop_carried=True)
        dependence_graph(_loop_body(), loop_carried=True,
                         fingerprint=ops_fingerprint(ops))
        cached = dependence_graph(ops, loop_carried=True,
                                  fingerprint=ops_fingerprint(ops))
        assert ([(e.src, e.dst, e.kind, e.latency, e.distance)
                 for e in fresh.edges]
                == [(e.src, e.dst, e.kind, e.latency, e.distance)
                    for e in cached.edges])
