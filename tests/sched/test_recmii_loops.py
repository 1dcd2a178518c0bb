"""Cycle-jumping RecMII equals the bisection oracle on real loops.

Every loop the modulo scheduler sees while both pipelines compile the
tier-1 benchmarks and the ``tests/fuzz_corpus`` reproducers is checked
against :func:`tests.sched.recmii_oracle.oracle_recurrence_mii`.  The
``slow`` test widens the sweep to all 22 bases and the 34 generated
programs of perfbench's fuzz corpus; CI's perf gate job runs it.
"""

from pathlib import Path

import pytest

from repro.bench import benchmark, benchmark_names
from repro.fuzz.corpus import Corpus
from repro.fuzz.gen import generate_source
from repro.fuzz.oracle import DEFAULT_MAX_STEPS
from repro.frontend import compile_source
from repro.pipeline import COMPILERS
from repro.sched.modulo import ModuloSchedulingFailed, recurrence_mii
from repro.sim.interp import SimError

from tests.sched.recmii_oracle import oracle_recurrence_mii, recorded_graphs

TIER1 = ("adpcm_enc", "g724_dec", "jpeg_dec")
CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"
#: generator seeds of perfbench's fuzz corpus
FUZZ_PROGRAMS = 34


def _answer(search, graph):
    try:
        return search(graph)
    except ModuloSchedulingFailed:
        return "failed"


def _compile_benchmarks(names):
    for name in names:
        bench = benchmark(name)
        for compile_ in COMPILERS.values():
            compile_(bench.build(), entry=bench.entry, args=bench.args,
                     buffer_capacity=None)


def _compile_sources(sources):
    for source in sources:
        module = compile_source(source)
        for compile_ in COMPILERS.values():
            try:
                compile_(module, buffer_capacity=None,
                         max_steps=DEFAULT_MAX_STEPS)
            except SimError:
                pass  # traps while profiling: no loop reaches the scheduler


def _assert_loops_match_oracle(benchmarks, sources):
    with recorded_graphs() as graphs:
        _compile_benchmarks(benchmarks)
        _compile_sources(sources)
    assert any(edge.distance for graph in graphs for edge in graph.edges)
    for graph in graphs:
        assert _answer(recurrence_mii, graph) == \
            _answer(oracle_recurrence_mii, graph)


def test_tier1_and_corpus_loops_match_oracle():
    sources = [entry.source for entry in Corpus(CORPUS_DIR).entries()]
    _assert_loops_match_oracle(TIER1, sources)


@pytest.mark.slow
def test_all_bases_and_generated_corpus_match_oracle():
    _assert_loops_match_oracle(
        benchmark_names(),
        [generate_source(seed) for seed in range(FUZZ_PROGRAMS)])
