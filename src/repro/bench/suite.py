"""Benchmark registry (Table 1 of the paper).

Each benchmark is a complete MKC program implementing the same algorithm
kernels as its MediaBench / telecom counterpart, on a deterministic
synthetic input, returning a rolling checksum.  A pure-Python *reference
implementation* computes the expected checksum, so every benchmark is a
self-checking correctness test for the whole compiler at every
optimization level.

Substitution note (see DESIGN.md): the original C sources and inputs
(clinton.pcm, testimg.jpg, ...) are not redistributable/available here;
what the paper's results depend on is *loop structure* — trip counts,
nest shapes, internal control flow, side exits — which these programs
reproduce per benchmark (e.g. ``mpeg2dec`` contains the exact Figure 2
``Add_Block`` loop, ``g724dec`` a 13-loop ``Post_Filter`` shaped like
Figure 5).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.frontend import compile_source
from repro.ir.module import Module


@dataclass
class Benchmark:
    """One Table 1 benchmark."""

    name: str
    description: str
    source: str
    reference: Callable[[], int]     # pure-Python expected checksum
    entry: str = "main"
    args: list[int] = field(default_factory=list)

    def build(self) -> Module:
        return compile_source(self.source, name=self.name)

    def expected(self) -> int:
        """The reference checksum, computed once per ``reference``
        function object (a benchmark with a replaced reference misses)."""
        reference = self.reference
        value = _EXPECTED.get(reference)
        if value is None:
            value = _EXPECTED[reference] = reference()
        return value


_REGISTRY: dict[str, Callable[[], Benchmark]] = {}
#: name -> its factory's Benchmark, built once per process; every lookup
#: hands out a copy sharing its source and ``reference``
_INSTANCES: dict[str, Benchmark] = {}
#: reference function -> the checksum it returned
_EXPECTED: "weakref.WeakKeyDictionary[Callable[[], int], int]" = (
    weakref.WeakKeyDictionary())


def clear_benchmark_memo() -> None:
    """Forget every built benchmark and reference checksum."""
    _INSTANCES.clear()
    _EXPECTED.clear()


def register(name: str):
    def deco(factory: Callable[[], Benchmark]):
        _REGISTRY[name] = factory
        return factory
    return deco


def benchmark(name: str) -> Benchmark:
    _load_all()
    built = _INSTANCES.get(name)
    if built is None:
        built = _INSTANCES.setdefault(name, _REGISTRY[name]())
    return replace(built, args=list(built.args))


def benchmark_names() -> list[str]:
    _load_all()
    return sorted(_REGISTRY)


def all_benchmarks() -> list[Benchmark]:
    return [benchmark(name) for name in benchmark_names()]


_loaded = False


def _load_all() -> None:
    global _loaded
    if _loaded:
        return
    from . import programs  # noqa: F401  (registers everything)

    _loaded = True
