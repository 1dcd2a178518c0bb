"""Shared IR-construction helpers for the test suite."""

from __future__ import annotations

from repro.ir import Function, IRBuilder, Imm, Module, ireg

#: compiled unbuffered bases, one per (benchmark, pipeline), shared by
#: every test module that sweeps capacities over them
_BASES: dict[tuple[str, str], object] = {}


def compiled_base(name: str, pipeline: str):
    """The benchmark's ``buffer_capacity=None`` base, compiled once per
    test process (it carries its pass trace)."""
    from repro.bench import benchmark
    from repro.pipeline import COMPILERS

    key = (name, pipeline)
    if key not in _BASES:
        bench = benchmark(name)
        _BASES[key] = COMPILERS[pipeline](
            bench.build(), entry=bench.entry, args=bench.args,
            buffer_capacity=None)
    return _BASES[key]


def single_block_function(name: str = "main", nparams: int = 0) -> tuple[Function, IRBuilder]:
    """A function with one entry block and a builder positioned in it."""
    params = [ireg(i) for i in range(nparams)]
    func = Function(name, params)
    for _ in range(nparams):
        func.new_reg()  # reserve the param indices
    block = func.add_block("entry")
    return func, IRBuilder(func, block)


def build_counting_loop(bound: int) -> Module:
    """``main() { s = 0; for (i = 0; i < bound; i++) s += i; return s; }``

    A canonical simple loop: preheader, one-block body with a loop-back
    branch, and an exit block.
    """
    module = Module("counting")
    func = Function("main")
    module.add_function(func)
    b = IRBuilder(func)

    entry = func.add_block("entry")
    body = func.add_block("body")
    done = func.add_block("done")

    b.at(entry)
    i = b.movi(0)
    s = b.movi(0)

    b.at(body)
    b.add(s, i, dest=s)
    b.add(i, Imm(1), dest=i)
    b.br("lt", i, Imm(bound), "body")

    b.at(done)
    b.ret(s)
    return module


def build_nested_loop(outer: int = 8, inner: int = 8) -> Module:
    """The Figure 2 shape: an outer loop with a small counted inner loop.

    ``main()``::

        acc = 0
        for (j = 0; j < outer; j++) {      # OUTER
            for (i = 0; i < inner; i++)    # INNER
                acc = acc + (j * 8 + i)
        }
        return acc
    """
    module = Module("nested")
    func = Function("main")
    module.add_function(func)
    b = IRBuilder(func)

    entry = func.add_block("entry")
    outer_blk = func.add_block("outer")
    inner_blk = func.add_block("inner")
    latch = func.add_block("latch")
    done = func.add_block("done")

    b.at(entry)
    acc = b.movi(0)
    j = b.movi(0)

    b.at(outer_blk)
    i = b.movi(0)

    b.at(inner_blk)
    t = b.mul(j, Imm(8))
    t2 = b.add(t, i)
    b.add(acc, t2, dest=acc)
    b.add(i, Imm(1), dest=i)
    b.br("lt", i, Imm(inner), "inner")

    b.at(latch)
    b.add(j, Imm(1), dest=j)
    b.br("lt", j, Imm(outer), "outer")

    b.at(done)
    b.ret(acc)
    return module


def build_if_diamond() -> Module:
    """``main(x) { if (x < 10) y = x + 1; else y = x - 1; return y; }``"""
    module = Module("diamond")
    x = ireg(0)
    func = Function("main", [x])
    module.add_function(func)
    b = IRBuilder(func)

    entry = func.add_block("entry")
    then = func.add_block("then")
    els = func.add_block("else")
    join = func.add_block("join")

    y = func.new_reg()
    b.at(entry)
    b.br("ge", x, Imm(10), "else")
    b.at(then)
    b.add(x, Imm(1), dest=y)
    b.jump("join")
    b.at(els)
    b.sub(x, Imm(1), dest=y)
    b.at(join)
    b.ret(y)
    return module
