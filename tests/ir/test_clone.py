"""``Module.clone``: the IR copy the frontend hands every compile
(DESIGN.md §5e).

A clone must be what ``copy.deepcopy`` gives -- every field, op uids
included, so a shared ``Profile`` holds for it -- while sharing nothing
mutable with its source.  The field-coverage test fails when an IR class
gains a field that ``clone`` does not carry over.
"""

from __future__ import annotations

import copy
import pickle
from enum import Enum
from pathlib import Path

import pytest

from repro.bench import benchmark, benchmark_names
from repro.frontend import compile_source
from repro.fuzz.corpus import Corpus
from repro.ir import (
    BasicBlock,
    FImm,
    Function,
    GlobalData,
    GlobalRef,
    Imm,
    Label,
    Module,
    Operation,
    VReg,
    ireg,
)
from repro.pipeline import COMPILERS, RunConfig, _frontend, _module_digest
from repro.sched.machine import DEFAULT_MACHINE

from tests.helpers import compiled_base

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"

#: what a clone may share with its source
IMMUTABLE = (VReg, Imm, FImm, GlobalRef, Label, str, int, float, Enum,
             type(None))
#: what a clone must not share with its source
MUTABLE = (list, dict, Operation, BasicBlock, Function, GlobalData, Module)


def _benchmark_modules(name: str) -> dict[str, Module]:
    """The parsed program, its frontend output and both compiled bases."""
    bench = benchmark(name)
    frontend, _profile = _frontend(bench.build(), bench.entry, bench.args,
                                   0.5, DEFAULT_MACHINE,
                                   RunConfig(max_steps=200_000_000))
    modules = {"parsed": bench.build(), "frontend": frontend}
    for pipeline in COMPILERS:
        modules[pipeline] = compiled_base(name, pipeline).module
    return modules


def _corpus_modules() -> dict[str, Module]:
    modules = {}
    for entry in Corpus(CORPUS_DIR).entries():
        modules[f"{entry.id}/parsed"] = parsed = compile_source(entry.source)
        for pipeline, compile_ in COMPILERS.items():
            modules[f"{entry.id}/{pipeline}"] = compile_(
                parsed, buffer_capacity=None).module
    return modules


def _fields(obj) -> list:
    """Every field value ``obj`` holds: its set slots, else its vars.
    A capacity overlay's ``_decode_origin`` is the shared base function
    and is left out."""
    if isinstance(obj, (Operation, BasicBlock)):
        return [getattr(obj, slot) for slot in obj.__slots__
                if hasattr(obj, slot)]
    return [value for key, value in vars(obj).items()
            if key != "_decode_origin"]


def _mutable_objects(root) -> dict[int, object]:
    """id -> object of every mutable object reachable from ``root``;
    fails on a reachable value that is neither mutable IR nor a known
    immutable operand or scalar."""
    found: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, IMMUTABLE) or id(obj) in found:
            continue
        assert isinstance(obj, MUTABLE), f"unexpected {type(obj)!r}"
        found[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, list):
            stack.extend(obj)
        else:
            stack.extend(_fields(obj))
    return found


def _assert_clone_is_private_deepcopy(module: Module) -> None:
    clone = module.clone()
    digest = _module_digest(module, uids=True)
    assert _module_digest(clone, uids=True) == digest
    assert _module_digest(copy.deepcopy(module), uids=True) == digest
    # field for field, with the source's own sharing of operands
    assert pickle.dumps(clone) == pickle.dumps(module)
    shared = _mutable_objects(clone).keys() & _mutable_objects(module).keys()
    assert not shared


@pytest.mark.parametrize("name", benchmark_names())
def test_benchmark_clones_equal_deepcopies(name):
    for module in _benchmark_modules(name).values():
        _assert_clone_is_private_deepcopy(module)


def test_corpus_clones_equal_deepcopies():
    modules = _corpus_modules()
    assert len(modules) == 12
    for module in modules.values():
        _assert_clone_is_private_deepcopy(module)


def test_mutating_a_clone_leaves_its_source_unchanged():
    module = compiled_base("g724_dec", "aggressive").module
    digest = _module_digest(module, uids=True)
    before = pickle.dumps(module)
    clone = module.clone()
    mutated_lists = 0
    for func in clone.functions.values():
        func.params.append(ireg(900))
        func.new_reg()
        func.new_label()
        func.frame_words += 1
        for block in func.blocks:
            block.hyperblock = not block.hyperblock
            for op in block.ops:
                op.dests.append(ireg(901))
                op.srcs.append(Imm(7))
                for value in op.attrs.values():
                    if isinstance(value, list):
                        value.append("u")
                        mutated_lists += 1
                op.attrs["mutated"] = True
                op.uid += 1
            block.ops.reverse()
        func.add_block("mutated_block")
    for data in clone.globals.values():
        data.init.append(5)
    clone.add_global("mutated_global", 1)
    # the predicate defines' ptypes lists were mutated too
    assert mutated_lists > 0
    assert _module_digest(module, uids=True) == digest
    assert pickle.dumps(module) == before


def test_clone_covers_every_field():
    """Each IR object of a clone holds exactly the fields its source
    holds: a field added to an IR class and not carried by ``clone``
    fails here instead of vanishing from every compile."""
    module = compiled_base("adpcm_enc", "aggressive").module.clone()
    module.add_global("covered", 2, [1])
    clone = module.clone()

    def field_names(obj) -> set[str]:
        if isinstance(obj, (Operation, BasicBlock)):
            return {slot for slot in obj.__slots__ if hasattr(obj, slot)}
        return set(vars(obj))

    pairs = [(module, clone)]
    pairs += [(module.globals[name], clone.globals[name])
              for name in module.globals]
    for name, func in module.functions.items():
        twin = clone.functions[name]
        pairs.append((func, twin))
        for block, twin_block in zip(func.blocks, twin.blocks):
            pairs.append((block, twin_block))
            pairs.extend(zip(block.ops, twin_block.ops))
    for source, copied in pairs:
        assert field_names(copied) == field_names(source), type(source)
    # every slot of an op and a block is set on a clone
    op = next(module.functions["main"].ops())
    assert field_names(op.clone()) == set(Operation.__slots__)
    assert field_names(module.functions["main"].entry.clone()) \
        == set(BasicBlock.__slots__)


def test_clone_of_an_overlay_keeps_its_origin():
    from repro.pipeline import with_buffer

    base = compiled_base("adpcm_enc", "traditional")
    overlay = with_buffer(base, 64).module
    clone = overlay.clone()
    for name, func in overlay.functions.items():
        origin = getattr(func, "_decode_origin", None)
        assert getattr(clone.functions[name], "_decode_origin", None) \
            is origin
    _assert_clone_is_private_deepcopy(overlay)
