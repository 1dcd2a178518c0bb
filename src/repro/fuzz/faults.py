"""Deliberate-bug injection: named miscompilation seams for validating
the fuzzer.

A differential fuzzer that has never caught a bug is unfalsifiable; these
context managers monkeypatch a known-good internal with a subtly wrong
variant so tests (and ``python -m repro.fuzz run --inject-fault NAME``)
can demonstrate that the oracle flags the divergence and the minimizer
shrinks it to a small reproducer.

Faults only ever touch the *compiled* side (a compiler pass or the VLIW
simulator); the reference interpreter is never patched, so a fault can
only widen the differential, never hide it.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.ir.opcodes import Opcode
from repro.memo import clear_caches

__all__ = ["FAULTS", "inject_fault"]


@contextmanager
def _patched(obj, name, replacement):
    original = getattr(obj, name)
    setattr(obj, name, replacement)
    try:
        yield
    finally:
        setattr(obj, name, original)


@contextmanager
def _ifconvert_guard_drop():
    """If-conversion "forgets" the guard of one predicated operation.

    The classic predication bug: an op from one arm of a converted diamond
    executes unconditionally, clobbering the other arm's value whenever
    its guard would have been false.
    """
    from repro.predication import hyperblock

    real = hyperblock.if_convert_region

    def wrapped(func, header, body, cfg):
        info = real(func, header, body, cfg)
        for op in func.block(header).ops:
            if (op.guard is not None and op.dests
                    and op.opcode != Opcode.PRED_DEF):
                op.guard = None
                break
        return info

    with _patched(hyperblock, "if_convert_region", wrapped):
        yield


@contextmanager
def _cloop_reload_off_by_one():
    """A buffered counted loop reloads its trip count one short.

    Models a ``rec_cloop`` fetch-directive bug in the VLIW simulator: the
    loop-counter reload drops an iteration, so any buffered counted loop
    computes over one fewer pass than the interpreter.
    """
    from repro.sim import vliw

    real = vliw.VLIWSimulator._do_rec

    def wrapped(self, frame, key, op):
        real(self, frame, key, op)
        if op.opcode == Opcode.REC_CLOOP and op.srcs:
            lc = op.attrs["lc"]
            frame.lc[lc] = frame.lc[lc] - 1

    with _patched(vliw.VLIWSimulator, "_do_rec", wrapped):
        yield


@contextmanager
def _dce_drop_store():
    """Dead-code elimination deletes the function's last store.

    An over-aggressive-DCE bug: a live memory write disappears, so any
    program whose checksum observes that location diverges.
    """
    from repro import pipeline

    real = pipeline.eliminate_dead_code

    def wrapped(func, *args, **kwargs):
        result = real(func, *args, **kwargs)
        for block in reversed(func.blocks):
            for index in range(len(block.ops) - 1, -1, -1):
                if block.ops[index].opcode == Opcode.ST:
                    del block.ops[index]
                    return result
        return result

    with _patched(pipeline, "eliminate_dead_code", wrapped):
        yield


@contextmanager
def _rec_num_short():
    """Buffer assignment records every loop one op short.

    A buffer-phase bug planted through the capacity overlay: each
    ``rec_cloop``/``rec_wloop`` installed in a copied preheader records
    one op fewer than the loop's footprint, which the assignment table
    still holds.  Checked mode's buffer rules must reject the retarget.
    """
    from repro.loopbuffer import assign

    real = assign._rewrite_ir

    def wrapped(module, result, candidates, get_block=None):
        if get_block is None:
            def get_block(fname, label):
                return module.function(fname).block(label)
        real(module, result, candidates, get_block)
        preheaders = {(c.func, c.header): c.preheader for c in candidates}
        for a in result.assigned:
            block = get_block(a.func, preheaders[(a.func, a.header)])
            for op in block.ops:
                if (op.opcode in (Opcode.REC_CLOOP, Opcode.REC_WLOOP)
                        and op.attrs["loop"] == a.header):
                    op.attrs["num"] = a.length - 1

    with _patched(assign, "_rewrite_ir", wrapped):
        yield


FAULTS = {
    "ifconvert-guard-drop": _ifconvert_guard_drop,
    "cloop-reload-off-by-one": _cloop_reload_off_by_one,
    "dce-drop-store": _dce_drop_store,
    "rec-num-short": _rec_num_short,
}


@contextmanager
def inject_fault(name: str | None):
    """Context manager applying the named fault; no-op for ``None``.

    The process memos (:func:`repro.memo.clear_caches`) are emptied on
    entry and on exit: their keys name the program and its settings,
    not the pass and simulator functions a fault patches, so a stock
    artifact would otherwise serve the faulted run and a faulted one
    the next stock run.  Their counters are kept, so a faulted fuzz
    run still reports its memo traffic.
    """
    if name is None:
        yield
        return
    try:
        fault = FAULTS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault {name!r} (choose from {', '.join(sorted(FAULTS))})"
        ) from None
    clear_caches(counters=False)
    try:
        with fault():
            yield
    finally:
        clear_caches(counters=False)
