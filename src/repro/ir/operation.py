"""The :class:`Operation` — a single (possibly guarded) IR instruction.

An operation is ``opcode  dests <- srcs  (guard)?  {attrs}``.  The guard is
an optional predicate register; a guarded operation is nullified when its
guard evaluates false (Section 4 of the paper).  ``attrs`` carries
non-operand information: comparison tests, branch targets, predicate-define
destination types, callee names, loop-counter ids and late scheduling
annotations (slot binding, predicate-sensitivity bit).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from .opcodes import (
    BRANCHES,
    CMP_TESTS,
    CONDITIONAL_BRANCHES,
    HAS_SIDE_EFFECTS,
    PTYPES,
    Opcode,
    latency_of,
    unit_of,
)
from .registers import Operand, VReg

_op_ids = itertools.count()


def _copy_value(value):
    """``value`` with every list and dict in it copied: the mutable types
    an attribute value may have (``ptypes`` is a list, ``slot_route`` a
    dict of lists)."""
    if type(value) is list:
        return [_copy_value(item) for item in value]
    if type(value) is dict:
        return {key: _copy_value(item) for key, item in value.items()}
    return value


class Operation:
    """One IR instruction.

    Attributes
    ----------
    opcode:
        The :class:`~repro.ir.opcodes.Opcode`.
    dests:
        Destination registers (predicate defines may have two).
    srcs:
        Source operands (registers, immediates, globals).
    guard:
        Optional guard predicate register; ``None`` for always-execute.
    attrs:
        Opcode-specific attributes, e.g. ``cmp``, ``target``, ``ptypes``,
        ``callee``, ``lc``, ``buf_addr``, ``num``.  The slot-predication
        allocator adds ``slot`` and ``psens``; hyperblock formation may add
        ``speculative``.
    """

    __slots__ = ("opcode", "dests", "srcs", "guard", "attrs", "uid")

    def __init__(
        self,
        opcode: Opcode,
        dests: list[VReg] | None = None,
        srcs: list[Operand] | None = None,
        guard: VReg | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.opcode = opcode
        self.dests: list[VReg] = list(dests or [])
        self.srcs: list[Operand] = list(srcs or [])
        self.guard = guard
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.uid = next(_op_ids)
        self._check()

    # -- construction helpers ------------------------------------------------

    def _check(self) -> None:
        if self.guard is not None and not self.guard.is_predicate:
            raise ValueError(f"guard {self.guard} is not a predicate register")
        for dst in self.dests:
            if not isinstance(dst, VReg):
                raise TypeError(f"destination {dst!r} is not a register")
        if self.opcode == Opcode.PRED_DEF:
            ptypes = self.attrs.get("ptypes")
            if not ptypes or len(ptypes) != len(self.dests):
                raise ValueError("pred_def needs one ptype per destination")
            for ptype in ptypes:
                if ptype not in PTYPES:
                    raise ValueError(f"bad predicate define type {ptype!r}")
            if self.attrs.get("cmp") not in CMP_TESTS:
                raise ValueError("pred_def needs a valid attrs['cmp']")
            for dst in self.dests:
                if not dst.is_predicate:
                    raise ValueError("pred_def destinations must be predicates")
        if self.opcode in (Opcode.CMP, Opcode.BR, Opcode.BR_WLOOP, Opcode.FCMP):
            if self.attrs.get("cmp") not in CMP_TESTS:
                raise ValueError(f"{self.opcode.value} needs a valid attrs['cmp']")

    def copy(self) -> "Operation":
        """A deep-enough copy: fresh uid, fresh operand lists, copied attrs."""
        return Operation(
            self.opcode,
            list(self.dests),
            list(self.srcs),
            self.guard,
            dict(self.attrs),
        )

    def clone(self) -> "Operation":
        """A private copy that keeps this op's uid, so a profile keyed by
        uid holds for it.  Its ``dests``, ``srcs`` and ``attrs`` are new
        containers, and so is every list or dict inside ``attrs``;
        operands and scalars are immutable and shared."""
        op = object.__new__(Operation)
        op.opcode = self.opcode
        op.dests = self.dests.copy()
        op.srcs = self.srcs.copy()
        op.guard = self.guard
        op.attrs = {key: _copy_value(value)
                    for key, value in self.attrs.items()}
        op.uid = self.uid
        return op

    # -- structural queries ----------------------------------------------------

    @property
    def is_branch(self) -> bool:
        return self.opcode in BRANCHES

    @property
    def is_conditional_branch(self) -> bool:
        return self.opcode in CONDITIONAL_BRANCHES

    @property
    def is_unconditional_jump(self) -> bool:
        return self.opcode == Opcode.JUMP

    @property
    def has_side_effects(self) -> bool:
        return self.opcode in HAS_SIDE_EFFECTS

    @property
    def target(self) -> str | None:
        """Branch target label name, if this is a branching operation."""
        return self.attrs.get("target")

    @property
    def unit(self):
        return unit_of(self.opcode)

    @property
    def latency(self) -> int:
        return latency_of(self.opcode)

    def reads(self) -> Iterator[VReg]:
        """Registers read: sources plus the guard predicate."""
        if self.guard is not None:
            yield self.guard
        for src in self.srcs:
            if isinstance(src, VReg):
                yield src

    def writes(self) -> Iterator[VReg]:
        yield from self.dests

    def replace_reads(self, mapping: dict[VReg, Operand]) -> None:
        """Substitute source registers (and the guard, registers only)."""
        self.srcs = [
            mapping.get(src, src) if isinstance(src, VReg) else src
            for src in self.srcs
        ]
        if self.guard is not None and self.guard in mapping:
            new_guard = mapping[self.guard]
            if not isinstance(new_guard, VReg) or not new_guard.is_predicate:
                raise ValueError("guard must map to a predicate register")
            self.guard = new_guard

    def replace_writes(self, mapping: dict[VReg, VReg]) -> None:
        self.dests = [mapping.get(dst, dst) for dst in self.dests]

    # -- printing ---------------------------------------------------------------

    def __repr__(self) -> str:
        parts = []
        if self.guard is not None:
            parts.append(f"({self.guard})")
        name = self.opcode.value
        if "cmp" in self.attrs:
            name += f".{self.attrs['cmp']}"
        if self.opcode == Opcode.PRED_DEF:
            dests = ", ".join(
                f"{dst}<{ptype}>"
                for dst, ptype in zip(self.dests, self.attrs["ptypes"])
            )
        else:
            dests = ", ".join(map(repr, self.dests))
        srcs = ", ".join(map(repr, self.srcs))
        parts.append(name)
        if dests:
            parts.append(dests + (" =" if srcs or not dests else " ="))
        if srcs:
            parts.append(srcs)
        if self.target is not None:
            parts.append(f"-> {self.target}")
        if "callee" in self.attrs:
            parts.append(f"[{self.attrs['callee']}]")
        return " ".join(parts)
