"""Basic blocks.

A block is a labeled sequence of operations.  Unlike textbook basic blocks,
*hyperblocks* produced by if-conversion may contain conditional branches
(side exits) anywhere in their body, so a block here is really an Lcode-style
"control block": control can leave at any branch operation, and falls through
to the next block in layout order unless the last operation is an
unconditional transfer.
"""

from __future__ import annotations

from typing import Iterator

from .opcodes import Opcode
from .operation import Operation


class BasicBlock:
    """A labeled straight-line sequence of operations."""

    __slots__ = ("label", "ops", "hyperblock")

    def __init__(self, label: str, ops: list[Operation] | None = None) -> None:
        self.label = label
        self.ops: list[Operation] = list(ops or [])
        #: set by if-conversion: this block was formed as a hyperblock.
        self.hyperblock = False

    def clone(self) -> "BasicBlock":
        """A private copy: the same label and flag, and a clone of each
        op (uids kept)."""
        block = object.__new__(BasicBlock)
        block.label = self.label
        block.ops = [op.clone() for op in self.ops]
        block.hyperblock = self.hyperblock
        return block

    def append(self, op: Operation) -> Operation:
        self.ops.append(op)
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        self.ops.insert(index, op)
        return op

    @property
    def terminator(self) -> Operation | None:
        """The final operation if it transfers control, else ``None``."""
        if self.ops and self.ops[-1].is_branch:
            return self.ops[-1]
        return None

    @property
    def falls_through(self) -> bool:
        """True when control can reach the next block in layout order."""
        term = self.terminator
        if term is None:
            return True
        if term.opcode in (Opcode.RET,):
            return False
        if term.opcode == Opcode.JUMP and term.guard is None:
            return False
        return True

    def branch_ops(self) -> Iterator[Operation]:
        """All control-transfer operations in the block, in order."""
        for op in self.ops:
            if op.is_branch:
                yield op

    def exit_targets(self) -> list[str]:
        """Labels of all explicit branch targets out of this block."""
        targets = []
        for op in self.branch_ops():
            if op.target is not None:
                targets.append(op.target)
        return targets

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label}: {len(self.ops)} ops>"
