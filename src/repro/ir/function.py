"""Functions: ordered block layouts plus virtual-register allocation."""

from __future__ import annotations

from typing import Iterator

from .block import BasicBlock
from .opcodes import Opcode
from .operation import Operation
from .registers import FLOAT, INT, PRED, VReg


class Function:
    """A function: parameters, a layout-ordered list of blocks, counters.

    Block layout order is semantically meaningful: a block that *falls
    through* continues in the next block of :attr:`blocks`.  The first block
    is the entry.
    """

    def __init__(self, name: str, params: list[VReg] | None = None) -> None:
        self.name = name
        self.params: list[VReg] = list(params or [])
        self.blocks: list[BasicBlock] = []
        self._by_label: dict[str, BasicBlock] = {}
        self._next_reg = {INT: 0, FLOAT: 0, PRED: 0}
        self._next_label = 0
        #: size of the function's stack frame in words (locals / spills).
        self.frame_words = 0
        #: register holding the frame base address at entry (set by lowering
        #: when the function has stack locals; bound by the simulators).
        self.frame_base: VReg | None = None
        for param in self.params:
            self._note_reg(param)

    # -- copies -------------------------------------------------------------------

    def with_blocks(self, blocks: list[BasicBlock]) -> "Function":
        """A new function laid out as ``blocks``, which it takes as given,
        with this one's name, frame and a copy of its parameters and
        register and label counters."""
        func = object.__new__(Function)
        func.name = self.name
        func.params = self.params.copy()
        func.blocks = blocks
        func._by_label = {block.label: block for block in blocks}
        func._next_reg = self._next_reg.copy()
        func._next_label = self._next_label
        func.frame_words = self.frame_words
        func.frame_base = self.frame_base
        return func

    def clone(self) -> "Function":
        """A private copy: a clone of every block, op uids kept.  A
        capacity overlay's clone keeps the overlay's origin
        (``_decode_origin``, :mod:`repro.loopbuffer.overlay`), which is
        the immutable base function and stays shared."""
        # the label index keeps its own (insertion) order, as a deep copy
        # would
        by_label = {label: block.clone()
                    for label, block in self._by_label.items()}
        func = self.with_blocks([by_label[block.label]
                                 for block in self.blocks])
        func._by_label = by_label
        if "_decode_origin" in self.__dict__:
            func._decode_origin = self._decode_origin
        return func

    # -- registers and labels -------------------------------------------------

    def _note_reg(self, reg: VReg) -> None:
        if reg.index >= self._next_reg[reg.kind]:
            self._next_reg[reg.kind] = reg.index + 1

    def new_reg(self, kind: str = INT) -> VReg:
        """Allocate a fresh virtual register of the given class."""
        reg = VReg(kind, self._next_reg[kind])
        self._next_reg[kind] += 1
        return reg

    def new_pred(self) -> VReg:
        return self.new_reg(PRED)

    def new_label(self, hint: str = "bb") -> str:
        """Allocate a fresh, unique block label."""
        while True:
            label = f"{hint}{self._next_label}"
            self._next_label += 1
            if label not in self._by_label:
                return label

    def sync_reg_counters(self) -> None:
        """Recompute register counters after importing foreign operations
        (e.g. inlining) so :meth:`new_reg` never collides."""
        for op in self.ops():
            for reg in list(op.reads()) + list(op.writes()):
                self._note_reg(reg)

    # -- block management -------------------------------------------------------

    def add_block(self, label: str | None = None, index: int | None = None) -> BasicBlock:
        """Create a new block, appended or inserted at ``index``."""
        if label is None:
            label = self.new_label()
        if label in self._by_label:
            raise ValueError(f"duplicate block label {label!r}")
        block = BasicBlock(label)
        if index is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(index, block)
        self._by_label[label] = block
        return block

    def adopt_block(self, block: BasicBlock, index: int | None = None) -> BasicBlock:
        """Insert an externally-constructed block into the layout."""
        if block.label in self._by_label:
            raise ValueError(f"duplicate block label {block.label!r}")
        if index is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(index, block)
        self._by_label[block.label] = block
        return block

    def remove_block(self, label: str) -> None:
        block = self._by_label.pop(label)
        self.blocks.remove(block)

    def block(self, label: str) -> BasicBlock:
        return self._by_label[label]

    def has_block(self, label: str) -> bool:
        return label in self._by_label

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block_index(self, label: str) -> int:
        for i, block in enumerate(self.blocks):
            if block.label == label:
                return i
        raise KeyError(label)

    # -- CFG queries (layout-aware) ----------------------------------------------

    def successors(self, block: BasicBlock) -> list[str]:
        """Labels of all possible successors of ``block``, fallthrough last.

        Branch targets are listed in operation order; the fallthrough
        successor (next block in layout) is appended when the block can fall
        through and a next block exists.
        """
        succs: list[str] = []
        for target in block.exit_targets():
            if target not in succs:
                succs.append(target)
        if block.falls_through:
            idx = self.blocks.index(block)
            if idx + 1 < len(self.blocks):
                nxt = self.blocks[idx + 1].label
                if nxt not in succs:
                    succs.append(nxt)
        return succs

    def predecessors(self) -> dict[str, list[str]]:
        """Map from block label to the labels of its predecessors."""
        preds: dict[str, list[str]] = {block.label: [] for block in self.blocks}
        for block in self.blocks:
            for succ in self.successors(block):
                if succ in preds:
                    preds[succ].append(block.label)
        return preds

    # -- iteration ----------------------------------------------------------------

    def ops(self) -> Iterator[Operation]:
        for block in self.blocks:
            yield from block.ops

    def op_count(self) -> int:
        """Static operation count (NOPs excluded)."""
        return sum(
            1 for op in self.ops() if op.opcode != Opcode.NOP
        )

    def __repr__(self) -> str:
        return f"<Function {self.name}: {len(self.blocks)} blocks, {self.op_count()} ops>"
