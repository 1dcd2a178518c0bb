"""Branch combining: many infrequent side exits -> one summary jump.

Section 3: "hyperblock side exit branches are numerous but very
infrequently taken.  In these instances, ... branch combining transforms
several branches into a single predicated jump, guarded by a 'summary
predicate.'  The summary predicate, computed using parallel or compare
types, is set to 1 when any exit from the loop is required; when any one of
these branches would have taken, a summary jump directs execution to a
'decode block' where the originally-desired control flow direction is
discerned."

Safety relies on the predicate structure if-conversion builds: when a side
exit's condition holds on the active path, every subsequent operation of
the hyperblock is guarded by a predicate that is false on that path, so the
registers consulted by the decode block's re-tests are unchanged between
the original exit point and the summary jump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.profile import Profile
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation
from repro.ir.registers import Imm

#: exits taken more often than this fraction of their executions are left
#: as real branches (combining them would *increase* taken-branch work).
DEFAULT_TAKEN_THRESHOLD = 0.05

#: combining pays for its decode block only with at least this many exits.
DEFAULT_MIN_EXITS = 2


@dataclass
class CombineStats:
    hyperblocks: int = 0
    branches_combined: int = 0
    decode_blocks: list[str] = field(default_factory=list)


def combine_branches(
    func: Function,
    profile: Profile | None = None,
    taken_threshold: float = DEFAULT_TAKEN_THRESHOLD,
    min_exits: int = DEFAULT_MIN_EXITS,
) -> CombineStats:
    """Apply branch combining to every hyperblock of ``func``."""
    stats = CombineStats()
    for block in list(func.blocks):
        if not block.hyperblock:
            continue
        combined = _combine_in_block(func, block, profile,
                                     taken_threshold, min_exits)
        if combined:
            stats.hyperblocks += 1
            stats.branches_combined += combined
            stats.decode_blocks.append(f"{block.label}_decode")
    return stats


def exit_candidates(block: BasicBlock) -> list[int]:
    """Indices of the side-exit BR ops combining may take, before any
    profile is consulted.

    The final transfer op is never combined (it is the loop-back branch or
    the fall-out path), and only plain conditional branches qualify.
    """
    last = len(block.ops) - 1
    return [i for i, op in enumerate(block.ops)
            if i != last and op.opcode == Opcode.BR
            and op.target != block.label]  # not the loop-back branch


def reads_profile(module: Module) -> bool:
    """Whether combining ``module`` could consult a profile: some
    hyperblock has at least ``DEFAULT_MIN_EXITS`` candidate exits.  With
    none, no block reaches it whatever the profile says."""
    return any(len(exit_candidates(block)) >= DEFAULT_MIN_EXITS
               for func in module.functions.values()
               for block in func.blocks if block.hyperblock)


def _combinable_exits(
    func: Function, block: BasicBlock, profile: Profile | None,
    taken_threshold: float,
) -> list[int]:
    """The candidate exits cold enough to combine."""
    indices = exit_candidates(block)
    if profile is None:
        return indices
    return [i for i in indices
            if profile.taken_ratio(func.name, block.ops[i].uid)
            <= taken_threshold]


def _combine_in_block(
    func: Function, block: BasicBlock, profile: Profile | None,
    taken_threshold: float, min_exits: int,
) -> int:
    exits = _combinable_exits(func, block, profile, taken_threshold)
    if len(exits) < min_exits:
        return 0

    summary = func.new_pred()
    decode_label = func.new_label(f"{block.label}_decode")
    decode = func.add_block(decode_label)

    # replace each exit branch with an or-type contribution to the summary
    recorded: list[Operation] = []
    for index in exits:
        branch = block.ops[index]
        recorded.append(branch)
        block.ops[index] = Operation(
            Opcode.PRED_DEF, [summary], list(branch.srcs), branch.guard,
            {"cmp": branch.attrs["cmp"], "ptypes": ["ot"]},
        )

    # clear the summary at the top of the hyperblock
    block.insert(0, Operation(Opcode.PRED_SET, [summary], [Imm(0)]))

    # summary jump: before the block's trailing run of transfer ops (the
    # loop-back branch / fall-out jump), so a deferred exit is never lost
    # to the next iteration
    jump = Operation(Opcode.JUMP, [], [], summary, {"target": decode_label})
    insert_at = len(block.ops)
    while insert_at > 0 and block.ops[insert_at - 1].is_branch:
        insert_at -= 1
    block.insert(insert_at, jump)

    # decode block: re-discern the original direction, in original order
    for branch in recorded:
        decode.append(
            Operation(Opcode.BR, [], list(branch.srcs), branch.guard,
                      {"cmp": branch.attrs["cmp"], "target": branch.target})
        )
    # unreachable fallback (the summary fired, so one re-test must take);
    # keeps the decode block well-terminated for the verifier
    decode.append(Operation(Opcode.JUMP, attrs={"target": recorded[-1].target}))
    return len(exits)
