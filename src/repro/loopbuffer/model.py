"""The compiler-managed loop buffer (Section 5, Table 3).

The buffer is a small on-chip operation store "mapped architecturally into
the instruction address space, but residing on-chip in a physically
different location".  The compiler manages it as a resource: ``rec_*``
operations record a loop's body at a chosen buffer offset while the first
iteration executes from global fetch; subsequent iterations issue from the
buffer.  A small hardware table maps buffer offsets of *active* loops to
the addresses of their ``rec`` operations, so re-encountering a ``rec``
whose loop is still intact skips re-recording entirely ("the hardware is
simply given a small memory to avoid useless work").

This module models the hardware state machine; fetch/cycle accounting
lives in the VLIW simulator, and offset selection in
:mod:`repro.loopbuffer.assign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class LoopState(str, Enum):
    ABSENT = "absent"        # not in the buffer
    RECORDING = "recording"  # first iteration: fetch from memory, store
    RESIDENT = "resident"    # issue from the buffer


@dataclass
class BufferedLoop:
    """One loop's residency claim: [offset, offset+length) in the buffer."""

    key: str                 # identity of the rec op (loop label)
    offset: int
    length: int
    counted: bool            # rec_cloop vs rec_wloop
    state: LoopState = LoopState.RECORDING

    def overlaps(self, other: "BufferedLoop") -> bool:
        return self.offset < other.offset + other.length and \
            other.offset < self.offset + self.length


@dataclass
class BufferStats:
    records_started: int = 0
    records_skipped: int = 0   # residency table hit: loop still intact
    invalidations: int = 0

    def as_tuple(self) -> tuple[int, int, int]:
        """Canonical value form, for differential comparison and hashing."""
        return (self.records_started, self.records_skipped,
                self.invalidations)


class LoopBuffer:
    """Hardware state of one loop buffer.

    ``listener``, when set, observes lifecycle transitions the caller
    cannot see from ``rec``'s return value alone — currently only
    ``listener("evict", victim_key, by=recording_key)`` when a recording
    overwrites another loop's buffer range.
    """

    def __init__(self, capacity: int = 256, listener=None) -> None:
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        self.loops: dict[str, BufferedLoop] = {}
        self.stats = BufferStats()
        self.listener = listener

    # -- Table 3 operations ---------------------------------------------------

    def rec(self, key: str, offset: int, length: int, counted: bool) -> LoopState:
        """``rec_cloop`` / ``rec_wloop``: begin buffering ``length`` ops at
        ``offset`` unless the loop is already intact in the buffer.

        Returns the state the loop enters: RESIDENT on a residency-table
        hit, RECORDING otherwise.
        """
        if length > self.capacity or offset < 0 or offset + length > self.capacity:
            raise ValueError(
                f"loop {key}: [{offset}, {offset + length}) exceeds "
                f"{self.capacity}-op buffer"
            )
        existing = self.loops.get(key)
        if (existing is not None and existing.offset == offset
                and existing.length == length
                and existing.state is LoopState.RESIDENT):
            self.stats.records_skipped += 1
            return LoopState.RESIDENT

        claim = BufferedLoop(key, offset, length, counted)
        # recording overwrites anything sharing buffer space
        for other_key, other in list(self.loops.items()):
            if other_key != key and other.overlaps(claim):
                del self.loops[other_key]
                self.stats.invalidations += 1
                if self.listener is not None:
                    self.listener("evict", other_key, by=key)
        self.loops[key] = claim
        self.stats.records_started += 1
        return LoopState.RECORDING

    def exec_loop(self, key: str) -> LoopState:
        """``exec_cloop`` / ``exec_wloop``: run a loop assumed buffered."""
        loop = self.loops.get(key)
        if loop is None or loop.state is not LoopState.RESIDENT:
            raise LookupError(f"exec of non-resident loop {key!r}")
        return LoopState.RESIDENT

    # -- state transitions driven by the fetch engine ----------------------------

    def state_of(self, key: str) -> LoopState:
        loop = self.loops.get(key)
        return loop.state if loop is not None else LoopState.ABSENT

    def finish_recording(self, key: str) -> None:
        """The first iteration completed: the loop image is now intact."""
        loop = self.loops.get(key)
        if loop is not None and loop.state is LoopState.RECORDING:
            loop.state = LoopState.RESIDENT

    def occupancy(self) -> int:
        """Buffer words currently claimed by any loop."""
        claimed = [False] * self.capacity
        for loop in self.loops.values():
            for i in range(loop.offset, loop.offset + loop.length):
                claimed[i] = True
        return sum(claimed)
