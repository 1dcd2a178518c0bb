"""The compiler-managed loop buffer: hardware model (Table 3) and the
compiler's buffer-assignment pass (the Figure 5 scheduling problem)."""

from .assign import (
    Assignment,
    AssignmentResult,
    LoopCandidate,
    assign_buffer,
    place_loops,
    scan_loops,
)
from .model import BufferedLoop, BufferStats, LoopBuffer, LoopState

__all__ = [
    "Assignment",
    "AssignmentResult",
    "BufferStats",
    "BufferedLoop",
    "LoopBuffer",
    "LoopCandidate",
    "LoopState",
    "assign_buffer",
    "place_loops",
    "scan_loops",
]
