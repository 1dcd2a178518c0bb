"""One executor thread: arrival order and backpressure.

Every request needs a compiled base for its ``(benchmark, pipeline)``
before it can retarget and simulate.  That work is CPU-bound Python, so
under the GIL a second thread cannot overlap it (DESIGN.md §5h): the
service runs every computation on one daemon thread fed by one bounded
deque, oldest first.  The base and the capacity class come from the
runner's process memos, so a computation shares them with every other
computation of its program without waiting for it.

``submit`` raising :class:`QueueFull` *is* the backpressure signal — the
service turns it into an ``overloaded`` response instead of letting
latency grow without bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

DEFAULT_QUEUE_DEPTH = 64


class QueueFull(RuntimeError):
    """The executor's queue is at depth — shed this request."""


@dataclass
class Computation:
    """One unit of real work (1..n coalesced requests resolve from it).

    The executor's callback resolves ``future``; the per-request
    response wrappers hang off it via callbacks.
    """

    key: tuple
    request: object
    #: the request's resolved run settings (a ``RunConfig``)
    settings: object = None
    future: Future = field(default_factory=Future)
    deadline_at: float | None = None

    @property
    def expired(self) -> bool:
        return (self.deadline_at is not None
                and time.perf_counter() > self.deadline_at)


class Executor:
    """One daemon thread draining one bounded queue in arrival order."""

    def __init__(self, execute,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        self.queue_depth = queue_depth
        self._execute = execute
        self._queue: deque[Computation] = deque()
        self._cond = threading.Condition()
        self._stopping = False
        self.computations = 0
        self.max_queue_depth = 0
        self._thread = threading.Thread(target=self._run,
                                        name="serve-executor", daemon=True)
        self._thread.start()

    def submit(self, comp: Computation) -> None:
        """Enqueue ``comp``; raises :class:`QueueFull` at depth (or once
        closed) so the caller sheds load instead of queueing
        unboundedly."""
        with self._cond:
            if self._stopping:
                raise QueueFull("executor is shutting down")
            if len(self._queue) >= self.queue_depth:
                raise QueueFull(f"queue at depth {self.queue_depth}")
            self._queue.append(comp)
            self.max_queue_depth = max(self.max_queue_depth,
                                       len(self._queue))
            self._cond.notify()

    def _take(self) -> Computation | None:
        """Block for work; return the oldest queued computation (or
        ``None`` at shutdown)."""
        with self._cond:
            while not self._queue:
                if self._stopping:
                    return None
                self._cond.wait()
            return self._queue.popleft()

    def _run(self) -> None:
        while True:
            comp = self._take()
            if comp is None:
                return
            self.computations += 1
            try:
                self._execute(comp)
            except BaseException as exc:  # never kill the executor thread
                if not comp.future.done():
                    comp.future.set_exception(exc)

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain nothing: pending computations get
        a :class:`QueueFull` so no caller blocks forever."""
        with self._cond:
            self._stopping = True
            while self._queue:
                comp = self._queue.popleft()
                if not comp.future.done():
                    comp.future.set_exception(
                        QueueFull("executor closed before execution"))
            self._cond.notify_all()
        self._thread.join(timeout=timeout)

    @property
    def depth(self) -> int:
        """Computations queued (not counting the one in flight)."""
        return len(self._queue)

    def stats(self) -> dict:
        return {"computations": self.computations,
                "max_queue_depth": self.max_queue_depth}
