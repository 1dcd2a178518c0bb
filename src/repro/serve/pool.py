"""One executor thread: same-group batching and backpressure.

Every request needs a compiled base for its ``(benchmark, pipeline)``
group before it can retarget and simulate.  That work is CPU-bound
Python, so under the GIL a second thread cannot overlap it (DESIGN.md
§5h): the service runs every computation on one daemon thread fed by
one bounded deque.

``submit`` raising :class:`QueueFull` *is* the backpressure signal — the
service turns it into an ``overloaded`` response instead of letting
latency grow without bound.  When the thread wakes it takes the oldest
computation plus every other queued computation of the same group (up
to :data:`BATCH_LIMIT`, order kept) in one batch: the service executes
the batch against a single shared base, so concurrent capacity requests
for one benchmark become one overlay sweep.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

DEFAULT_QUEUE_DEPTH = 64
#: most computations executed against one base in one batch
BATCH_LIMIT = 32


class QueueFull(RuntimeError):
    """The executor's queue is at depth — shed this request."""


@dataclass
class Computation:
    """One unit of real work (1..n coalesced requests resolve from it).

    ``future`` resolves to whatever the service's batch executor
    returns; the per-request response wrappers hang off it via
    callbacks.
    """

    key: tuple
    group: tuple
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
    """One daemon thread draining one bounded queue in same-group
    batches."""

    def __init__(self, execute_batch,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        self.queue_depth = queue_depth
        self._execute_batch = execute_batch
        self._queue: deque[Computation] = deque()
        self._cond = threading.Condition()
        self._stopping = False
        self.computations = 0
        self.batches = 0
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

    def _take_batch(self) -> list[Computation] | None:
        """Block for work; return the next same-group batch (or ``None``
        at shutdown)."""
        with self._cond:
            while not self._queue:
                if self._stopping:
                    return None
                self._cond.wait()
            head = self._queue.popleft()
            batch, rest = [head], deque()
            for comp in self._queue:
                if comp.group == head.group and len(batch) < BATCH_LIMIT:
                    batch.append(comp)
                else:
                    rest.append(comp)
            self._queue = rest
            return batch

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self.batches += 1
            self.computations += len(batch)
            try:
                self._execute_batch(batch)
            except BaseException as exc:  # never kill the executor thread
                for comp in batch:
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
        """Computations queued (not counting the batch in flight)."""
        return len(self._queue)

    def stats(self) -> dict:
        return {"computations": self.computations, "batches": self.batches,
                "max_queue_depth": self.max_queue_depth}
