"""Warm worker pool: consistent-hash affinity, batching, backpressure.

Every request needs a compiled base for its ``(benchmark, pipeline)``
group before it can retarget and simulate.  Bases are expensive to build
and cheap to keep, so the pool routes each group to *one* worker via a
consistent-hash ring — that worker's base memo (and, through it, the
fast engine's shared decode store) stays hot for the group, and a
capacity sweep never recompiles.  The ring means a resize moves only
``~1/N`` of the groups, so a scaled-up service keeps most of its warmth.

Each worker owns a bounded deque.  ``submit`` raising
:class:`QueueFull` *is* the backpressure signal — the service turns it
into an ``overloaded`` response instead of letting latency grow without
bound.  When a worker wakes it takes the oldest computation plus every
other queued computation of the same group (up to ``batch_limit``) in
one batch: the service executes the batch against a single shared base,
so concurrent capacity requests for one benchmark become one overlay
sweep.
"""

from __future__ import annotations

import hashlib
import threading
import time
from bisect import bisect_right
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

#: virtual nodes per worker on the hash ring; enough that group load
#: spreads evenly even at small worker counts
DEFAULT_REPLICAS = 64

DEFAULT_QUEUE_DEPTH = 64
DEFAULT_BATCH_LIMIT = 32


class QueueFull(RuntimeError):
    """The owning worker's queue is at depth — shed this request."""


def _hash(value: str) -> int:
    return int.from_bytes(
        hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent hashing of group keys onto worker indices."""

    def __init__(self, workers: int, replicas: int = DEFAULT_REPLICAS) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        points = []
        for worker in range(workers):
            for replica in range(replicas):
                points.append((_hash(f"worker-{worker}:{replica}"), worker))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [w for _, w in points]

    def worker_for(self, group) -> int:
        point = _hash(repr(group))
        index = bisect_right(self._points, point) % len(self._points)
        return self._owners[index]


@dataclass
class Computation:
    """One unit of real work (1..n coalesced requests resolve from it).

    ``future`` resolves to whatever the service's executor returns; the
    per-request response wrappers hang off it via callbacks.  ``waiters``
    counts the requests riding on this computation — when it is greater
    than one, coalescing saved ``waiters - 1`` computations.
    """

    key: tuple
    group: tuple
    request: object
    #: the request's resolved run settings (a ``RunConfig``)
    settings: object = None
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    deadline_at: float | None = None
    waiters: int = 1

    @property
    def expired(self) -> bool:
        return (self.deadline_at is not None
                and time.perf_counter() > self.deadline_at)


@dataclass
class WorkerStats:
    computations: int = 0
    batches: int = 0
    max_queue_depth: int = 0

    def as_dict(self) -> dict:
        return {"computations": self.computations, "batches": self.batches,
                "max_queue_depth": self.max_queue_depth}


class WorkerPool:
    """N worker threads, each owning a bounded affinity queue."""

    def __init__(self, workers: int, execute_batch,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 batch_limit: int = DEFAULT_BATCH_LIMIT,
                 replicas: int = DEFAULT_REPLICAS,
                 name: str = "serve") -> None:
        self.ring = HashRing(workers, replicas)
        self.queue_depth = queue_depth
        self.batch_limit = max(1, batch_limit)
        self._execute_batch = execute_batch
        self._queues: list[deque[Computation]] = [deque()
                                                  for _ in range(workers)]
        self._conds = [threading.Condition() for _ in range(workers)]
        self.stats = [WorkerStats() for _ in range(workers)]
        self._stopping = False
        self._threads = [
            threading.Thread(target=self._run, args=(i,),
                             name=f"{name}-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def workers(self) -> int:
        return len(self._threads)

    def worker_for(self, group) -> int:
        return self.ring.worker_for(group)

    def submit(self, comp: Computation) -> int:
        """Enqueue on the owning worker; returns the worker index.

        Raises :class:`QueueFull` when that worker is at depth — the
        caller sheds load instead of queueing unboundedly.
        """
        worker = self.ring.worker_for(comp.group)
        cond = self._conds[worker]
        with cond:
            if self._stopping:
                raise QueueFull("pool is shutting down")
            queue = self._queues[worker]
            if len(queue) >= self.queue_depth:
                raise QueueFull(
                    f"worker {worker} queue at depth {self.queue_depth}")
            queue.append(comp)
            stats = self.stats[worker]
            stats.max_queue_depth = max(stats.max_queue_depth, len(queue))
            cond.notify()
        return worker

    def _take_batch(self, worker: int) -> list[Computation] | None:
        """Block for work; return the next same-group batch (or ``None``
        at shutdown)."""
        cond = self._conds[worker]
        queue = self._queues[worker]
        with cond:
            while not queue:
                if self._stopping:
                    return None
                cond.wait()
            head = queue.popleft()
            batch = [head]
            if len(batch) < self.batch_limit:
                rest = []
                for comp in queue:
                    if (comp.group == head.group
                            and len(batch) < self.batch_limit):
                        batch.append(comp)
                    else:
                        rest.append(comp)
                queue.clear()
                queue.extend(rest)
            return batch

    def _run(self, worker: int) -> None:
        while True:
            batch = self._take_batch(worker)
            if batch is None:
                return
            stats = self.stats[worker]
            stats.batches += 1
            stats.computations += len(batch)
            try:
                self._execute_batch(worker, batch)
            except BaseException as exc:  # never kill the worker thread
                for comp in batch:
                    if not comp.future.done():
                        comp.future.set_exception(exc)

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain nothing: pending computations get
        a :class:`QueueFull` so no caller blocks forever."""
        for cond, queue in zip(self._conds, self._queues):
            with cond:
                self._stopping = True
                while queue:
                    comp = queue.popleft()
                    if not comp.future.done():
                        comp.future.set_exception(
                            QueueFull("pool closed before execution"))
                cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

    def queue_depths(self) -> list[int]:
        return [len(q) for q in self._queues]
