"""The compile/simulate service: coalescing, deadlines, asyncio front end.

Request lifecycle (``submit`` returns a ``concurrent.futures.Future``
resolving to a :class:`~repro.serve.protocol.Response`):

1. **Front-door cache probe.**  A ``run`` request whose summary is
   already in the content-addressed cache answers immediately — no
   queue, no computation.  The cache is the runner's
   :class:`~repro.runner.cache.ArtifactCache` and every key is the
   runner's own (:func:`repro.runner.parallel.run_key`), so a grid the
   batch runner executed yesterday serves warm today and vice versa.
2. **Coalescing.**  Concurrent requests with equal semantic identity
   (:meth:`Request.coalesce_key`) collapse into one
   :class:`~repro.serve.pool.Computation`; every waiter gets its own
   response (with ``meta.coalesced`` set) off the shared result.
3. **Dispatch.**  The computation joins the one executor thread's
   bounded queue (:class:`~repro.serve.pool.Executor`).  A full queue
   sheds the request with an ``overloaded`` response instead of
   queueing unboundedly; an expired deadline answers ``timeout``
   without computing.
4. **Execution.**  The executor runs computations in arrival order.
   Each obtains its compiled base (the runner's base memo, cache or
   compile) and runs its capacity through the runner's cell executor
   (:func:`repro.runner.parallel.run_base`, whose capacity-class memo
   lets a capacity sweep share retargets and simulations), mapping its
   exceptions to response statuses.

Each response's ``meta`` records its wall latency, and execution opens
tracer spans, so a traced service emits the same Chrome-trace/Perfetto
artifacts as the runner.

The asyncio front end (:func:`serve_forever`, ``python -m repro.serve
serve``) speaks the JSON-lines protocol over a unix or TCP socket; each
connection is sequential, concurrency comes from connections.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from pathlib import Path

from repro.bench import benchmark
from repro.obs import get_tracer
from repro.pipeline import CheckedModeError, RunConfig
from repro.runner.cache import DEFAULT_CACHE_DIR, ArtifactCache
from repro.runner.parallel import (
    Source,
    _compile_base_timed,
    run_base,
    run_key,
)
from repro.runner.summary import RunSummary, summary_to_dict
from repro.serve.pool import (
    DEFAULT_QUEUE_DEPTH,
    Computation,
    Executor,
    QueueFull,
)
from repro.serve.protocol import Request, Response
from repro.sim.interp import SimError


@dataclass
class ServiceConfig:
    """Knobs for one service instance."""

    #: queued computations before ``submit`` sheds with ``overloaded``
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    cache_dir: str | None = DEFAULT_CACHE_DIR
    #: total cache size bound (bytes) enforced by the cache's LRU gc
    max_cache_bytes: int | None = None
    #: default per-request deadline when the request doesn't carry one
    deadline_s: float | None = None
    #: inert: the service runs one executor thread whatever this says
    #: (DESIGN.md §5h).  Still accepted, and must be >= 1, only because
    #: the perf harness's serve-mixed workload passes ``workers=2``; it
    #: goes when that workload stops passing it.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")


@dataclass
class ServiceStats:
    """Service-level counters (cache traffic lives on the cache).

    Every bump happens under the service's lock.  ``requests`` counts
    answered requests, each in exactly one status bucket, so ``requests
    == ok + traps + errors + overloaded + timeouts`` in every snapshot.
    """

    requests: int = 0
    ok: int = 0
    traps: int = 0
    errors: int = 0
    overloaded: int = 0
    timeouts: int = 0
    #: requests that attached to an in-flight identical computation
    coalesced: int = 0
    #: computations actually executed (coalescing makes this < requests)
    computations: int = 0
    run_cache_hits: int = 0
    base_memo_hits: int = 0
    base_cache_hits: int = 0
    base_compiles: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Service:
    """A running compile/simulate service (see module docstring)."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache: ArtifactCache | None = None
        if self.config.cache_dir:
            self.cache = ArtifactCache(Path(self.config.cache_dir),
                                       max_bytes=self.config.max_cache_bytes)
        self.stats = ServiceStats()
        self._lock = threading.Lock()
        self._pending: dict[tuple, Computation] = {}
        self.executor = Executor(self._execute_batch,
                                 queue_depth=self.config.queue_depth)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit(self, request: Request) -> "Future[Response]":
        t0 = time.perf_counter()
        out: Future = Future()
        try:
            settings = request.validate()
        except Exception as exc:
            self._finish(out, request, t0, Response(
                status="error", error=f"bad request: {exc}"))
            return out

        if request.kind == "ping":
            self._finish(out, request, t0,
                         Response(status="ok", payload={"pong": True}))
            return out
        if request.kind == "stats":
            self._finish(out, request, t0,
                         Response(status="ok", payload=self.snapshot()))
            return out

        # 1. front-door cache probe: a warm request never queues
        hit = self._probe(request, settings)
        if hit is not None:
            hit.meta.update(temperature="warm", served="run-cache")
            self._finish(out, request, t0, hit)
            return out

        # 2. coalesce with an identical in-flight computation, keyed on
        # the resolved settings: a default left unset equals one spelled out
        resolved = replace(request, checked=settings.checked)
        key = resolved.coalesce_key()
        deadline = request.deadline_s
        if deadline is None:
            deadline = self.config.deadline_s
        with self._lock:
            comp = self._pending.get(key)
            coalesced = comp is not None
            if comp is None:
                comp = Computation(
                    key=key, request=resolved, settings=settings,
                    deadline_at=(time.perf_counter() + deadline
                                 if deadline is not None else None))
                # register before dispatch so a concurrent identical
                # request can never miss the pending entry
                self._pending[key] = comp
            else:
                self.stats.coalesced += 1
        if not coalesced:
            # 3. dispatch with backpressure
            try:
                self.executor.submit(comp)
            except QueueFull as exc:
                with self._lock:
                    self._pending.pop(key, None)
                # resolve through the computation so any request that
                # coalesced in the meantime also hears "overloaded"
                if not comp.future.done():
                    comp.future.set_result(Response(
                        status="overloaded", error=str(exc),
                        meta={"queue_depth": self.executor.depth}))

        def _deliver(fut) -> None:
            exc = fut.exception()
            if exc is not None:
                response = Response(status="error",
                                    error=f"{type(exc).__name__}: {exc}")
            else:
                template = fut.result()
                response = Response(
                    status=template.status, payload=template.payload,
                    error=template.error, meta=dict(template.meta))
            response.meta["coalesced"] = coalesced
            self._finish(out, request, t0, response)

        comp.future.add_done_callback(_deliver)
        return out

    def _finish(self, out, request: Request, t0: float,
                response: Response) -> None:
        latency = time.perf_counter() - t0
        response.id = request.id
        response.meta.setdefault("temperature", "cold")
        response.meta["latency_s"] = round(latency, 6)
        bucket = {"ok": "ok", "trap": "traps", "checked-failure": "errors",
                  "overloaded": "overloaded", "timeout": "timeouts",
                  "error": "errors"}[response.status]
        # client threads and the executor thread both answer requests
        with self._lock:
            self.stats.requests += 1
            setattr(self.stats, bucket, getattr(self.stats, bucket) + 1)
            if response.meta.get("served") == "run-cache":
                self.stats.run_cache_hits += 1
        if not out.done():
            out.set_result(response)

    # -- cache keys --------------------------------------------------------

    @staticmethod
    def _program(request: Request):
        """The runner's identity for the request's program."""
        if request.benchmark is not None:
            return benchmark(request.benchmark)
        return Source(request.program_id, request.source or "")

    def _run_key(self, request: Request, settings: RunConfig,
                 program=None) -> tuple[str, str]:
        """(key, kind) for a run result in the content-addressed cache.

        A benchmark's summary is stored exactly as the runner stores it
        (kind ``run``); an inline source's verdict — ok, trap or checked
        failure, with its value — as kind ``serve``.
        """
        key = run_key(program or self._program(request), request.pipeline,
                      request.capacity, settings)
        return key, "run" if request.benchmark is not None else "serve"

    def _probe(self, request: Request,
               settings: RunConfig) -> Response | None:
        if self.cache is None or request.kind != "run":
            return None
        program = self._program(request)
        key, kind = self._run_key(request, settings, program)
        cached = self.cache.load(key, kind)
        if kind == "run" and isinstance(cached, RunSummary):
            # stored only after the checksum matched, so the value is
            # the benchmark's expected one
            return Response(status="ok", payload={
                "summary": summary_to_dict(cached),
                "value": program.expected(),
            })
        if kind == "serve" and isinstance(cached, dict) \
                and "status" in cached:
            return Response(status=cached["status"],
                            payload=cached.get("payload"),
                            error=cached.get("error"))
        return None

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    # -- execution (the executor thread) -----------------------------------

    def _execute_batch(self, comp: Computation) -> None:
        """Answer one computation (the name predates arrival-order
        execution; the perf harness probes it)."""
        self._count(computations=1)
        try:
            if comp.expired:
                self._resolve(comp, Response(
                    status="timeout",
                    error="deadline expired before execution"))
                return
            request = comp.request
            with get_tracer().span("serve_batch", category="serve",
                                   program=request.program_id,
                                   pipeline=request.pipeline):
                base, base_how, failure = self._base_for(request,
                                                         comp.settings)
                if failure is not None:
                    response = Response(status=failure[0], error=failure[1])
                    if request.kind == "run":
                        # a trap during profiling is as deterministic as
                        # one at run time — cache the verdict
                        self._store_verdict(*self._run_key(
                            request, comp.settings), response)
                elif request.kind == "compile":
                    response = Response(status="ok", payload={
                        "warm": base_how != "compiled"})
                else:
                    response = self._run_one(request, base, comp.settings)
                response.meta.update(served="computed", base=base_how)
                self._resolve(comp, response)
        except BaseException as exc:
            with self._lock:
                self._pending.pop(comp.key, None)
            if not comp.future.done():
                comp.future.set_exception(exc)

    def _resolve(self, comp: Computation, response: Response) -> None:
        with self._lock:
            self._pending.pop(comp.key, None)
        if not comp.future.done():
            comp.future.set_result(response)

    def _base_for(self, request: Request, settings: RunConfig):
        """``(base, how, failure)`` — the compiled base for a request.

        ``failure`` is ``(status, error)`` when compilation itself
        trapped/crashed (inline sources can do that); the request is
        answered with it.
        """
        try:
            base, _seconds, how, _trace = _compile_base_timed(
                self._program(request), request.pipeline, self.cache,
                settings)
        except Exception as exc:
            # profiling executes the program: a trap here mirrors one at
            # run time
            return None, "compiled", _failure(exc, "compile")
        self._count(**{_BASE_COUNTERS[how]: 1})
        return base, how, None

    def _run_one(self, request: Request, base,
                 settings: RunConfig) -> Response:
        """Retarget + simulate one request against its base."""
        program = self._program(request)
        key, kind = self._run_key(request, settings, program)
        try:
            summary, value = run_base(program, request.pipeline, base,
                                      request.capacity, settings)
        except AssertionError as exc:
            return Response(status="error", error=f"checksum-mismatch: {exc}")
        except Exception as exc:
            status, error = _failure(exc, "simulate")
            response = Response(status=status, error=error)
            if status == "error":
                return response
            return self._store_verdict(key, kind, response)
        if self.cache is not None and kind == "run":
            # the runner's own key/kind: the batch runner and the
            # service stay byte-compatible and warm each other
            self.cache.store(key, "run", summary)
        return self._store_verdict(key, kind, Response(status="ok", payload={
            "summary": summary_to_dict(summary), "value": value}))

    def _store_verdict(self, key: str, kind: str,
                       response: Response) -> Response:
        """Cache an inline source's verdict (kind ``serve``; a no-op for
        benchmarks): ok, trap and checked failure are all deterministic
        results, as cacheable as a summary."""
        if self.cache is not None and kind == "serve":
            self.cache.store(key, kind, {
                "status": response.status,
                "payload": response.payload,
                "error": response.error,
            })
        return response

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """The ``stats`` response payload."""
        with self._lock:
            stats = self.stats.as_dict()
            pending = len(self._pending)
        data = {
            "stats": stats,
            "queue_depth": self.executor.depth,
            "executor": self.executor.stats(),
            "pending": pending,
            # fraction of requests served straight from the run cache
            "hit_rate": (stats["run_cache_hits"] / stats["requests"]
                         if stats["requests"] else 0.0),
        }
        if self.cache is not None:
            data["cache"] = self.cache.stats.as_dict()
        return data


#: where a base came from -> the counter it bumps
_BASE_COUNTERS = {"memo": "base_memo_hits", "cache": "base_cache_hits",
                  "compiled": "base_compiles"}


def _failure(exc: Exception, stage: str) -> tuple[str, str]:
    """``(status, error)`` answering an exception out of the runner's
    compile or simulate step.  A trap or checked-mode failure is a
    deterministic *result* for the caller; anything else is an error."""
    if isinstance(exc, CheckedModeError):
        return "checked-failure", str(exc)
    if isinstance(exc, SimError):
        return "trap", type(exc).__name__
    return "error", f"{stage}: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# asyncio front end


async def _handle_connection(service: Service, reader, writer) -> None:
    from repro.serve.protocol import ProtocolError, decode_request, encode

    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            if not line.strip():
                continue
            try:
                request = decode_request(line)
            except ProtocolError as exc:
                writer.write(encode(Response(status="error",
                                             error=f"protocol: {exc}")))
                await writer.drain()
                continue
            response = await asyncio.wrap_future(service.submit(request))
            writer.write(encode(response))
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        try:
            writer.close()
        except Exception:
            pass


async def serve_forever(service: Service, unix_path: str | None = None,
                        host: str | None = None, port: int | None = None,
                        ready=None) -> None:
    """Run the JSON-lines server until cancelled.

    Exactly one of ``unix_path`` or ``host``/``port`` selects the
    transport; ``ready`` (an optional callable) fires with the bound
    server once listening — tests and the CLI use it to signal
    readiness.
    """

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer)

    if unix_path is not None:
        Path(unix_path).parent.mkdir(parents=True, exist_ok=True)
        server = await asyncio.start_unix_server(handler, path=unix_path)
    elif host is not None and port is not None:
        server = await asyncio.start_server(handler, host=host, port=port)
    else:
        raise ValueError("need unix_path or host+port")
    async with server:
        if ready is not None:
            ready(server)
        await server.serve_forever()
