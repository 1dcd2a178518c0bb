"""Persistent compile/simulate service over the experiment runner.

The runner (:mod:`repro.runner`) executes a *grid* — a batch of
``(benchmark, pipeline, capacity)`` cells — and exits.  This package
wraps the same cell execution in a long-lived service so the warmth the
grid builds up (compiled bases, the content-addressed artifact cache)
survives between requests and is shared by thousands of concurrent
callers.  Cells, cache keys and the
cache itself stay the runner's, so the service and the batch runner
warm each other; this package adds only what a long-lived service needs:

- :mod:`repro.serve.protocol` — the request/response schema and its
  JSON-lines wire form (``compile``/``run``/``stats``/``ping``).
- :mod:`repro.serve.pool` — the one executor thread: a bounded queue
  (backpressure) drained in same-group batches that share one compiled
  base.
- :mod:`repro.serve.service` — the :class:`Service` itself: request
  coalescing (concurrent identical requests collapse into one
  computation), backpressure (``overloaded`` responses), per-request
  deadlines, obs spans/metrics on every request, and the asyncio
  JSON-lines front end over a unix or TCP socket.
- :mod:`repro.serve.client` — in-process :class:`Client` plus the
  :class:`SocketClient` wire client and a concurrent workload driver.
- :mod:`repro.serve.benches` — registered ``serve.*`` saturation/load
  benchmarks (requests/s, p50/p95/p99 cold vs. warm, hit rate), gated
  in CI beside ``sim.*``.

Start one from the shell with ``python -m repro.serve serve --unix
/tmp/repro.sock`` and drive it with ``python -m repro.serve workload``
(or any JSON-lines speaker).
"""

from repro.serve.client import Client, ServiceError, SocketClient
from repro.serve.protocol import Request, Response
from repro.serve.service import Service, ServiceConfig

__all__ = [
    "Client",
    "Request",
    "Response",
    "Service",
    "ServiceConfig",
    "ServiceError",
    "SocketClient",
]
