"""Persistent in-process compile/simulate service over the experiment runner.

The runner (:mod:`repro.runner`) executes a *grid* — a batch of
``(benchmark, pipeline, capacity)`` cells — and exits.  This package
wraps the same cell execution in a long-lived in-process service so the
warmth the grid builds up (compiled bases, the content-addressed
artifact cache) survives between requests and is shared by concurrent
callers.  Cells, cache keys and the cache itself stay the runner's, so
the service and the batch runner warm each other; this package adds only
what a long-lived service needs:

- :mod:`repro.serve.protocol` — the request/response schema
  (``run``/``compile``/``stats``) and its validation.
- :mod:`repro.serve.pool` — the one executor thread: a bounded queue
  (backpressure) drained in arrival order.
- :mod:`repro.serve.service` — the :class:`Service` itself: request
  coalescing (concurrent identical requests collapse into one
  computation), backpressure (``overloaded`` responses), per-request
  deadlines and obs spans on every computation.
- :mod:`repro.serve.client` — the in-process :class:`Client` and a
  concurrent workload driver.

Every request goes through :meth:`Service.submit`; there is no socket
or wire form.  perfbench's ``serve-mixed`` workload is the service's
load benchmark, and the fuzz oracle's ``--service`` axis routes one side
of its differential through it.
"""

from repro.serve.client import Client, ServiceError
from repro.serve.protocol import Request, Response
from repro.serve.service import Service, ServiceConfig

__all__ = [
    "Client",
    "Request",
    "Response",
    "Service",
    "ServiceConfig",
    "ServiceError",
]
