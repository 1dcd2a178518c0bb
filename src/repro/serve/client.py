"""The in-process client of the compile/simulate service.

:class:`Client` hands requests straight to :meth:`Service.submit
<repro.serve.service.Service.submit>` — no sockets, no serialization.
Its helpers (``run``/``compile``/``stats``) return
:class:`~repro.serve.protocol.Response` objects, and ``summary(...)``
unwraps an ``ok`` run response into a
:class:`~repro.runner.summary.RunSummary` or raises
:class:`ServiceError` naming the failure status.  :func:`drive` issues a
request list from concurrent clients.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.runner.summary import RunSummary
from repro.serve.protocol import Request, Response


class ServiceError(RuntimeError):
    """A request came back with a non-``ok`` status."""

    def __init__(self, response: Response) -> None:
        super().__init__(
            f"{response.status}: {response.error or '(no detail)'}")
        self.response = response


class Client:
    """In-process client: requests go straight to ``service.submit``."""

    def __init__(self, service) -> None:
        self.service = service

    def request(self, request: Request,
                timeout: float | None = None) -> Response:
        return self.service.submit(request).result(timeout=timeout)

    def submit(self, request: Request):
        """The raw future, for callers managing their own concurrency."""
        return self.service.submit(request)

    def run(self, benchmark: str | None = None, **fields) -> Response:
        """A ``run`` request; ``fields`` are its other :class:`Request`
        fields (``source``, ``pipeline``, ``capacity``, the run settings,
        ``deadline_s``)."""
        return self.request(Request(kind="run", benchmark=benchmark,
                                    **fields))

    def compile(self, benchmark: str | None = None, **fields) -> Response:
        """A ``compile`` request, with fields as for :meth:`run`."""
        return self.request(Request(kind="compile", benchmark=benchmark,
                                    **fields))

    def stats(self) -> dict:
        response = self.request(Request(kind="stats"))
        if not response.ok:
            raise ServiceError(response)
        return response.payload or {}

    def summary(self, benchmark: str | None = None, **kwargs) -> RunSummary:
        """``run(...)`` unwrapped to its :class:`RunSummary`, or raise."""
        response = self.run(benchmark, **kwargs)
        if not response.ok:
            raise ServiceError(response)
        return response.summary()


def drive(make_client, requests: list[Request],
          concurrency: int = 8) -> list[Response]:
    """Issue ``requests`` with ``concurrency`` parallel clients.

    ``make_client`` is called once per worker thread (a thunk returning
    a :class:`Client`); responses come back in request order.  This is
    the load generator behind perfbench's serve-mixed workload.
    """
    local = threading.local()

    def issue(request: Request) -> Response:
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = make_client()
        return client.request(request)

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(issue, requests))
