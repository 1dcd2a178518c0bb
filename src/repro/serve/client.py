"""Clients for the compile/simulate service.

:class:`Client` talks to an in-process :class:`~repro.serve.service.
Service` directly — no sockets, no serialization — which is what the
tests, the fuzz oracle's service route and the ``serve.*`` benchmarks
use.  :class:`SocketClient` speaks the JSON-lines protocol over a unix
or TCP socket to a ``python -m repro.serve serve`` process; one
connection handles one request at a time, so concurrent callers open
concurrent connections (see :func:`drive`).

Both expose the same convenience surface (``run``/``compile``/
``ping``/``stats`` returning :class:`~repro.serve.protocol.Response`)
plus ``summary(...)`` which unwraps an ``ok`` run response into a
:class:`~repro.runner.summary.RunSummary` or raises
:class:`ServiceError` naming the failure status.
"""

from __future__ import annotations

import socket
from concurrent.futures import ThreadPoolExecutor

from repro.runner.summary import RunSummary
from repro.serve.protocol import (
    Request,
    Response,
    decode_response,
    encode,
)


class ServiceError(RuntimeError):
    """A request came back with a non-``ok`` status."""

    def __init__(self, response: Response) -> None:
        super().__init__(
            f"{response.status}: {response.error or '(no detail)'}")
        self.response = response


class _ConvenienceMixin:
    """Shared request builders over a ``request(Request) -> Response``."""

    def run(self, benchmark: str | None = None, *,
            source: str | None = None, pipeline: str = "aggressive",
            capacity: int | None = None, checked: bool = False,
            engine: str | None = None,
            max_steps: int | None = None,
            deadline_s: float | None = None) -> Response:
        return self.request(Request(
            kind="run", benchmark=benchmark, source=source,
            pipeline=pipeline, capacity=capacity, checked=checked,
            engine=engine, max_steps=max_steps,
            deadline_s=deadline_s))

    def compile(self, benchmark: str | None = None, *,
                source: str | None = None, pipeline: str = "aggressive",
                checked: bool = False, engine: str | None = None,
                max_steps: int | None = None) -> Response:
        return self.request(Request(
            kind="compile", benchmark=benchmark, source=source,
            pipeline=pipeline, checked=checked, engine=engine,
            max_steps=max_steps))

    def ping(self) -> Response:
        return self.request(Request(kind="ping"))

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


class Client(_ConvenienceMixin):
    """In-process client: requests go straight to ``service.submit``."""

    def __init__(self, service) -> None:
        self.service = service

    def request(self, request: Request,
                timeout: float | None = None) -> Response:
        return self.service.submit(request).result(timeout=timeout)

    def submit(self, request: Request):
        """The raw future, for callers managing their own concurrency."""
        return self.service.submit(request)


class SocketClient(_ConvenienceMixin):
    """JSON-lines client over a unix or TCP socket (one connection)."""

    def __init__(self, unix_path: str | None = None,
                 host: str | None = None, port: int | None = None,
                 timeout: float | None = 60.0) -> None:
        if unix_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(unix_path)
        elif host is not None and port is not None:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        else:
            raise ValueError("need unix_path or host+port")
        self._file = self._sock.makefile("rwb")

    def request(self, request: Request) -> Response:
        self._file.write(encode(request))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return decode_response(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def drive(make_client, requests: list[Request],
          concurrency: int = 8) -> list[Response]:
    """Issue ``requests`` with ``concurrency`` parallel clients.

    ``make_client`` is called once per worker thread (a thunk returning
    a :class:`Client` or :class:`SocketClient`); responses come back in
    request order.  This is the load generator behind the ``serve.*``
    benchmarks and the CI smoke workload.
    """
    import threading

    local = threading.local()

    def issue(request: Request) -> Response:
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = make_client()
        return client.request(request)

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(issue, requests))
