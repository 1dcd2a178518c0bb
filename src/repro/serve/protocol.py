"""Request/response schema of the in-process service.

A caller builds a :class:`Request`, hands it to
:meth:`Service.submit <repro.serve.service.Service.submit>` (directly or
through :class:`~repro.serve.client.Client`) and gets a :class:`Response`
back.  Field values may come from outside the program (the fuzz oracle's
inline source, a caller's settings), so :meth:`Request.validate` checks
every one and the service answers a bad request with an ``error``
response.

Request kinds:

``run``
    compile (or reuse) the capacity-independent base for ``(benchmark,
    pipeline)``, retarget it at ``capacity`` and simulate; the response
    payload is the :class:`~repro.runner.summary.RunSummary` fields plus
    the simulated return value.  Either ``benchmark`` (a Table 1 name)
    or ``source`` (inline MKC text — the fuzz oracle's route) names the
    program.
``compile``
    just ensure the base exists (compile on miss, store in the cache);
    the response reports whether it was already warm.
``stats``
    the service's counters (:meth:`Service.snapshot
    <repro.serve.service.Service.snapshot>`).

Responses carry ``status``: ``ok``, ``trap`` (the program trapped — a
*result*, not a failure), ``checked-failure`` (checked-mode sanitizer
violation), ``overloaded`` (backpressure: the executor's queue was
full), ``timeout`` (the request's deadline expired before execution) or
``error`` (anything else, with ``error`` naming it).  ``meta`` says how
the request was served: whether it hit the run cache or the runner's
base memo, whether it was coalesced into another in-flight request, and
the wall latency.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.loopbuffer.overlay import check_capacity
from repro.pipeline import RunConfig
from repro.runner.summary import RunSummary, summary_from_dict, summary_to_dict  # noqa: F401

REQUEST_KINDS = ("run", "compile", "stats")

#: every status a request can come back with -> the
#: :class:`~repro.serve.service.ServiceStats` counter it bumps
STATUS_COUNTERS = {"ok": "ok", "trap": "traps", "checked-failure": "errors",
                   "overloaded": "overloaded", "timeout": "timeouts",
                   "error": "errors"}


class ProtocolError(ValueError):
    """A malformed request: an unknown kind, a missing or doubled
    program, or a bad run setting."""


@dataclass
class Request:
    """One service request (see module docstring for the kinds)."""

    kind: str = "run"
    benchmark: str | None = None
    #: inline MKC source, mutually exclusive with ``benchmark``
    source: str | None = None
    pipeline: str = "aggressive"
    capacity: int | None = None
    checked: bool = False
    #: simulation/profiling step budget (None = the pipeline default);
    #: the fuzz oracle pins this so runaway loops trap identically on
    #: both sides of its differential
    max_steps: int | None = None
    #: seconds the caller is willing to wait before the service may
    #: answer ``timeout`` instead of computing (None = no deadline)
    deadline_s: float | None = None
    #: caller-chosen correlation id, echoed verbatim on the response
    id: str | None = None

    def validate(self) -> RunConfig:
        """Check the request and return its run settings.  ``checked``
        must be a bool (``None`` is a bad request), ``max_steps``
        ``None`` or a positive int, and ``capacity`` ``None`` or a
        non-bool ``int >= 0``."""
        if self.kind not in REQUEST_KINDS:
            raise ProtocolError(f"unknown request kind {self.kind!r}")
        if self.kind in ("run", "compile"):
            if (self.benchmark is None) == (self.source is None):
                raise ProtocolError(
                    f"{self.kind} request needs exactly one of "
                    "benchmark/source")
        try:
            check_capacity(self.capacity)
            return RunConfig(self.checked, self.max_steps)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None

    # -- routing/identity keys --------------------------------------------

    @property
    def program_id(self) -> str:
        """Stable identity of the program: the benchmark name, or a
        content hash of inline source."""
        if self.benchmark is not None:
            return self.benchmark
        digest = hashlib.sha256(
            (self.source or "").encode("utf-8")).hexdigest()
        return f"src:{digest[:16]}"

    def coalesce_key(self) -> tuple:
        """Full semantic identity: two requests with equal keys must
        produce equal payloads, so concurrent ones share one
        computation.  Everything but ``kind`` and ``capacity`` decides
        the compiled base the request needs."""
        return (self.kind, self.program_id, self.pipeline, self.checked,
                self.max_steps, self.capacity)


@dataclass
class Response:
    """One service response; ``payload`` shape depends on the request."""

    status: str = "ok"
    id: str | None = None
    payload: dict | None = None
    error: str | None = None
    #: how the request was served: temperature, coalesced flag, base
    #: source, wall latency seconds
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def summary(self) -> RunSummary:
        """The run summary carried by an ``ok`` run response."""
        if not self.ok or not self.payload or "summary" not in self.payload:
            raise ProtocolError(f"response has no summary: {self}")
        return summary_from_dict(self.payload["summary"])
