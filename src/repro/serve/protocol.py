"""Request/response schema and the JSON-lines wire form.

One request per line, one response per line, both UTF-8 JSON objects
with a ``v`` protocol-version field.  The same dataclasses travel
in-process (the test/benchmark :class:`~repro.serve.client.Client`
hands them straight to the service) and over a socket, so everything on
them must stay JSON-able.

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
``stats`` / ``ping``
    service introspection and liveness, used by clients and CI.

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
import json
from dataclasses import asdict, dataclass, field

from repro.loopbuffer.overlay import check_capacity
from repro.pipeline import RunConfig
from repro.runner.summary import RunSummary, summary_from_dict, summary_to_dict  # noqa: F401

#: bump on incompatible wire changes; both sides check it
PROTOCOL_VERSION = 1

REQUEST_KINDS = ("run", "compile", "stats", "ping")

#: statuses a request can come back with
STATUSES = ("ok", "trap", "checked-failure", "overloaded", "timeout",
            "error")


class ProtocolError(ValueError):
    """A malformed request/response line or an unsupported version."""


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
        """Check the request and return its run settings, resolved
        against the environment.  ``capacity`` must be ``None`` or a
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
            return RunConfig.resolve(self.checked, self.max_steps)
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

    # -- wire form ---------------------------------------------------------

    def as_dict(self) -> dict:
        data = {k: v for k, v in asdict(self).items() if v is not None}
        data.setdefault("kind", self.kind)
        data["v"] = PROTOCOL_VERSION
        return data


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

    def as_dict(self) -> dict:
        data: dict = {"v": PROTOCOL_VERSION, "status": self.status}
        if self.id is not None:
            data["id"] = self.id
        if self.payload is not None:
            data["payload"] = self.payload
        if self.error is not None:
            data["error"] = self.error
        if self.meta:
            data["meta"] = self.meta
        return data


# ---------------------------------------------------------------------------
# JSON-lines encoding


def encode(obj: Request | Response) -> bytes:
    """One wire line (newline-terminated UTF-8 JSON) for a message."""
    return (json.dumps(obj.as_dict(), sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def _decode_line(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON line: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("wire message must be a JSON object")
    version = data.pop("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} != {PROTOCOL_VERSION}")
    return data


def decode_request(line: bytes | str) -> Request:
    data = _decode_line(line)
    known = {f for f in Request.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ProtocolError(f"unknown request fields {sorted(unknown)}")
    request = Request(**data)
    request.validate()
    return request


def decode_response(line: bytes | str) -> Response:
    data = _decode_line(line)
    known = {f for f in Response.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ProtocolError(f"unknown response fields {sorted(unknown)}")
    data.setdefault("meta", {})
    return Response(**data)
