"""Observability: pass/sim tracing and trace export.

One process-global :class:`~repro.obs.trace.Tracer` is consulted by the
pipeline, the schedulers, buffer assignment and the VLIW simulator.  It
defaults to :data:`~repro.obs.trace.NULL_TRACER` (every operation free);
installing one with :func:`use` is the only way to trace::

    tracer = Tracer()
    with obs.use(tracer):
        compiled = compile_aggressive(module)
    payload = tracer.to_payload()

``REPRO_TRACE`` turns tracing on for the runner CLI (any non-empty value
except ``0``/``false``/``no``; a value that names a path doubles as the
trace output directory).  A traced cell records only what its run
computed: it reads and writes no disk cache, so a warm traced run
recomputes its cells instead of serving them (DESIGN.md §5p).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro import falsey
from repro.obs.trace import NULL_TRACER, Instant, NullTracer, Span, Tracer

__all__ = [
    "DEFAULT_TRACE_DIR",
    "ENV_TRACE",
    "Instant",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "trace_dir_from_env",
    "use",
]

ENV_TRACE = "REPRO_TRACE"

#: default directory for runner trace artifacts when only a flag is given
DEFAULT_TRACE_DIR = ".repro_trace"

_active: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The tracer instrumented code should record into right now."""
    return _active


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install (or, with ``None``, clear) the process-global tracer;
    returns the previous one."""
    global _active
    previous = _active
    _active = NULL_TRACER if tracer is None else tracer
    return previous


@contextmanager
def use(tracer: Tracer | None):
    """Scope a tracer: install on entry, restore the previous on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def trace_dir_from_env(value: str | None = None) -> str | None:
    """Resolve ``REPRO_TRACE`` to a trace output directory, or ``None``.

    Falsey values (unset, or one of :data:`repro.FALSEY`) disable
    tracing; bare truthy flags (``1``, ``true``, ``yes``, ``on``) use
    :data:`DEFAULT_TRACE_DIR`; anything else is taken as the directory.
    """
    if value is None:
        value = os.environ.get(ENV_TRACE, "")
    if falsey(value):
        return None
    value = value.strip()
    if value.lower() in ("1", "true", "yes", "on"):
        return DEFAULT_TRACE_DIR
    return value
