"""Trace exporters: Chrome trace-event (Perfetto-loadable) JSON, and the
per-cell pass / loop report derived from it.

The unit of export is a *cell trace*: one dict per executed runner cell::

    {"name": ..., "pipeline": ..., "capacity": ...,
     "compile": <tracer payload> | None,     # base compile spans
     "run": <tracer payload> | None}         # retarget + simulate spans

where a *tracer payload* is :meth:`repro.obs.trace.Tracer.to_payload`
output; ``compile`` is empty when the cell's base came from the
process's base memo.  In the Chrome trace each cell becomes one ``pid``
with three threads: compile spans (wall µs), run spans (wall µs) and the
simulator's loop-buffer lifecycle events, whose timestamps are **machine
cycles**, not wall time.  :func:`trace_report` reads only that document,
so the runner's ``report.json`` and ``python -m repro.obs report
trace.json`` are one fold.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.runner.summary import format_table

#: artifact names the runner writes into its ``--trace`` directory
TRACE_FILENAME = "trace.json"
REPORT_FILENAME = "report.json"

#: tid layout inside each cell's pid
TID_COMPILE = 1
TID_RUN = 2
TID_SIM = 3

_THREAD_NAMES = {
    TID_COMPILE: "compile (wall us)",
    TID_RUN: "run (wall us)",
    TID_SIM: "sim (cycles)",
}


def cell_label(cell: dict) -> str:
    capacity = cell.get("capacity")
    return (f"{cell.get('name')}/{cell.get('pipeline')}"
            f"@{capacity if capacity is not None else 'nobuf'}")


def _meta(name: str, pid: int, tid: int, value: str) -> dict:
    return {"ph": "M", "name": name, "pid": pid, "tid": tid,
            "args": {"name": value}}


def _span_events(payload: dict, pid: int, tid: int) -> list[dict]:
    events = []
    for span in payload.get("spans", ()):
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span.get("cat", "pass"),
            "ts": span["ts"],
            "dur": max(span.get("dur", 0.0), 0.0),
            "pid": pid,
            "tid": tid,
            "args": span.get("args", {}),
        })
    return events


def _instant_events(payload: dict, pid: int, tid_wall: int,
                    tid_cycles: int) -> list[dict]:
    events = []
    for instant in payload.get("events", ()):
        cycles = instant.get("clock") == "cycles"
        events.append({
            "ph": "i",
            "s": "t",
            "name": instant["name"],
            "cat": instant.get("cat", "event"),
            "ts": instant["ts"],
            "pid": pid,
            "tid": tid_cycles if cycles else tid_wall,
            "args": instant.get("args", {}),
        })
    return events


def to_chrome_trace(cells: list[dict]) -> dict:
    """Merge cell traces into one Chrome trace-event document."""
    events: list[dict] = []
    for pid, cell in enumerate(cells, start=1):
        events.append(_meta("process_name", pid, 0, cell_label(cell)))
        for tid, label in _THREAD_NAMES.items():
            events.append(_meta("thread_name", pid, tid, label))
        compile_payload = cell.get("compile")
        if compile_payload:
            events.extend(_span_events(compile_payload, pid, TID_COMPILE))
            events.extend(_instant_events(compile_payload, pid,
                                          TID_COMPILE, TID_SIM))
        run_payload = cell.get("run")
        if run_payload:
            events.extend(_span_events(run_payload, pid, TID_RUN))
            events.extend(_instant_events(run_payload, pid, TID_RUN, TID_SIM))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "cells": [cell_label(cell) for cell in cells],
        },
    }


def validate_chrome_trace(doc) -> list[str]:
    """Chrome trace-event schema check; returns a list of violations.

    Enforced: the document (or its ``traceEvents``) is a list; every event
    carries ``ph``; every non-metadata event carries a numeric ``ts`` plus
    ``pid`` and ``tid``; duration (``B``/``E``) events balance per
    ``(pid, tid)`` track.
    """
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            return ["document has no traceEvents list"]
    elif isinstance(doc, list):
        events = doc
    else:
        return [f"expected a dict or list, got {type(doc).__name__}"]

    errors: list[str] = []
    depth: dict[tuple, int] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not ph:
            errors.append(f"{where}: missing 'ph'")
            continue
        if ph == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric 'ts'")
        for field in ("pid", "tid"):
            if field not in event:
                errors.append(f"{where}: missing '{field}'")
        track = (event.get("pid"), event.get("tid"))
        if ph == "B":
            depth[track] = depth.get(track, 0) + 1
        elif ph == "E":
            depth[track] = depth.get(track, 0) - 1
            if depth[track] < 0:
                errors.append(f"{where}: 'E' without matching 'B' on "
                              f"track {track}")
        elif ph == "X" and not isinstance(event.get("dur"), (int, float)):
            errors.append(f"{where}: 'X' event missing numeric 'dur'")
    for track, d in sorted(depth.items()):
        if d > 0:
            errors.append(f"track {track}: {d} unclosed 'B' event(s)")
    return errors


# ---------------------------------------------------------------------------
# report


#: a report loop row's counters, as the ``simulate`` span's ``loops`` name them
LOOP_FIELDS = ("buffer", "memory", "record", "hit", "evict")


def trace_report(doc: dict) -> dict:
    """Fold a Chrome trace document into a report: per cell, its pass
    spans' counts and wall µs; over all cells, the pass totals; and one
    loop row per ``"<cell label>:<loop>"`` from the cell's ``simulate``
    span ``loops`` (:func:`repro.pipeline.run_compiled`)."""
    labels: dict = {}
    cells: dict[str, dict] = {}
    passes: dict[str, dict] = {}
    loops: dict[str, dict] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") == "M" and event.get("name") == "process_name":
            labels[event.get("pid")] = event.get("args", {}).get("name", "?")
    for event in doc.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        label = labels.get(event.get("pid"), "?")
        cell = cells.setdefault(label, {"cell": label, "passes": {}})
        if event.get("cat") == "pass":
            for table in (cell["passes"], passes):
                entry = table.setdefault(event["name"],
                                         {"count": 0, "wall_us": 0.0})
                entry["count"] += 1
                entry["wall_us"] += event.get("dur", 0.0)
        if event.get("name") == "simulate":
            args = event.get("args", {})
            for loop, counts in args.get("loops", {}).items():
                row = loops.setdefault(f"{label}:{loop}",
                                       dict.fromkeys(LOOP_FIELDS, 0))
                for field in LOOP_FIELDS:
                    row[field] += counts.get(field, 0)
    for table in [passes] + [cell["passes"] for cell in cells.values()]:
        for entry in table.values():
            entry["wall_us"] = round(entry["wall_us"], 3)
    return {"cells": list(cells.values()), "passes": passes, "loops": loops}


def render_report(report: dict) -> str:
    """Human table form of a :func:`trace_report`."""
    parts = []
    passes = report.get("passes", {})
    if passes:
        rows = [
            [name, entry["count"], entry["wall_us"] / 1e6]
            for name, entry in sorted(
                passes.items(), key=lambda kv: -kv[1]["wall_us"])
        ]
        parts.append(format_table(
            ["pass", "spans", "wall s"], rows, "compile passes",
            align=["l", "r", "r"]))
    loops = report.get("loops", {})
    if loops:
        rows = []
        for loop, entry in sorted(loops.items()):
            buffered = entry.get("buffer", 0)
            memory = entry.get("memory", 0)
            total = buffered + memory
            fraction = buffered / total if total else 0.0
            rows.append([loop, buffered, memory, f"{fraction:.1%}",
                         entry.get("record", 0), entry.get("hit", 0),
                         entry.get("evict", 0)])
        parts.append(format_table(
            ["cell:loop", "buf ops", "mem ops", "buf%", "rec", "hit",
             "evict"],
            rows, "loop-buffer activity",
            align=["l", "r", "r", "r", "r", "r", "r"]))
    if not parts:
        parts.append("(empty trace: no pass spans or loop counters)")
    return "\n\n".join(parts)


def write_json(path: str | Path, doc: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
