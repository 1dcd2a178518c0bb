"""Phase-level profiling: span accumulation, attribution, flamegraphs.

A :class:`PhaseProfile` folds the spans of an exported Chrome trace
(the runner's ``trace.json``), nested per track by ``ts``/``dur``
containment, into per-name wall and *self* time (wall minus children).

Two exports: :meth:`render` (the per-phase attribution table) and
:meth:`collapsed_lines` — the classic semicolon-joined collapsed-stack
format every flamegraph tool (``flamegraph.pl``, speedscope, inferno)
accepts, one ``root;child;leaf <self_us>`` line per distinct stack.  The
``--flame`` and ``--top`` flags of ``python -m repro.obs report`` are
thin wrappers over this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runner.summary import format_table


@dataclass
class SpanRecord:
    """One closed span placed in its stack: ``path`` is root-to-leaf."""

    path: tuple[str, ...]
    wall_us: float
    self_us: float

    @property
    def name(self) -> str:
        return self.path[-1]


class PhaseProfile:
    """Accumulates spans."""

    def __init__(self) -> None:
        #: phase name -> {"count", "wall_us", "self_us"}
        self.phases: dict[str, dict] = {}
        #: collapsed stack -> accumulated self µs
        self.stacks: dict[tuple[str, ...], float] = {}
        #: every individual span, for top-N reporting
        self.spans: list[SpanRecord] = []

    # -- folding -------------------------------------------------------------

    def _add_span(self, path: tuple[str, ...], wall_us: float,
                  self_us: float) -> None:
        entry = self.phases.setdefault(
            path[-1], {"count": 0, "wall_us": 0.0, "self_us": 0.0})
        entry["count"] += 1
        entry["wall_us"] += wall_us
        entry["self_us"] += self_us
        self.stacks[path] = self.stacks.get(path, 0.0) + self_us
        self.spans.append(SpanRecord(path, wall_us, self_us))

    def add_chrome_trace(self, doc: dict) -> None:
        """Fold an exported Chrome trace: nesting is re-derived from
        ``ts``/``dur`` containment per (pid, tid) track, rooted at the
        track's process name (the cell label in runner exports)."""
        events = doc.get("traceEvents", ())
        names: dict[int, str] = {}
        tracks: dict[tuple, list[dict]] = {}
        for event in events:
            if event.get("ph") == "M" and \
                    event.get("name") == "process_name":
                names[event.get("pid")] = \
                    event.get("args", {}).get("name", "?")
            elif event.get("ph") == "X":
                tracks.setdefault(
                    (event.get("pid"), event.get("tid")), []).append(event)
        for track, track_events in sorted(
                tracks.items(), key=lambda kv: str(kv[0])):
            root = names.get(track[0])
            prefix = (root,) if root else ()
            # earlier start first; at equal starts the longer span is
            # the parent, so it must be pushed first
            track_events.sort(key=lambda e: (e.get("ts", 0),
                                             -e.get("dur", 0)))
            stack: list[dict] = []

            def _close_top() -> None:
                top = stack.pop()
                path = prefix + tuple(e["name"] for e in stack) \
                    + (top["name"],)
                self._add_span(path, top["dur"],
                               max(top["dur"] - top["child"], 0.0))

            for event in track_events:
                ts = event.get("ts", 0)
                dur = max(event.get("dur", 0.0), 0.0)
                while stack and ts >= stack[-1]["end"] - 1e-9:
                    _close_top()
                if stack:
                    stack[-1]["child"] += dur
                stack.append({"name": event.get("name", "?"),
                              "end": ts + dur, "dur": dur, "child": 0.0})
            while stack:
                _close_top()

    # -- reporting -----------------------------------------------------------

    def attribution(self) -> list[list]:
        """Rows [phase, count, wall s, self s, self share] by self time."""
        total_self = sum(e["self_us"] for e in self.phases.values()) or 1.0
        rows = []
        for name, entry in sorted(self.phases.items(),
                                  key=lambda kv: -kv[1]["self_us"]):
            rows.append([
                name, entry["count"],
                entry["wall_us"] / 1e6, entry["self_us"] / 1e6,
                f"{entry['self_us'] / total_self:.1%}",
            ])
        return rows

    def top_spans(self, n: int = 10) -> list[SpanRecord]:
        """The ``n`` individually slowest spans (by wall time)."""
        return sorted(self.spans, key=lambda s: -s.wall_us)[:n]

    def collapsed_lines(self) -> list[str]:
        """Flamegraph-compatible collapsed stacks: ``a;b;c <self_us>``.

        Sample weights are integer µs of *self* time, so the flamegraph's
        widths sum to real wall time without double-counting parents.
        """
        lines = []
        for path, self_us in sorted(self.stacks.items()):
            weight = int(round(self_us))
            if weight <= 0:
                continue
            lines.append(";".join(path) + f" {weight}")
        return lines

    def render(self) -> str:
        """The per-phase attribution table, printable."""
        rows = self.attribution()
        if not rows:
            return "(empty profile: no spans)"
        return format_table(
            ["phase", "spans", "wall s", "self s", "self%"],
            rows, "per-phase attribution (self time)",
            align=["l", "r", "r", "r", "r"])

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_chrome_trace(cls, doc: dict) -> "PhaseProfile":
        profile = cls()
        profile.add_chrome_trace(doc)
        return profile
