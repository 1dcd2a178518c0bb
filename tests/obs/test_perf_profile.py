"""Phase-level profiling: stack folding, self time, collapsed stacks."""

from repro.obs.perf.profile import PhaseProfile


def _doc(root=None):
    """``a( b( c ) d )`` on one track, durations in µs; ``root`` names the
    track's process (a cell label in runner exports)."""
    events = [
        {"ph": "X", "pid": 1, "tid": 1, "name": "a", "ts": 0, "dur": 100.0},
        {"ph": "X", "pid": 1, "tid": 1, "name": "b", "ts": 5, "dur": 60.0},
        {"ph": "X", "pid": 1, "tid": 1, "name": "c", "ts": 10, "dur": 25.0},
        {"ph": "X", "pid": 1, "tid": 1, "name": "d", "ts": 70, "dur": 15.0},
    ]
    if root is not None:
        events.insert(0, {"ph": "M", "name": "process_name", "pid": 1,
                          "args": {"name": root}})
    return {"traceEvents": events}


class TestPayloadFolding:
    """The span folds once run on tracer payloads, on the equivalent
    Chrome document (the only input ``PhaseProfile`` folds)."""

    def test_self_time_subtracts_direct_children(self):
        profile = PhaseProfile.from_chrome_trace(_doc())
        assert profile.phases["a"]["wall_us"] == 100.0
        assert profile.phases["a"]["self_us"] == 25.0  # 100 - (60 + 15)
        assert profile.phases["b"]["self_us"] == 35.0  # 60 - 25
        assert profile.phases["c"]["self_us"] == 25.0
        assert profile.phases["d"]["self_us"] == 15.0

    def test_root_prefixes_every_stack(self):
        profile = PhaseProfile.from_chrome_trace(_doc(root="cell0"))
        assert ("cell0", "a", "b", "c") in profile.stacks

    def test_collapsed_lines_carry_integer_self_weights(self):
        lines = PhaseProfile.from_chrome_trace(_doc()).collapsed_lines()
        assert "a 25" in lines
        assert "a;b 35" in lines
        assert "a;b;c 25" in lines
        assert "a;d 15" in lines
        # weights sum to total wall time: no parent double-counting
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == 100

    def test_top_spans_sorted_by_wall(self):
        top = PhaseProfile.from_chrome_trace(_doc()).top_spans(2)
        assert [s.name for s in top] == ["a", "b"]
        assert top[0].path == ("a",)

    def test_render_mentions_each_section(self):
        text = PhaseProfile.from_chrome_trace(_doc()).render()
        assert "per-phase attribution" in text

    def test_empty_profile_renders_placeholder(self):
        assert "empty profile" in PhaseProfile().render()


class TestChromeTrace:
    def test_containment_rebuilds_nesting(self):
        doc = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": "adpcm/aggr@64"}},
            {"ph": "X", "pid": 1, "tid": 1, "name": "compile",
             "ts": 0, "dur": 100.0},
            {"ph": "X", "pid": 1, "tid": 1, "name": "schedule",
             "ts": 10, "dur": 40.0},
            {"ph": "X", "pid": 1, "tid": 1, "name": "simulate",
             "ts": 60, "dur": 30.0},
        ]}
        profile = PhaseProfile.from_chrome_trace(doc)
        assert ("adpcm/aggr@64", "compile", "schedule") in profile.stacks
        assert ("adpcm/aggr@64", "compile", "simulate") in profile.stacks
        assert profile.phases["compile"]["self_us"] == 30.0  # 100 - 70

    def test_equal_start_longer_span_is_parent(self):
        doc = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "name": "outer",
             "ts": 0, "dur": 50.0},
            {"ph": "X", "pid": 1, "tid": 1, "name": "inner",
             "ts": 0, "dur": 20.0},
        ]}
        profile = PhaseProfile.from_chrome_trace(doc)
        assert ("outer", "inner") in profile.stacks
        assert profile.phases["outer"]["self_us"] == 30.0

    def test_tracks_do_not_nest_across_tids(self):
        doc = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "name": "a",
             "ts": 0, "dur": 100.0},
            {"ph": "X", "pid": 1, "tid": 2, "name": "b",
             "ts": 10, "dur": 10.0},
        ]}
        profile = PhaseProfile.from_chrome_trace(doc)
        assert ("a",) in profile.stacks and ("b",) in profile.stacks
        assert ("a", "b") not in profile.stacks
