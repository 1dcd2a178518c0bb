"""Phase-level profiling: stack folding, self time, collapsed stacks."""

from repro.obs.perf.profile import PhaseProfile


def _payload():
    # open order with depths:  a( b( c ) d )  — µs durations
    return {
        "spans": [
            {"name": "a", "dur": 100.0, "depth": 0},
            {"name": "b", "dur": 60.0, "depth": 1},
            {"name": "c", "dur": 25.0, "depth": 2},
            {"name": "d", "dur": 15.0, "depth": 1},
        ],
        "events": [
            {"name": "loop_record", "clock": "cycles"},
            {"name": "loop_hit", "clock": "cycles"},
            {"name": "loop_hit", "clock": "cycles"},
            {"name": "wall_event", "clock": "us"},
        ],
    }


class TestPayloadFolding:
    def test_self_time_subtracts_direct_children(self):
        profile = PhaseProfile()
        profile.add_payload(_payload())
        assert profile.phases["a"]["wall_us"] == 100.0
        assert profile.phases["a"]["self_us"] == 25.0  # 100 - (60 + 15)
        assert profile.phases["b"]["self_us"] == 35.0  # 60 - 25
        assert profile.phases["c"]["self_us"] == 25.0
        assert profile.phases["d"]["self_us"] == 15.0

    def test_root_prefixes_every_stack(self):
        profile = PhaseProfile()
        profile.add_payload(_payload(), root="cell0")
        assert ("cell0", "a", "b", "c") in profile.stacks

    def test_cycle_instants_counted_wall_events_ignored(self):
        profile = PhaseProfile()
        profile.add_payload(_payload())
        assert profile.sim_events == {"loop_record": 1, "loop_hit": 2}

    def test_collapsed_lines_carry_integer_self_weights(self):
        profile = PhaseProfile()
        profile.add_payload(_payload())
        lines = profile.collapsed_lines()
        assert "a 25" in lines
        assert "a;b 35" in lines
        assert "a;b;c 25" in lines
        assert "a;d 15" in lines
        # weights sum to total wall time: no parent double-counting
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == 100

    def test_top_spans_sorted_by_wall(self):
        profile = PhaseProfile()
        profile.add_payload(_payload())
        top = profile.top_spans(2)
        assert [s.name for s in top] == ["a", "b"]
        assert top[0].path == ("a",)

    def test_render_mentions_each_section(self):
        profile = PhaseProfile()
        profile.add_payload(_payload())
        text = profile.render()
        assert "per-phase attribution" in text
        assert "simulator loop-buffer lifecycle" in text

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
