"""Exporters: Chrome trace assembly, schema validation, the trace report."""

import json

from repro.obs import Tracer
from repro.obs.export import (
    TID_COMPILE,
    TID_RUN,
    TID_SIM,
    cell_label,
    render_report,
    to_chrome_trace,
    trace_report,
    validate_chrome_trace,
)

LOOP = {"buffer": 90, "memory": 10, "record": 1, "hit": 2, "evict": 0}


def _cell(name="b", pipeline="aggressive", capacity=64, loops=None):
    clock = iter(range(0, 10_000)).__next__
    compile_tracer = Tracer(clock=lambda: clock() * 1e-6)
    with compile_tracer.span("compile", category="pipeline"):
        with compile_tracer.span("peel_short_loops", scope="main"):
            pass
    run_tracer = Tracer()
    with run_tracer.span("simulate", category="sim",
                         loops={"main/L1": LOOP} if loops is None
                         else loops):
        run_tracer.instant("buffer_record", category="sim", ts=10,
                           clock="cycles", loop="main/L1")
    return {
        "name": name, "pipeline": pipeline, "capacity": capacity,
        "compile": compile_tracer.to_payload(),
        "run": run_tracer.to_payload(),
    }


class TestChromeTrace:
    def test_structure_and_thread_routing(self):
        doc = to_chrome_trace([_cell()])
        assert validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        compile_spans = [e for e in events
                         if e["ph"] == "X" and e["tid"] == TID_COMPILE]
        assert {e["name"] for e in compile_spans} \
            == {"compile", "peel_short_loops"}
        run_spans = [e for e in events
                     if e["ph"] == "X" and e["tid"] == TID_RUN]
        assert {e["name"] for e in run_spans} == {"simulate"}
        # cycle-domain instants route to the sim thread
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["tid"] == TID_SIM and instant["ts"] == 10

    def test_one_pid_per_cell(self):
        doc = to_chrome_trace([_cell("a"), _cell("b")])
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert pids == {1, 2}
        assert doc["otherData"]["cells"] == ["a/aggressive@64",
                                             "b/aggressive@64"]

    def test_cell_label_nobuf(self):
        assert cell_label({"name": "x", "pipeline": "p", "capacity": None}) \
            == "x/p@nobuf"


class TestValidate:
    def test_rejects_non_document(self):
        assert validate_chrome_trace(42)
        assert validate_chrome_trace({"events": []})

    def test_missing_fields_reported(self):
        errors = validate_chrome_trace([
            {"name": "no-ph"},
            {"ph": "X", "name": "no-ts-dur", "pid": 1, "tid": 1},
        ])
        assert any("missing 'ph'" in e for e in errors)
        assert any("'ts'" in e for e in errors)
        assert any("'dur'" in e for e in errors)

    def test_unbalanced_duration_events(self):
        errors = validate_chrome_trace([
            {"ph": "B", "name": "open", "ts": 0, "pid": 1, "tid": 1},
        ])
        assert any("unclosed" in e for e in errors)
        errors = validate_chrome_trace([
            {"ph": "E", "name": "stray", "ts": 0, "pid": 1, "tid": 1},
        ])
        assert any("without matching" in e for e in errors)


class TestFlatReport:
    """The report the runner writes as ``report.json``: one fold over the
    Chrome document (:func:`trace_report`)."""

    def test_folds_passes_and_loops(self):
        report = trace_report(to_chrome_trace([_cell("a"), _cell("b")]))
        assert report["passes"]["peel_short_loops"]["count"] == 2
        assert [c["cell"] for c in report["cells"]] \
            == ["a/aggressive@64", "b/aggressive@64"]
        for cell in report["cells"]:
            assert cell["passes"]["peel_short_loops"]["count"] == 1
        assert report["loops"]["a/aggressive@64:main/L1"] == LOOP

    def test_cells_sharing_a_loop_name_keep_their_own_rows(self):
        other = {"buffer": 5, "memory": 7, "record": 3, "hit": 0,
                 "evict": 1}
        report = trace_report(to_chrome_trace([
            _cell("adpcm_enc"), _cell("adpcm_dec", loops={"main/L1": other}),
        ]))
        assert report["loops"] == {
            "adpcm_enc/aggressive@64:main/L1": LOOP,
            "adpcm_dec/aggressive@64:main/L1": other,
        }

    def test_report_from_chrome_trace(self):
        # the runner folds the document it writes; the CLI folds it
        # back from disk: one report either way
        doc = to_chrome_trace([_cell()])
        assert trace_report(json.loads(json.dumps(doc))) == trace_report(doc)

    def test_render_report(self):
        text = render_report(trace_report(to_chrome_trace([_cell()])))
        assert "peel_short_loops" in text
        assert "b/aggressive@64:main/L1" in text
        assert "90.0%" in text  # 90/100 buffered

    def test_render_empty(self):
        assert "empty trace" in render_report(trace_report(
            to_chrome_trace([])))
