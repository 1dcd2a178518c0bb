"""Metrics reporting: table alignment, the totals row, JSON payloads."""

from repro.runner.metrics import CellMetrics, MetricsRecorder
from repro.runner.summary import format_table


class TestFormatTable:
    def test_default_layout_is_all_left(self):
        table = format_table(["a", "bb"], [["x", 1], ["yy", 22]])
        assert table.splitlines() == [
            "a   bb",
            "--  --",
            "x   1 ",
            "yy  22",
        ]

    def test_right_alignment_and_separator(self):
        table = format_table(
            ["name", "n"],
            [["a", 5], ["bb", 123], "-", ["total", 128]],
            align=["l", "r"],
        )
        assert table.splitlines() == [
            "name     n",
            "-----  ---",
            "a        5",
            "bb     123",
            "-----  ---",
            "total  128",
        ]


class TestToTable:
    def _recorder(self):
        metrics = MetricsRecorder()
        metrics.add_cell(CellMetrics(
            "adpcm_enc", "aggressive", 64,
            stages={"compile": 1.5, "retarget": 0.25, "simulate": 0.25}))
        metrics.add_cell(CellMetrics(
            "mpg123", "traditional", 2048,
            stages={"retarget": 0.125, "simulate": 0.375},
            base_cache_hit=True, run_cache_hit=True, worker="pid7",
            retries=1))
        metrics.finish()
        return metrics

    def test_layout_pinned(self):
        # numeric columns right-aligned; a rule then a totals row close
        # the table.  This pins the exact layout: update deliberately.
        table = self._recorder().to_table().split("\n\n")[0]
        assert table.splitlines() == [
            "per-cell runner metrics",
            "cell                   cap  compile s  run s  cache  retries"
            "  worker",
            "--------------------  ----  ---------  -----  -----  -------"
            "  ------",
            "adpcm_enc/aggressive    64      1.500  0.500  miss         0"
            "  serial",
            "mpg123/traditional    2048      0.000  0.500  hit          1"
            "  pid7  ",
            "--------------------  ----  ---------  -----  -----  -------"
            "  ------",
            "total (2 cells)                 1.500  1.000  1 hit        1"
            "        ",
        ]

    def test_retries_in_payload(self):
        cells = self._recorder().as_dict()["cells"]
        assert cells[0]["retries"] == 0
        assert cells[1]["retries"] == 1

    def test_empty_recorder_has_no_totals_row(self):
        metrics = MetricsRecorder()
        metrics.finish()
        table = metrics.to_table()
        assert "total (" not in table

    def test_latency_quantiles_in_payload_and_summary(self):
        metrics = self._recorder()
        latency = metrics.as_dict()["latency"]
        assert latency["compile"]["count"] == 1
        assert latency["compile"]["p50"] == 1.5
        # "run" pools retarget + simulate; both cells contribute
        assert latency["run"]["count"] == 2
        assert latency["run"]["p50"] == 0.5
        assert latency["run"]["p99"] == 0.5
        summary = metrics.to_table().split("\n\n")[-1]
        assert "stage latency s: compile p50=1.500" in summary
        assert "run p50=0.500" in summary

    def test_cache_served_cells_contribute_no_latency(self):
        metrics = MetricsRecorder()
        metrics.add_cell(CellMetrics("a", "p", 1, run_cache_hit=True))
        metrics.finish()
        assert metrics.latency_quantiles() == {}
        assert "stage latency" not in metrics.to_table()

    def test_as_dict_trace_fields(self):
        cm = CellMetrics("a", "p", 1)
        assert "traced" not in cm.as_dict()
        cm.trace = {"compile": None, "run": None}
        payload = cm.as_dict()
        assert payload["traced"] is True
        # the trace itself never rides in the metrics JSON
        assert set(payload) - {"traced"} == set(CellMetrics("a", "p",
                                                            1).as_dict())
