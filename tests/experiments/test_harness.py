"""Light unit tests for the experiments infrastructure (one fast sim)."""

import pytest

from repro.experiments import common
from repro.experiments.common import RunSummary, format_table
from repro.experiments.fig7 import Fig7Result
from repro.experiments.fig8 import Fig8Result, Fig8Row
from repro.runner.cache import ArtifactCache


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(["name", "x"], [["a", 1.23456], ["bb", 2]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text
        assert "bb" in text

    def test_empty_rows(self):
        text = format_table(["h"], [])
        assert "h" in text


class TestRunSummary:
    def _summary(self, buf, mem):
        return RunSummary("b", "p", 256, cycles=10, bundles=10,
                          ops_issued=buf + mem, ops_from_buffer=buf,
                          ops_from_memory=mem, static_ops=5,
                          branch_bubbles=0)

    def test_buffer_fraction(self):
        assert self._summary(75, 25).buffer_fraction == pytest.approx(0.75)

    def test_zero_ops(self):
        assert self._summary(0, 0).buffer_fraction == 0.0


class TestFig7Result:
    def _result(self):
        r = Fig7Result(sizes=(16, 256))
        r.series["traditional"] = {"a": [0.1, 0.4], "b": [0.0, 0.2]}
        r.series["aggressive"] = {"a": [0.2, 0.9], "b": [0.1, 0.8]}
        return r

    def test_fraction_at(self):
        r = self._result()
        assert r.fraction_at("aggressive", "a", 256) == 0.9

    def test_average_with_exclusions(self):
        r = self._result()
        assert r.average_at("traditional", 256) == pytest.approx(0.3)
        assert r.average_at("traditional", 256, exclude=("b",)) == pytest.approx(0.4)

    def test_empty_average(self):
        r = self._result()
        assert r.average_at("traditional", 256, exclude=("a", "b")) == 0.0


class TestRunnerFacade:
    """The historical facade rides on repro.runner but keeps its contract."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path):
        common.reset(ArtifactCache(tmp_path / "cache"))
        yield
        common.reset()

    def test_run_at_capacity_memoizes_and_caches(self):
        first = run_at_capacity = common.run_at_capacity
        a = first("adpcm_enc", "traditional", 64)
        assert a.name == "adpcm_enc"
        assert a.capacity == 64
        assert a.ops_issued == a.ops_from_buffer + a.ops_from_memory
        # in-process memo: identical object back
        assert run_at_capacity("adpcm_enc", "traditional", 64) is a
        # disk cache: a fresh process-level state still avoids the sim
        cache = common._cache()
        common.reset(cache)
        b = run_at_capacity("adpcm_enc", "traditional", 64)
        assert b == a
        assert common.runner_metrics().run_cache_hits == 1

    def test_memos_key_on_run_settings(self):
        from repro.pipeline import RunConfig
        from repro.runner.parallel import base_key

        cache = common._cache()
        plain = common.run_at_capacity("adpcm_enc", "traditional", 64)
        common.reset(cache, checked=True)
        checked = common.run_at_capacity("adpcm_enc", "traditional", 64)
        # a checked compile ran: its base is stored under the checked key
        assert checked is not plain
        assert checked == plain
        stored = cache.load(
            base_key("adpcm_enc", "traditional", RunConfig(checked=True)),
            "base")
        assert stored is not None and stored.stats["checked"] is True
        assert common.compiled_base("adpcm_enc",
                                    "traditional").stats["checked"] is True
        # back to unchecked: the unchecked entries answer again
        common.reset(cache)
        assert common.run_at_capacity("adpcm_enc", "traditional", 64) \
            == plain
        assert common.runner_metrics().run_cache_hits == 1
        assert "checked" not in common.compiled_base(
            "adpcm_enc", "traditional").stats

    def test_compiled_base_memoizes(self):
        base = common.compiled_base("adpcm_enc", "traditional")
        assert common.compiled_base("adpcm_enc", "traditional") is base
        assert base.buffer_capacity is None

    def test_prewarm_seeds_run_at_capacity(self):
        summaries = common.prewarm(["adpcm_enc"], ("traditional",), (64,),
                                   workers=0)
        assert len(summaries) == 1
        assert common.run_at_capacity("adpcm_enc", "traditional", 64) \
            is summaries[0]
        # prewarming the same grid again is a no-op
        assert common.prewarm(["adpcm_enc"], ("traditional",), (64,),
                              workers=0) == []


class TestFig8Result:
    def _row(self, name, speedup, pb, pt):
        return Fig8Row(name, speedup, 1.1, 1.0, 1.2, pb, pt)

    def test_geometric_mean_speedup(self):
        r = Fig8Result(rows=[self._row("a", 2.0, 1, 1),
                             self._row("b", 0.5, 1, 1)])
        assert r.average_speedup() == pytest.approx(1.0)

    def test_power_reduction(self):
        r = Fig8Result(rows=[self._row("a", 1, 0.6, 0.2),
                             self._row("b", 1, 0.8, 0.4)])
        base, trans = r.average_power_reduction()
        assert base == pytest.approx(0.3)
        assert trans == pytest.approx(0.7)

    def test_exclusions(self):
        r = Fig8Result(rows=[self._row("a", 4.0, 1, 1),
                             self._row("b", 1.0, 1, 1)])
        assert r.average_speedup(exclude=("b",)) == pytest.approx(4.0)
