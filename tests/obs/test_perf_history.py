"""Benchmark history store: JSONL persistence and baseline resolution."""

from repro.obs.perf.history import History, config_hash, fingerprint_key


def _record(bench="t.a", config_hash="c1", mode="quick", median=1.0,
            env="e1", **extra):
    return {
        "bench": bench, "config_hash": config_hash, "mode": mode,
        "median": median, "mad": 0.0, "samples": [median],
        "env_fingerprint": env, **extra,
    }


class TestAppendAndRead:
    def test_roundtrip_adds_recorded_at(self, tmp_path):
        history = History(tmp_path / "h.jsonl")
        written = history.append(_record())
        assert "recorded_at" in written
        (read,) = history.records()
        assert read == written

    def test_missing_file_reads_empty(self, tmp_path):
        assert History(tmp_path / "absent.jsonl").records() == []

    def test_filters(self, tmp_path):
        history = History(tmp_path / "h.jsonl")
        history.append(_record(bench="t.a", config_hash="c1"))
        history.append(_record(bench="t.a", config_hash="c2"))
        history.append(_record(bench="t.b", config_hash="c1", mode="full"))
        assert len(history.records(bench="t.a")) == 2
        assert len(history.records(bench="t.a", config_hash="c2")) == 1
        assert len(history.records(mode="full")) == 1

    def test_torn_lines_are_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = History(path)
        history.append(_record(median=1.0))
        with path.open("a") as fh:
            fh.write('{"bench": "t.a", "median"\n')  # torn write
            fh.write("[1, 2, 3]\n")  # parseable but not a record
        history.append(_record(median=2.0))
        medians = [r["median"] for r in history.records(bench="t.a")]
        assert medians == [1.0, 2.0]

    def test_benches_lists_distinct_series(self, tmp_path):
        history = History(tmp_path / "h.jsonl")
        history.append(_record(bench="t.a", config_hash="c1"))
        history.append(_record(bench="t.a", config_hash="c1"))
        history.append(_record(bench="t.b", config_hash="c2"))
        assert history.benches() == [
            ("t.a", "quick", "c1"), ("t.b", "quick", "c2")]


class TestBaseline:
    def test_empty_series_is_first_run(self, tmp_path):
        history = History(tmp_path / "h.jsonl")
        assert history.baseline("t.a", "c1", "e1") == (None, False)

    def test_prefers_latest_same_env(self, tmp_path):
        history = History(tmp_path / "h.jsonl")
        history.append(_record(median=1.0, env="e1"))
        history.append(_record(median=2.0, env="e2"))
        history.append(_record(median=3.0, env="e1"))
        record, env_match = history.baseline("t.a", "c1", "e1")
        assert env_match and record["median"] == 3.0

    def test_foreign_env_fallback_flags_mismatch(self, tmp_path):
        history = History(tmp_path / "h.jsonl")
        history.append(_record(median=1.0, env="e1"))
        history.append(_record(median=2.0, env="e2"))
        record, env_match = history.baseline("t.a", "c1", "e3")
        assert not env_match and record["median"] == 2.0


class TestKeys:
    def test_config_hash_stable_and_order_insensitive(self):
        a = config_hash({"x": 1, "y": [2, 3]})
        b = config_hash({"y": [2, 3], "x": 1})
        assert a == b and len(a) == 12
        assert config_hash({"x": 2}) != a

    def test_fingerprint_key_ignores_extra_fields(self):
        env = {"python": "3.11", "platform": "p", "cpu_count": 4}
        assert fingerprint_key(env) == \
            fingerprint_key(dict(env, extra="ignored"))
