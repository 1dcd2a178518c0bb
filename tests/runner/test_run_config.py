"""One ``RunConfig``: built and validated from arguments only, and the
cache keys it feeds."""

import pickle

import pytest

from repro.pipeline import RunConfig
from repro.runner.cache import ArtifactCache
from repro.runner.parallel import (
    BASE_MEMO,
    base_key,
    compile_base,
    run_cell,
    run_key,
)

#: ``(RunConfig kwargs, base_key, run_key)`` of
#: adpcm_dec/traditional at capacity 64, captured before the run settings
#: became one value: matching them keeps existing on-disk caches warm and
#: the runner and the service sharing entries
PINNED = {
    "default": (
        {},
        "3b5344325edcdfbcafc705e47faba8fa04fc9312d6f6cce5fe42a187bb1ffbc1",
        "b1ac415f4b71de8260342440318e30d4eb93ecc55b805948d17771ceb06d3674"),
    "checked": (
        {"checked": True},
        "9d76ed07a30823f0ed76d6a77b64403764252902e463c9282307ac9467b3aeab",
        "1493b641a4a7f196145b39ee3395760117cda3174f504564e392707e775d2a08"),
    "max_steps": (
        {"max_steps": 1000},
        "92267a634c495118834062c663977de8051b262826902f835e7f9425177f4046",
        "02aa8f83d70c3cfd0899121af61c4549f86cc31590a7fc335c8cb267dc51a7e1"),
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


class TestResolve:
    def test_defaults(self):
        assert RunConfig() == RunConfig(
            checked=False, max_steps=None, trace=False)

    @pytest.mark.parametrize("kwargs,match", [
        ({"max_steps": "9"}, "max_steps"),
        ({"checked": "yes"}, "checked"),
        ({"checked": 1}, "checked"),
        ({"max_steps": 0}, "max_steps"),
        ({"max_steps": -5}, "max_steps"),
        ({"max_steps": 1.5}, "max_steps"),
        ({"max_steps": True}, "max_steps"),
    ])
    def test_rejects_bad_settings(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)

    def test_checked_none_is_rejected_whatever_the_environment(
            self, monkeypatch):
        # there is no "unset": a stale ``REPRO_CHECKED`` fills in nothing
        monkeypatch.setenv("REPRO_CHECKED", "1")
        with pytest.raises(ValueError, match="checked"):
            RunConfig(checked=None)

    def test_frozen_hashable_picklable(self):
        settings = RunConfig(checked=True, max_steps=7, trace=True)
        assert pickle.loads(pickle.dumps(settings)) == settings
        assert len({settings, RunConfig(checked=True, max_steps=7,
                                        trace=True)}) == 1
        with pytest.raises(AttributeError):
            settings.checked = False

    def test_key_flags(self):
        assert RunConfig().key_flags() == {"checked": False,
                                           "engine": "fast"}
        assert RunConfig(max_steps=9, trace=True).key_flags() == {
            "checked": False, "engine": "fast", "max_steps": 9}


class TestPinnedKeys:
    @pytest.mark.parametrize("label", sorted(PINNED))
    def test_keys_match_pinned_digests(self, label):
        kwargs, base, run = PINNED[label]
        settings = RunConfig(**kwargs)
        assert base_key("adpcm_dec", "traditional", settings) == base
        assert run_key("adpcm_dec", "traditional", 64, settings) == run

    def test_trace_is_never_keyed(self):
        _kwargs, base, run = PINNED["default"]
        traced = RunConfig(trace=True)
        assert base_key("adpcm_dec", "traditional", traced) == base
        assert run_key("adpcm_dec", "traditional", 64, traced) == run

    def test_stale_engine_environment_keys_like_the_default(
            self, monkeypatch):
        # ``REPRO_ENGINE`` is no longer read: a leftover ``ref`` keys the
        # default entries, never the ones a ``ref`` run once stored
        monkeypatch.setenv("REPRO_ENGINE", "ref")
        _kwargs, base, run = PINNED["default"]
        settings = RunConfig()
        assert base_key("adpcm_dec", "traditional", settings) == base
        assert run_key("adpcm_dec", "traditional", 64, settings) == run

    def test_stale_checked_environment_keys_like_the_default(
            self, monkeypatch, tmp_path):
        # ``REPRO_CHECKED`` is no longer read: a leftover ``1`` keys the
        # default entries, never the checked ones
        monkeypatch.setenv("REPRO_CHECKED", "1")
        _kwargs, base, run = PINNED["default"]
        _kwargs, checked_base, _run = PINNED["checked"]
        assert base_key("adpcm_dec", "traditional", RunConfig()) == base
        assert run_key("adpcm_dec", "traditional", 64, RunConfig()) == run
        cache = ArtifactCache(tmp_path / "cache")
        BASE_MEMO.clear()  # the base must be compiled and stored here
        compiled = compile_base("adpcm_dec", "traditional", cache)
        assert "checked" not in compiled.stats
        assert cache.load(base, "base") is not None
        assert cache.load(checked_base, "base") is None

    def test_default_run_cell_stores_under_the_unchecked_key(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHECKED", "1")
        cache = ArtifactCache(tmp_path / "cache")
        run_cell("adpcm_dec", "traditional", 64, cache=cache)
        _kwargs, _base, run = PINNED["default"]
        _kwargs, _base, checked_run = PINNED["checked"]
        assert cache.load(run, "run") is not None
        assert cache.load(checked_run, "run") is None
