"""Unit tests for the content-addressed artifact cache."""

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.runner.cache import (
    CACHE_FORMAT,
    ArtifactCache,
    cache_key,
    default_cache,
)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


SOURCE = "int main() { return 42; }"


class Payload:
    """Module-level so pickle can reference it by import path."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Payload) and other.value == self.value


class TestCacheKey:
    def test_stable(self):
        a = cache_key(SOURCE, "aggressive", {"x": 1, "y": 2}, version="1")
        b = cache_key(SOURCE, "aggressive", {"x": 1, "y": 2}, version="1")
        assert a == b
        assert len(a) == 64
        int(a, 16)  # hex digest

    def test_flag_order_irrelevant(self):
        a = cache_key(SOURCE, "aggressive", {"x": 1, "y": 2}, version="1")
        b = cache_key(SOURCE, "aggressive", {"y": 2, "x": 1}, version="1")
        assert a == b

    def test_every_component_matters(self):
        base = cache_key(SOURCE, "aggressive", {"x": 1}, version="1")
        assert cache_key(SOURCE + " ", "aggressive", {"x": 1},
                         version="1") != base
        assert cache_key(SOURCE, "traditional", {"x": 1},
                         version="1") != base
        assert cache_key(SOURCE, "aggressive", {"x": 2},
                         version="1") != base
        assert cache_key(SOURCE, "aggressive", {"x": 1},
                         version="2") != base

    def test_default_version_is_package_version(self):
        import repro

        assert cache_key(SOURCE, "aggressive") == cache_key(
            SOURCE, "aggressive", version=repro.__version__)


class TestStoreLoad:
    def test_roundtrip(self, cache):
        key = cache_key(SOURCE, "aggressive")
        cache.store(key, "run", {"cycles": 7})
        assert cache.load(key, "run") == {"cycles": 7}
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_miss_on_absent(self, cache):
        assert cache.load("0" * 64, "run") is None
        assert cache.stats.misses == 1

    def test_kinds_are_namespaced(self, cache):
        key = cache_key(SOURCE, "aggressive")
        cache.store(key, "base", "compiled")
        assert cache.load(key, "run") is None
        assert cache.load(key, "base") == "compiled"

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c", enabled=False)
        key = cache_key(SOURCE, "aggressive")
        assert cache.store(key, "run", 1) is None
        assert cache.load(key, "run") is None
        assert not (tmp_path / "c").exists()

    def test_atomic_store_leaves_no_temp_files(self, cache):
        key = cache_key(SOURCE, "aggressive")
        path = cache.store(key, "run", list(range(100)))
        assert path.exists()
        assert [p.name for p in path.parent.iterdir()] == [path.name]


class TestCorruptionTolerance:
    def _stored(self, cache):
        key = cache_key(SOURCE, "aggressive")
        path = cache.store(key, "run", {"cycles": 7})
        return key, path

    def test_truncated_pickle_evicted(self, cache):
        key, path = self._stored(cache)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.load(key, "run") is None
        assert not path.exists()
        assert cache.stats.evictions == 1
        assert cache.stats.misses == 1

    def test_garbage_bytes_evicted(self, cache):
        key, path = self._stored(cache)
        path.write_bytes(b"\x00not a pickle at all")
        assert cache.load(key, "run") is None
        assert not path.exists()

    def test_stale_format_evicted(self, cache):
        key, path = self._stored(cache)
        path.write_bytes(pickle.dumps(
            {"format": CACHE_FORMAT + 1, "key": key, "payload": 1}))
        assert cache.load(key, "run") is None
        assert not path.exists()

    def test_foreign_envelope_evicted(self, cache):
        key, path = self._stored(cache)
        path.write_bytes(pickle.dumps([1, 2, 3]))
        assert cache.load(key, "run") is None
        assert not path.exists()

    def test_key_mismatch_evicted(self, cache):
        # an entry renamed/copied to the wrong key must not be served
        key, path = self._stored(cache)
        other = "f" * 64
        target = cache.path_for(other, "run")
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        assert cache.load(other, "run") is None
        assert not target.exists()

    def test_unimportable_class_evicted(self, cache):
        # entries referring to classes that no longer exist must be
        # evicted, not crash the load; simulate by corrupting the class's
        # module path inside the pickle stream
        key, path = self._stored(cache)
        blob = pickle.dumps({"format": CACHE_FORMAT, "key": key,
                             "payload": Payload(7)})
        path.write_bytes(blob.replace(b"test_cache", b"gone_module"))
        assert cache.load(key, "run") is None
        assert not path.exists()


class TestDeterministicArtifacts:
    """Two cold compile+simulate runs of the same Figure 7 cell must
    leave byte-identical cached ``RunSummary`` artifacts — the property
    the whole disk cache (and CI result comparison) rests on."""

    CELL = ("adpcm_enc", "traditional", 16)

    def _cold_run_bytes(self, root):
        from repro.runner.parallel import run_cell, run_key

        cache = ArtifactCache(root)
        name, pipeline, capacity = self.CELL
        summary = run_cell(name, pipeline, capacity, cache=cache)
        path = cache.path_for(run_key(name, pipeline, capacity), "run")
        return summary, path.read_bytes()

    def test_cold_runs_byte_identical(self, tmp_path):
        first, blob_a = self._cold_run_bytes(tmp_path / "a")
        second, blob_b = self._cold_run_bytes(tmp_path / "b")
        assert first == second
        assert blob_a == blob_b

    def test_warm_run_served_from_identical_artifact(self, tmp_path):
        from repro.runner.parallel import run_cell, run_key

        cache = ArtifactCache(tmp_path / "c")
        name, pipeline, capacity = self.CELL
        cold = run_cell(name, pipeline, capacity, cache=cache)
        path = cache.path_for(run_key(name, pipeline, capacity), "run")
        blob = path.read_bytes()
        warm = run_cell(name, pipeline, capacity, cache=cache)
        assert warm == cold
        assert path.read_bytes() == blob  # the hit did not rewrite it


class TestDefaultCache:
    def test_env_dir_and_disable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = default_cache()
        assert cache.root == tmp_path / "envcache"
        assert cache.enabled
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not default_cache().enabled

    def test_arguments_beat_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = default_cache(tmp_path / "arg", enabled=False)
        assert cache.root == tmp_path / "arg"
        assert not cache.enabled


class TestMaintenance:
    """The scan/usage/LRU-gc helpers behind ``runner cache`` and the
    cache's ``max_bytes`` bound."""

    def _fill(self, cache, n=6, kind="base"):
        keys = []
        for i in range(n):
            key = cache_key(SOURCE, "aggressive", {"i": i})
            cache.store(key, kind, Payload(i))
            keys.append(key)
        return keys

    def test_iter_entries_sees_stores(self, cache):
        from repro.runner.cache import iter_entries

        keys = self._fill(cache, 4)
        entries = iter_entries(cache.root)
        assert {e.key for e in entries} == set(keys)
        assert all(e.kind == "base" and e.bytes > 0 for e in entries)

    def test_iter_entries_skips_temp_and_foreign_files(self, cache):
        from repro.runner.cache import iter_entries

        [key] = self._fill(cache, 1)
        sub = cache.root / key[:2]
        (sub / f"{key}.base.pkl.tmp1234").write_bytes(b"partial write")
        (sub / "README").write_text("not a cache entry")
        (cache.root / "not-a-prefix").mkdir()
        entries = iter_entries(cache.root)
        assert [e.key for e in entries] == [key]

    def test_iter_entries_prefix_filter(self, cache):
        from repro.runner.cache import iter_entries

        keys = self._fill(cache, 8)
        some = {k[:2] for k in keys if int(k[:2], 16) % 2 == 0}
        got = iter_entries(cache.root, prefixes=some)
        assert {e.key for e in got} == {k for k in keys if k[:2] in some}

    def test_usage_by_kind(self, cache):
        from repro.runner.cache import iter_entries, usage_by_kind

        key = cache_key(SOURCE, "aggressive", {})
        cache.store(key, "base", Payload(1))
        cache.store(key, "run", Payload(2))
        other = cache_key(SOURCE, "traditional", {})
        cache.store(other, "run", Payload(3))
        usage = usage_by_kind(iter_entries(cache.root))
        assert usage["base"]["entries"] == 1
        assert usage["run"]["entries"] == 2
        assert usage["run"]["bytes"] > 0

    def test_gc_lru_evicts_oldest_first(self, cache):
        import os

        from repro.runner.cache import gc_lru, iter_entries

        keys = self._fill(cache, 5)
        # pin explicit mtimes: keys[0] oldest ... keys[4] newest
        for i, key in enumerate(keys):
            os.utime(cache.path_for(key, "base"), (1000 + i, 1000 + i))
        entries = iter_entries(cache.root)
        per_entry = entries[0].bytes
        keep = 2 * per_entry
        evicted, kept = gc_lru(cache.root, keep)
        assert [e.key for e in evicted] == keys[:3]
        assert kept <= keep
        left = {e.key for e in iter_entries(cache.root)}
        assert left == set(keys[3:])

    def test_gc_lru_dry_run_deletes_nothing(self, cache):
        from repro.runner.cache import gc_lru, iter_entries

        self._fill(cache, 4)
        before = {e.key for e in iter_entries(cache.root)}
        evicted, _ = gc_lru(cache.root, 0, dry_run=True)
        assert len(evicted) == 4
        assert {e.key for e in iter_entries(cache.root)} == before

    def test_load_touches_mtime_for_recency(self, cache):
        import os

        from repro.runner.cache import gc_lru

        a, b = self._fill(cache, 2)
        os.utime(cache.path_for(a, "base"), (1000, 1000))
        os.utime(cache.path_for(b, "base"), (2000, 2000))
        assert cache.load(a, "base") is not None  # refreshes a's mtime
        evicted, _ = gc_lru(cache.root, 0)
        # b is now the least recently used despite the later store
        assert [e.key for e in evicted][0] == b


def _keys(n, salt=""):
    return [cache_key(f"program {salt}{i}", "aggressive", {})
            for i in range(n)]


def _process_writer(root, key, rounds, tag):
    """Hammer one key from a separate process; returns values written."""
    cache = ArtifactCache(root)
    written = []
    for i in range(rounds):
        value = tag * 1000 + i
        cache.store(key, "base", Payload(value))
        written.append(value)
    return written


def _run_threads(target, args_list):
    threads = [threading.Thread(target=target, args=args)
               for args in args_list]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestConcurrentAccess:
    """One cache shared by threads and processes, as the service's
    workers share it: atomic renames mean readers never see torn
    payloads and the last rename wins; the stats ledger stays exact."""

    def test_thread_hammer_one_key_no_torn_reads(self, tmp_path):
        """Concurrent stores + loads on one key: every load returns a
        complete payload some writer stored, never a partial one."""
        cache = ArtifactCache(tmp_path)
        key = cache_key("contended", "aggressive", {})
        rounds, writers = 30, 4
        valid = {tag * 1000 + i for tag in range(writers)
                 for i in range(rounds)}
        seen, errors = [], []

        def write(tag):
            try:
                for i in range(rounds):
                    cache.store(key, "base", Payload(tag * 1000 + i))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def read():
            try:
                for _ in range(rounds * 2):
                    got = cache.load(key, "base")
                    if got is not None:
                        seen.append(got.value)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(tag,))
                   for tag in range(writers)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert seen, "readers never observed a stored value"
        assert set(seen) <= valid

    def test_process_and_thread_writers_last_rename_wins(self, tmp_path):
        """Thread + process writers on one key: the final value is the
        last completed rename, and it is a complete payload."""
        key = cache_key("cross-process", "aggressive", {})
        cache = ArtifactCache(tmp_path)
        rounds = 20

        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_process_writer, str(tmp_path), key,
                                   rounds, tag) for tag in (1, 2)]
            for i in range(rounds):
                cache.store(key, "base", Payload(3000 + i))
            written = {v for f in futures for v in f.result()}
        written |= {3000 + i for i in range(rounds)}

        final = cache.load(key, "base")
        assert final is not None
        assert final.value in written
        # exactly one file on disk for the key, no leftover temp files
        sub = tmp_path / key[:2]
        names = sorted(p.name for p in sub.iterdir())
        assert names == [f"{key}.base.pkl"]

    def test_many_keys_many_threads(self, tmp_path):
        """Writers spraying distinct keys from several threads: all land."""
        cache = ArtifactCache(tmp_path)
        keys = _keys(64)

        def write(start):
            for i in range(start, len(keys), 4):
                cache.store(keys[i], "run", Payload(i))

        _run_threads(write, [(s,) for s in range(4)])
        for i, key in enumerate(keys):
            assert cache.load(key, "run") == Payload(i)

    def test_stats_ledger_exact_under_threads(self, tmp_path):
        """Every store, hit and miss from concurrent threads is counted
        exactly once."""
        cache = ArtifactCache(tmp_path)
        threads, per_thread = 8, 25

        def work(tag):
            for key in _keys(per_thread, salt=f"t{tag}-"):
                cache.store(key, "run", Payload(tag))
                assert cache.load(key, "run") == Payload(tag)
                assert cache.load(key, "base") is None

        _run_threads(work, [(t,) for t in range(threads)])
        total = threads * per_thread
        assert cache.stats.as_dict() == {
            "hits": total, "misses": total, "stores": total,
            "evictions": 0}


class TestSizeBound:
    """``max_bytes``: every GC_EVERY_STORES stores, an LRU sweep over
    the whole root brings the cache back under the bound."""

    def _fill(self, cache, n, kind="base"):
        keys = _keys(n, salt="gc")
        for i, key in enumerate(keys):
            cache.store(key, kind, Payload(i))
        return keys

    def test_store_triggered_gc(self, tmp_path, monkeypatch):
        from repro.runner import cache as cache_mod
        from repro.runner.cache import iter_entries

        monkeypatch.setattr(cache_mod, "GC_EVERY_STORES", 2)
        cache = ArtifactCache(tmp_path, max_bytes=1)
        self._fill(cache, 8)
        assert cache.stats.evictions == 8
        assert iter_entries(tmp_path) == []

    def test_store_gc_honours_max_bytes(self, tmp_path, monkeypatch):
        """The sweep keeps the most recently used entries that fit."""
        from repro.runner import cache as cache_mod
        from repro.runner.cache import iter_entries

        monkeypatch.setattr(cache_mod, "GC_EVERY_STORES", 4)
        probe = ArtifactCache(tmp_path / "probe")
        per_entry = probe.store(_keys(1)[0], "base", Payload(0)) \
            .stat().st_size
        bound = 3 * per_entry
        cache = ArtifactCache(tmp_path / "bounded", max_bytes=bound)
        for round_ in range(4):
            self._fill(cache, 4 * (round_ + 1))
            entries = iter_entries(cache.root)
            assert sum(e.bytes for e in entries) <= bound
            assert entries, "the sweep evicted everything"

    def test_no_bound_never_collects(self, tmp_path, monkeypatch):
        from repro.runner import cache as cache_mod
        from repro.runner.cache import iter_entries

        monkeypatch.setattr(cache_mod, "GC_EVERY_STORES", 1)
        cache = ArtifactCache(tmp_path)
        self._fill(cache, 8)
        assert cache.stats.evictions == 0
        assert len(iter_entries(tmp_path)) == 8

    def test_bound_is_checked_only_every_n_stores(self, tmp_path):
        from repro.runner.cache import GC_EVERY_STORES, iter_entries

        cache = ArtifactCache(tmp_path, max_bytes=1)
        self._fill(cache, GC_EVERY_STORES - 1)
        assert len(iter_entries(tmp_path)) == GC_EVERY_STORES - 1
        cache.store(cache_key("one more", "aggressive", {}), "base",
                    Payload(-1))
        assert iter_entries(tmp_path) == []


class TestCacheCli:
    """``python -m repro.runner cache stats|gc``."""

    def _seed(self, root, n=3):
        cache = ArtifactCache(root)
        for i in range(n):
            cache.store(cache_key(SOURCE, "aggressive", {"i": i}),
                        "base", Payload(i))
        return cache

    def test_stats_reports_usage(self, tmp_path, capsys):
        import json

        from repro.runner.cli import main

        self._seed(tmp_path / "c", 3)
        out = tmp_path / "usage.json"
        assert main(["cache", "--cache-dir", str(tmp_path / "c"),
                     "stats", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "artifact cache usage" in text
        payload = json.loads(out.read_text())
        assert payload["kinds"]["base"]["entries"] == 3
        assert payload["entries"] == 3
        assert payload["bytes"] > 0

    def test_gc_enforces_bound(self, tmp_path, capsys):
        from repro.runner.cache import iter_entries
        from repro.runner.cli import main

        self._seed(tmp_path / "c", 4)
        assert main(["cache", "--cache-dir", str(tmp_path / "c"),
                     "gc", "--max-bytes", "1"]) == 0
        assert "evicted 4" in capsys.readouterr().out
        assert iter_entries(tmp_path / "c") == []

    def test_gc_dry_run_and_size_suffix(self, tmp_path, capsys):
        from repro.runner.cache import iter_entries
        from repro.runner.cli import main

        self._seed(tmp_path / "c", 2)
        assert main(["cache", "--cache-dir", str(tmp_path / "c"),
                     "gc", "--max-bytes", "1k", "--dry-run"]) == 0
        assert "would evict" in capsys.readouterr().out
        assert len(iter_entries(tmp_path / "c")) == 2

    def test_size_suffixes(self):
        import argparse

        from repro.runner.cli import _size

        assert _size("1024") == 1024
        assert _size("4k") == 4096
        assert _size("2m") == 2 * 1024 * 1024
        assert _size("1.5g") == int(1.5 * (1 << 30))
        assert _size("0") == 0
        # a negative bound would make the LRU gc evict everything
        for text in ("-1", "-1m", "-0.5k"):
            with pytest.raises(argparse.ArgumentTypeError):
                _size(text)

    def test_negative_sizes_rejected_by_the_cli(self, tmp_path, capsys):
        from repro.runner.cli import main

        self._seed(tmp_path / "c", 2)
        with pytest.raises(SystemExit) as exc:
            main(["cache", "--cache-dir", str(tmp_path / "c"),
                  "gc", "--max-bytes=-1m"])
        assert exc.value.code == 2
        assert "must not be negative" in capsys.readouterr().err
        # nothing was evicted by the rejected command
        from repro.runner.cache import iter_entries

        assert len(iter_entries(tmp_path / "c")) == 2
