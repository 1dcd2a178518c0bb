"""The service's cache directory: one layout with the runner, and
corrupt entries evicted and recomputed rather than raised.

The service holds a plain :class:`~repro.runner.cache.ArtifactCache`
(bounded by ``max_cache_bytes``), so these cases check the cache as the
service sees it: through ``Service.cache`` and through requests.
"""

import pickle

from repro.runner.cache import CACHE_FORMAT, ArtifactCache, cache_key
from repro.serve import Client, Service, ServiceConfig

#: a bound large enough never to collect in these tests
MAX_BYTES = 64 << 20


class Payload:
    """Module-level so pickle can reference it by import path."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Payload) and other.value == self.value


def _service(root):
    return Service(ServiceConfig(workers=1, cache_dir=str(root),
                                 max_cache_bytes=MAX_BYTES))


def _run(service):
    return Client(service).run("adpcm_enc", pipeline="aggressive",
                               capacity=64)


def _only_run_entry(root):
    entries = sorted(root.glob("*/*.run.pkl"))
    assert len(entries) == 1
    return entries[0]


class TestPartitioning:
    def test_layout_compatible_with_plain_cache(self, tmp_path):
        """The runner and the service share one directory and warm
        each other."""
        plain = ArtifactCache(tmp_path)
        with _service(tmp_path) as service:
            key = cache_key("shared program", "aggressive", {})
            plain.store(key, "base", Payload(1))
            assert service.cache.load(key, "base") == Payload(1)
            other = cache_key("other program", "aggressive", {})
            service.cache.store(other, "run", Payload(2))
            assert plain.load(other, "run") == Payload(2)
        assert (tmp_path / key[:2] / f"{key}.base.pkl").exists()
        assert (tmp_path / other[:2] / f"{other}.run.pkl").exists()


class TestCorruption:
    def test_corrupt_envelope_evicted_not_raised(self, tmp_path):
        with _service(tmp_path) as service:
            cold = _run(service)
        assert cold.status == "ok"
        path = _only_run_entry(tmp_path)
        path.write_bytes(b"garbage, not a pickle")
        with _service(tmp_path) as service:
            again = _run(service)
            assert service.cache.stats.evictions == 1
        assert again.status == "ok"
        assert again.meta["served"] != "run-cache"
        assert again.summary() == cold.summary()
        # the recomputed summary replaced the evicted file
        with _service(tmp_path) as service:
            warm = _run(service)
        assert warm.meta["served"] == "run-cache"
        assert warm.summary() == cold.summary()

    def test_wrong_format_envelope_evicted(self, tmp_path):
        with _service(tmp_path) as service:
            key = cache_key("stale format", "aggressive", {})
            path = tmp_path / key[:2] / f"{key}.base.pkl"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pickle.dumps({"format": CACHE_FORMAT + 1,
                                           "key": key,
                                           "payload": Payload(1)}))
            assert service.cache.load(key, "base") is None
            assert not path.exists()
