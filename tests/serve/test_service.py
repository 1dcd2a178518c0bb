"""Service behaviour: identity with the runner, coalescing, arrival-order
execution, backpressure, deadlines, the one executor thread, lossless
counters and a repeated mixed workload."""

import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.runner.cache import ArtifactCache, iter_entries
from repro.runner.parallel import BASE_MEMO, Cell, run_grid
from repro.serve import Client, Request, Service, ServiceConfig
from repro.serve.client import ServiceError, drive
from repro.serve.pool import Computation, Executor, QueueFull
from repro.serve.protocol import STATUS_COUNTERS, Response

#: the quick Figure 7 grid (matches the perf harness's QUICK_SIM)
GRID_BENCHMARKS = ("adpcm_enc", "mpeg2_dec")
GRID_PIPELINES = ("traditional", "aggressive")
GRID_CAPACITIES = (64, 256)

TRAP_SOURCE = """\
int main() {
    int x = 4;
    int y = 0;
    return x / y;
}
"""

OK_SOURCE = """\
int main() {
    int acc = 0;
    for (int i = 0; i < 8; i++) {
        acc = acc + i;
    }
    return acc;
}
"""


@pytest.fixture(autouse=True)
def _cold_base_memo():
    """Each test's service starts with no compiled base memoized: the
    runner's base memo is process-wide."""
    BASE_MEMO.clear()


def _grid_cells():
    return [Cell(name, pipeline, capacity)
            for name in GRID_BENCHMARKS
            for pipeline in GRID_PIPELINES
            for capacity in GRID_CAPACITIES]


class TestRunnerIdentity:
    """The acceptance contract: a summary served by the service equals
    the one ``run_grid`` computes, cell for cell."""

    def test_service_summaries_byte_identical_to_run_grid(self, tmp_path):
        cells = _grid_cells()
        direct = run_grid(cells, workers=1,
                          cache=ArtifactCache(tmp_path / "runner"))
        with Service(ServiceConfig(
                workers=2, cache_dir=str(tmp_path / "serve"))) as service:
            client = Client(service)
            via = [client.summary(cell.name, pipeline=cell.pipeline,
                                  capacity=cell.capacity)
                   for cell in cells]
        assert via == direct

    def test_service_and_runner_share_one_cache(self, tmp_path):
        """A grid the runner executed serves warm, and vice versa."""
        cells = _grid_cells()[:2]
        cache = ArtifactCache(tmp_path / "shared")
        direct = run_grid(cells, workers=1, cache=cache)
        with Service(ServiceConfig(
                workers=1, cache_dir=str(tmp_path / "shared"))) as service:
            client = Client(service)
            for cell, expected in zip(cells, direct):
                response = client.run(cell.name, pipeline=cell.pipeline,
                                      capacity=cell.capacity)
                assert response.meta["served"] == "run-cache"
                assert response.summary() == expected

    def test_checksum_mismatch_is_an_error(self, tmp_path, monkeypatch):
        """The runner's checksum check answers ``error`` through the
        service, and the wrong result is never cached."""
        from dataclasses import replace

        from repro.bench import benchmark
        from repro.serve import service as service_mod

        monkeypatch.setattr(service_mod, "benchmark", lambda name: replace(
            benchmark(name), reference=lambda: -1))
        with Service(ServiceConfig(
                workers=1, cache_dir=str(tmp_path))) as service:
            response = Client(service).run("adpcm_enc", capacity=16)
        assert response.status == "error"
        assert response.error.startswith("checksum-mismatch: ")
        assert {e.kind for e in iter_entries(tmp_path)} == {"base"}


class TestCoalescingAndBatching:
    def test_identical_concurrent_requests_coalesce(self):
        """The coalescing criterion: computation count < request count."""
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            client = Client(service)
            futures = [client.submit(Request(kind="run",
                                             benchmark="adpcm_enc",
                                             capacity=32))
                       for _ in range(10)]
            responses = [f.result(timeout=120) for f in futures]
        assert all(r.ok for r in responses)
        first = responses[0].summary()
        assert all(r.summary() == first for r in responses)
        assert service.stats.computations < service.stats.requests
        assert service.stats.coalesced > 0
        assert sum(r.meta["coalesced"] for r in responses) == \
            service.stats.coalesced

    def test_capacity_sweep_batches_on_one_base(self):
        """Capacity requests of one program share one compiled base:
        the first compiles it, the rest take it from the base memo."""
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            client = Client(service)
            futures = [client.submit(Request(kind="run",
                                             benchmark="adpcm_enc",
                                             capacity=capacity))
                       for capacity in (4, 8, 16, 32, 64, 128)]
            responses = [f.result(timeout=120) for f in futures]
        assert all(r.ok for r in responses)
        assert service.stats.base_compiles == 1
        assert service.stats.base_memo_hits == 5
        capacities = [r.summary().capacity for r in responses]
        assert capacities == [4, 8, 16, 32, 64, 128]

    def test_warm_hit_rate_on_repeat_workload(self, tmp_path):
        with Service(ServiceConfig(
                workers=2, cache_dir=str(tmp_path))) as service:
            requests = [Request(kind="run", benchmark="adpcm_enc",
                                pipeline=pipeline, capacity=capacity)
                        for pipeline in GRID_PIPELINES
                        for capacity in (16, 64)]
            drive(lambda: Client(service), requests, concurrency=4)
            before = service.stats.run_cache_hits
            responses = drive(lambda: Client(service), requests,
                              concurrency=4)
            hits = service.stats.run_cache_hits - before
        assert all(r.ok for r in responses)
        assert hits / len(requests) >= 0.9
        assert all(r.meta["served"] == "run-cache" for r in responses)


class _BlockedService:
    """A service whose executor thread is parked until ``release()``."""

    def __init__(self, **config):
        self.service = Service(ServiceConfig(cache_dir=None, **config))
        self.gate = threading.Event()
        self.entered = threading.Event()
        inner = self.service.executor._execute

        def blocked(comp):
            self.entered.set()
            self.gate.wait(30)
            inner(comp)

        self.service.executor._execute = blocked

    def park(self, client):
        """Occupy the executor with one request; returns its future."""
        future = client.submit(Request(kind="run", benchmark="adpcm_enc",
                                       capacity=1))
        assert self.entered.wait(30)
        return future

    def release(self):
        self.gate.set()

    def close(self):
        self.gate.set()
        self.service.close()


class TestBackpressure:
    def test_overloaded_when_queue_full(self):
        blocked = _BlockedService(queue_depth=2)
        try:
            client = Client(blocked.service)
            parked = blocked.park(client)
            # distinct capacities: no coalesce
            queued = [client.submit(Request(kind="run",
                                            benchmark="adpcm_enc",
                                            capacity=2 + i))
                      for i in range(2)]
            shed = client.request(Request(kind="run",
                                          benchmark="adpcm_enc",
                                          capacity=99))
            assert shed.status == "overloaded"
            assert shed.meta["queue_depth"] == 2
            blocked.release()
            assert parked.result(timeout=120).ok
            assert all(f.result(timeout=120).ok for f in queued)
        finally:
            blocked.close()
        assert blocked.service.stats.overloaded == 1

    def test_coalesced_waiters_hear_overloaded_too(self):
        """A request that coalesces onto a computation the executor
        then sheds must hear ``overloaded`` rather than hang."""
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            request = Request(kind="run", benchmark="adpcm_enc",
                              capacity=5)
            duplicate = Request(kind="run", benchmark="adpcm_enc",
                                capacity=5)
            captured = {}

            def full_queue_submit(comp):
                # a duplicate arrives while this computation is being
                # dispatched: it coalesces onto the pending entry
                captured["dup"] = service.submit(duplicate)
                raise QueueFull("queue at depth 0")

            original = service.executor.submit
            service.executor.submit = full_queue_submit
            try:
                first = service.submit(request).result(timeout=30)
            finally:
                service.executor.submit = original
            dup = captured["dup"].result(timeout=30)
        assert first.status == "overloaded"
        assert dup.status == "overloaded"
        assert dup.meta["coalesced"] is True
        assert service.stats.overloaded == 2
        assert not service._pending

    def test_deadline_expires_to_timeout(self):
        blocked = _BlockedService()
        try:
            client = Client(blocked.service)
            parked = blocked.park(client)
            doomed = client.submit(Request(kind="run",
                                           benchmark="adpcm_enc",
                                           capacity=7, deadline_s=0.05))
            time.sleep(0.2)
            blocked.release()
            response = doomed.result(timeout=120)
            assert response.status == "timeout"
            assert parked.result(timeout=120).ok
        finally:
            blocked.close()
        assert blocked.service.stats.timeouts == 1


class TestExecutor:
    def test_runs_in_arrival_order(self):
        """The executor once ran every queued computation of the oldest
        one's group first: a1 and a2 together, then b1 and b2."""
        taken = []
        done = threading.Event()
        gate = threading.Event()

        def execute(comp):
            if comp.request == "stall":
                gate.wait(10)
            else:
                taken.append(comp.request)
            comp.future.set_result(None)
            if len(taken) >= 4:
                done.set()

        executor = Executor(execute, queue_depth=8)
        # stall the executor so the queue builds up a mixed sequence
        executor.submit(Computation(key=("s",), request="stall"))
        while executor.depth:  # until the executor picks it up
            time.sleep(0.005)
        for name in ("a1", "b1", "a2", "b2"):
            executor.submit(Computation(key=(name,), request=name))
        gate.set()
        assert done.wait(10)
        executor.close()
        assert taken == ["a1", "b1", "a2", "b2"]
        assert executor.stats() == {"computations": 5,
                                    "max_queue_depth": 4}

    def test_close_fails_pending_with_queue_full(self):
        started = threading.Event()
        gate = threading.Event()

        def execute(comp):
            started.set()
            gate.wait(10)
            comp.future.set_result("ran")

        executor = Executor(execute, queue_depth=8)
        running = Computation(key=("r",), request=None)
        executor.submit(running)
        assert started.wait(10)
        pending = Computation(key=("p",), request=None)
        executor.submit(pending)
        # close while the executor is still busy: the queued computation
        # must fail fast, not hang
        executor.close(timeout=0.1)
        assert isinstance(pending.future.exception(timeout=10), QueueFull)
        with pytest.raises(QueueFull):
            executor.submit(Computation(key=("x",), request=None))
        gate.set()
        assert running.future.result(timeout=10) == "ran"

    def test_service_runs_one_executor_thread(self):
        """``workers`` is inert: any value >= 1 still builds a service
        with exactly one executor thread, and that service serves."""
        before = set(threading.enumerate())
        with Service(ServiceConfig(workers=2, cache_dir=None)) as service:
            started = set(threading.enumerate()) - before
            assert [t.name for t in started] == ["serve-executor"]
            response = Client(service).run("adpcm_enc", capacity=16)
        assert response.ok
        with pytest.raises(ValueError, match="at least one worker"):
            ServiceConfig(workers=0)


class TestStats:
    @staticmethod
    def _stats_storm():
        """8 client threads x 400 ``stats`` requests, started together;
        the stats."""
        with Service(ServiceConfig(cache_dir=None)) as service:
            barrier = threading.Barrier(8, timeout=30)

            def hammer():
                client = Client(service)
                barrier.wait()
                for _ in range(400):
                    client.stats()

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        return service.stats

    def test_each_status_bumps_exactly_one_counter(self):
        """``_finish`` reads the protocol's one status table: each status
        adds one request and one status counter, so the counters always
        sum to the requests."""
        buckets = {"ok", "traps", "errors", "overloaded", "timeouts"}
        assert set(STATUS_COUNTERS.values()) == buckets
        with Service(ServiceConfig(cache_dir=None)) as service:
            for status, counter in STATUS_COUNTERS.items():
                before = service.stats.as_dict()
                service._finish(Future(), Request(kind="stats"),
                                time.perf_counter(), Response(status=status))
                after = service.stats.as_dict()
                assert {name for name in after
                        if after[name] != before[name]} \
                    == {"requests", counter}, status
                assert after[counter] == before[counter] + 1
            stats = service.stats
            assert stats.requests == len(STATUS_COUNTERS) == sum(
                getattr(stats, name) for name in buckets)

    def test_counters_lose_no_updates_across_threads(self):
        """Client threads and the executor thread all bump the status
        counters; unlocked read-modify-writes once dropped up to a third
        of them under fast thread switching.  A storm does not always
        interleave, so five of them."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                stats = self._stats_storm()
                assert stats.requests == (
                    stats.ok + stats.traps + stats.errors
                    + stats.overloaded + stats.timeouts) == 3200
        finally:
            sys.setswitchinterval(interval)


class TestInlineSource:
    def test_inline_run_value(self):
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            response = Client(service).run(source=OK_SOURCE, capacity=16)
        assert response.ok
        assert response.payload["value"] == 28  # sum(range(8))

    def test_inline_ok_verdict_is_cached(self, tmp_path):
        with Service(ServiceConfig(
                workers=1, cache_dir=str(tmp_path))) as service:
            client = Client(service)
            cold = client.run(source=OK_SOURCE, capacity=16)
            assert cold.ok and cold.meta["served"] == "computed"
            warm = client.run(source=OK_SOURCE, capacity=16)
            assert warm.ok and warm.meta["served"] == "run-cache"
            assert warm.payload == cold.payload

    def test_inline_trap_is_a_result_and_cached(self, tmp_path):
        with Service(ServiceConfig(
                workers=1, cache_dir=str(tmp_path))) as service:
            client = Client(service)
            first = client.run(source=TRAP_SOURCE, capacity=16)
            assert first.status == "trap"
            assert first.error == "SimError"
            again = client.run(source=TRAP_SOURCE, capacity=16)
            assert again.status == "trap"
            assert again.meta["served"] == "run-cache"
            assert again.error == first.error

    def test_step_budgets_never_coalesce(self):
        """A ``max_steps=0`` request once shared a coalesce key with an
        otherwise identical default-budget one: submitted together it
        rode along on that computation and answered ``ok`` instead of
        failing on its own budget."""
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            client = Client(service)
            default = client.submit(Request(kind="run", source=OK_SOURCE,
                                            capacity=16))
            zero = client.submit(Request(kind="run", source=OK_SOURCE,
                                         capacity=16, max_steps=0))
            ok, rejected = default.result(timeout=120), \
                zero.result(timeout=120)
        assert ok.ok and ok.payload["value"] == 28
        assert rejected.status == "error"
        assert "max_steps" in rejected.error
        assert not rejected.meta.get("coalesced")
        assert service.stats.coalesced == 0

    def test_cache_bound_is_enforced(self, tmp_path, monkeypatch):
        from repro.runner import cache as cache_mod

        monkeypatch.setattr(cache_mod, "GC_EVERY_STORES", 1)
        with Service(ServiceConfig(workers=1, cache_dir=str(tmp_path),
                                   max_cache_bytes=1)) as service:
            response = Client(service).run(source=OK_SOURCE, capacity=16)
        assert response.ok
        assert service.cache.stats.evictions > 0
        assert iter_entries(tmp_path) == []

    def test_summary_raises_service_error_on_trap(self):
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            with pytest.raises(ServiceError, match="trap"):
                Client(service).summary(source=TRAP_SOURCE, capacity=16)


class TestControlRequests:
    def test_stats_and_compile(self, tmp_path):
        with Service(ServiceConfig(
                workers=1, cache_dir=str(tmp_path))) as service:
            client = Client(service)
            cold = client.compile("adpcm_enc")
            assert cold.ok and cold.payload["warm"] is False
            warm = client.compile("adpcm_enc")
            assert warm.ok and warm.payload["warm"] is True
            stats = client.stats()
            assert stats["stats"]["requests"] == 2
            assert stats["queue_depth"] == 0
            assert stats["executor"]["computations"] == 2
            assert "cache" in stats

    def test_bad_request_is_an_error_response(self):
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            response = Client(service).request(Request(kind="run"))
        assert response.status == "error"
        assert "exactly one" in response.error


class TestRunSettings:
    """Requests are validated and keyed on their run settings."""

    def test_bad_settings_are_bad_requests_with_a_cache(self, tmp_path):
        # the front-door cache probe once raised out of submit instead
        with Service(ServiceConfig(workers=1,
                                   cache_dir=str(tmp_path))) as service:
            client = Client(service)
            checked = client.request(Request(kind="run",
                                             benchmark="adpcm_enc",
                                             capacity=64, checked="yes"))
            assert client.stats()["stats"]["errors"] == 1
        assert checked.status == "error"
        assert checked.error.startswith("bad request: ")
        assert "checked" in checked.error
        assert service.stats.computations == 0

    @pytest.mark.parametrize("capacity", [-5, "64", 1.5, True],
                             ids=["negative", "str", "float", "bool"])
    def test_malformed_capacity_is_a_bad_request(self, capacity):
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            response = Client(service).request(Request(
                kind="run", benchmark="adpcm_enc", pipeline="traditional",
                capacity=capacity))
        assert response.status == "error"
        assert response.error.startswith("bad request: ")
        assert "capacity" in response.error
        assert service.stats.base_compiles == 0
        assert service.stats.computations == 0


class TestClient:
    """A client keeps serving after a bad request, and concurrent
    clients share one service."""

    def test_round_trip_and_warm_path(self, tmp_path):
        with Service(ServiceConfig(
                workers=2, cache_dir=str(tmp_path))) as service:
            client = Client(service)
            cold = client.run("adpcm_enc", capacity=64)
            assert cold.ok and cold.meta["served"] == "computed"
            warm = client.run("adpcm_enc", capacity=64)
            assert warm.ok and warm.meta["served"] == "run-cache"
            assert warm.summary() == cold.summary()

    def test_bad_request_keeps_client_usable(self):
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            client = Client(service)
            response = client.request(Request(kind="nonsense"))
            assert response.status == "error"
            assert "unknown request kind" in response.error
            assert client.run("adpcm_enc", capacity=64).ok

    def test_concurrent_clients(self, tmp_path):
        requests = [Request(kind="run", benchmark="adpcm_enc",
                            pipeline=pipeline, capacity=capacity)
                    for pipeline in GRID_PIPELINES
                    for capacity in (16, 64)] * 2
        with Service(ServiceConfig(
                workers=2, cache_dir=str(tmp_path))) as service:
            responses = drive(lambda: Client(service), requests,
                              concurrency=4)
        assert all(r.ok for r in responses)
        assert service.stats.run_cache_hits > 0


class TestMixedWorkload:
    """A mixed run workload driven twice by concurrent clients: every
    request is answered once and served exactly one way, the repeat
    pass comes from the run cache, and the cache holds the runner's
    entries within its bound."""

    MAX_CACHE_BYTES = 256 << 20

    @staticmethod
    def _requests() -> list[Request]:
        combos = [(name, pipeline, capacity)
                  for name in ("adpcm_enc", "adpcm_dec", "mpeg2_dec")
                  for pipeline in GRID_PIPELINES
                  for capacity in (None, 16, 64, 256)]
        return [Request(kind="run", benchmark=name, pipeline=pipeline,
                        capacity=capacity, id=f"w{i}")
                for i, (name, pipeline, capacity)
                in enumerate(combos * 2)]

    @staticmethod
    def _assert_accounted(stats, runs: int) -> None:
        assert stats.requests == (stats.ok + stats.traps + stats.errors
                                  + stats.overloaded + stats.timeouts)
        # from the run cache, coalesced, or by its own computation
        assert stats.run_cache_hits + stats.coalesced \
            + stats.computations == runs

    def test_repeat_pass_is_served_from_a_bounded_cache(self, tmp_path):
        requests = self._requests()
        with Service(ServiceConfig(
                cache_dir=str(tmp_path),
                max_cache_bytes=self.MAX_CACHE_BYTES)) as service:
            cold = drive(lambda: Client(service), requests, concurrency=8)
            assert all(r.ok for r in cold)
            self._assert_accounted(service.stats, len(requests))
            before = service.stats.run_cache_hits
            warm = drive(lambda: Client(service), requests, concurrency=8)
            assert all(r.ok for r in warm)
            self._assert_accounted(service.stats, 2 * len(requests))
            hits = service.stats.run_cache_hits - before
        assert hits / len(requests) >= 0.9
        entries = iter_entries(tmp_path)
        assert any(entry.kind == "run" for entry in entries)
        assert sum(entry.bytes for entry in entries) <= self.MAX_CACHE_BYTES


class TestFuzzOracleRoute:
    """The fuzz oracle can route one side of its differential through
    the service."""

    def test_service_configs_agree_with_interpreter(self):
        from repro.fuzz.oracle import check_program, service_configs

        report = check_program(OK_SOURCE, service_configs())
        assert report.ok, [v.describe() for v in report.divergences]
        assert report.reference == ("value", 28)

    def test_trap_programs_trap_identically(self):
        from repro.fuzz.oracle import check_program, service_configs

        report = check_program(TRAP_SOURCE, service_configs())
        assert report.ok, [v.describe() for v in report.divergences]
        assert report.reference[0] == "trap"

    def test_service_config_label_and_round_trip(self):
        from repro.fuzz.oracle import Config, service_configs

        config = service_configs()[0]
        assert config.label.endswith("+serve")
        assert Config.from_dict(config.as_dict()) == config
        # plain configs keep their historical serialized shape
        assert "service" not in Config("aggressive", 64).as_dict()
