"""Service behaviour: identity with the runner, coalescing, batching,
backpressure, deadlines, affinity and the socket front end."""

import asyncio
import threading
import time

import pytest

from repro.runner.cache import ArtifactCache
from repro.runner.parallel import Cell, run_grid
from repro.serve import Client, Request, Service, ServiceConfig
from repro.serve.client import ServiceError, SocketClient, drive
from repro.serve.pool import Computation, HashRing, QueueFull, WorkerPool
from repro.serve.service import serve_forever

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
        from repro.runner.cache import iter_entries
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
        """The batching criterion: computation count < request count."""
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
        """Same-group capacity requests share one compiled base."""
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            client = Client(service)
            futures = [client.submit(Request(kind="run",
                                             benchmark="adpcm_enc",
                                             capacity=capacity))
                       for capacity in (4, 8, 16, 32, 64, 128)]
            responses = [f.result(timeout=120) for f in futures]
        assert all(r.ok for r in responses)
        assert service.stats.base_compiles == 1
        assert service.stats.base_memo_hits + service.stats.batched > 0
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
    """A service whose single worker is parked until ``release()``."""

    def __init__(self, **config):
        self.service = Service(ServiceConfig(workers=1, cache_dir=None,
                                             **config))
        self.gate = threading.Event()
        self.entered = threading.Event()
        inner = self.service.pool._execute_batch

        def blocked(worker, batch):
            self.entered.set()
            self.gate.wait(30)
            inner(worker, batch)

        self.service.pool._execute_batch = blocked

    def park(self, client):
        """Occupy the worker with one request; returns its future."""
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
            # distinct capacities: same group (same worker), no coalesce
            queued = [client.submit(Request(kind="run",
                                            benchmark="adpcm_enc",
                                            capacity=2 + i))
                      for i in range(2)]
            shed = client.request(Request(kind="run",
                                          benchmark="adpcm_enc",
                                          capacity=99))
            assert shed.status == "overloaded"
            assert "queue_depths" in shed.meta
            blocked.release()
            assert parked.result(timeout=120).ok
            assert all(f.result(timeout=120).ok for f in queued)
        finally:
            blocked.close()
        assert blocked.service.stats.overloaded == 1

    def test_coalesced_waiters_hear_overloaded_too(self):
        """A request that coalesces onto a computation the pool then
        sheds must hear ``overloaded`` rather than hang."""
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            request = Request(kind="run", benchmark="adpcm_enc",
                              capacity=5)
            duplicate = Request(kind="run", benchmark="adpcm_enc",
                                capacity=5)
            captured = {}

            def full_pool_submit(comp):
                # a duplicate arrives while this computation is being
                # dispatched: it coalesces onto the pending entry
                captured["dup"] = service.submit(duplicate)
                raise QueueFull("worker 0 queue at depth 0")

            original = service.pool.submit
            service.pool.submit = full_pool_submit
            try:
                first = service.submit(request).result(timeout=30)
            finally:
                service.pool.submit = original
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


class TestAffinity:
    def test_ring_is_deterministic_and_spread(self):
        ring = HashRing(4)
        groups = [("bench%d" % i, "aggressive", False, "", 0)
                  for i in range(64)]
        owners = [ring.worker_for(g) for g in groups]
        assert owners == [HashRing(4).worker_for(g) for g in groups]
        assert len(set(owners)) == 4  # no worker starves at this scale

    def test_resize_moves_few_groups(self):
        groups = [("bench%d" % i, "p", False, "", 0) for i in range(256)]
        before = [HashRing(4).worker_for(g) for g in groups]
        after = [HashRing(5).worker_for(g) for g in groups]
        moved = sum(1 for a, b in zip(before, after) if a != b)
        # consistent hashing: ~1/5 of groups move, not ~4/5
        assert moved < len(groups) // 2

    def test_same_group_always_lands_one_worker(self):
        with Service(ServiceConfig(workers=4, cache_dir=None)) as service:
            client = Client(service)
            responses = [client.request(Request(kind="run",
                                                benchmark="adpcm_enc",
                                                capacity=capacity))
                         for capacity in (4, 8, 16, 32)]
        assert all(r.ok for r in responses)
        workers = {r.meta["worker"] for r in responses}
        assert len(workers) == 1


class TestWorkerPool:
    def test_take_batch_groups_and_preserves_order(self):
        taken = []
        done = threading.Event()
        gate = threading.Event()

        def execute(worker, batch):
            if batch[0].request == "stall":
                gate.wait(10)
                for comp in batch:
                    comp.future.set_result(None)
                return
            taken.append([c.request for c in batch])
            for comp in batch:
                comp.future.set_result(None)
            if sum(len(b) for b in taken) >= 4:
                done.set()

        pool = WorkerPool(1, execute, queue_depth=8)
        # stall the worker so the queue builds up a mixed sequence
        pool.submit(Computation(key=("s",), group=("stall",),
                                request="stall"))
        while pool.queue_depths()[0]:  # until the worker picks it up
            time.sleep(0.005)
        for name, group in (("a1", "A"), ("b1", "B"), ("a2", "A"),
                            ("b2", "B")):
            pool.submit(Computation(key=(name,), group=(group,),
                                    request=name))
        gate.set()
        assert done.wait(10)
        pool.close()
        # first batch after the stall: both A's together, order kept
        assert taken[0] == ["a1", "a2"]
        assert taken[1] == ["b1", "b2"]

    def test_close_fails_pending_with_queue_full(self):
        started = threading.Event()
        gate = threading.Event()

        def execute(worker, batch):
            started.set()
            gate.wait(10)
            for comp in batch:
                comp.future.set_result("ran")

        pool = WorkerPool(1, execute, queue_depth=8)
        running = Computation(key=("r",), group=("r",), request=None)
        pool.submit(running)
        assert started.wait(10)
        pending = Computation(key=("p",), group=("p",), request=None)
        pool.submit(pending)
        # close while the worker is still busy: the queued computation
        # must fail fast, not hang
        pool.close(timeout=0.1)
        assert isinstance(pending.future.exception(timeout=10), QueueFull)
        with pytest.raises(QueueFull):
            pool.submit(Computation(key=("x",), group=("x",),
                                    request=None))
        gate.set()
        assert running.future.result(timeout=10) == "ran"


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
        from repro.runner.cache import iter_entries

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
    def test_ping_stats_and_compile(self, tmp_path):
        with Service(ServiceConfig(
                workers=1, cache_dir=str(tmp_path))) as service:
            client = Client(service)
            assert client.ping().ok
            cold = client.compile("adpcm_enc")
            assert cold.ok and cold.payload["warm"] is False
            warm = client.compile("adpcm_enc")
            assert warm.ok and warm.payload["warm"] is True
            stats = client.stats()
            assert stats["stats"]["requests"] >= 3
            assert len(stats["queue_depths"]) == 1
            assert "cache" in stats

    def test_bad_request_is_an_error_response(self):
        with Service(ServiceConfig(workers=1, cache_dir=None)) as service:
            response = Client(service).request(Request(kind="run"))
        assert response.status == "error"
        assert "exactly one" in response.error


class TestSocketFrontEnd:
    @pytest.fixture
    def server(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        service = Service(ServiceConfig(
            workers=2, cache_dir=str(tmp_path / "cache")))
        ready = threading.Event()
        loops = {}

        def run():
            loop = asyncio.new_event_loop()
            loops["loop"] = loop
            asyncio.set_event_loop(loop)
            task = loop.create_task(serve_forever(
                service, unix_path=path, ready=lambda s: ready.set()))
            try:
                loop.run_until_complete(task)
            except asyncio.CancelledError:
                pass
            finally:
                loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10), "server never came up"
        yield path, service
        loop = loops["loop"]
        loop.call_soon_threadsafe(
            lambda: [t.cancel() for t in asyncio.all_tasks(loop)])
        thread.join(timeout=10)
        service.close()

    def test_round_trip_and_warm_path(self, server):
        path, _service = server
        with SocketClient(unix_path=path) as client:
            assert client.ping().ok
            cold = client.run("adpcm_enc", capacity=64)
            assert cold.ok and cold.meta["served"] == "computed"
            warm = client.run("adpcm_enc", capacity=64)
            assert warm.ok and warm.meta["served"] == "run-cache"
            assert warm.summary() == cold.summary()

    def test_protocol_error_keeps_connection_alive(self, server):
        from repro.serve.protocol import decode_response

        path, _service = server
        with SocketClient(unix_path=path) as client:
            client._file.write(b'{"kind": "nonsense", "v": 1}\n')
            client._file.flush()
            response = decode_response(client._file.readline())
            assert response.status == "error"
            assert "protocol" in response.error
            assert client.ping().ok

    def test_concurrent_socket_clients(self, server):
        path, service = server
        requests = [Request(kind="run", benchmark="adpcm_enc",
                            pipeline=pipeline, capacity=capacity)
                    for pipeline in GRID_PIPELINES
                    for capacity in (16, 64)] * 2
        responses = drive(lambda: SocketClient(unix_path=path), requests,
                          concurrency=4)
        assert all(r.ok for r in responses)
        assert service.stats.run_cache_hits > 0


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
