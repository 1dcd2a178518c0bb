"""Self time of nested spans, units and the service queue-wait figure."""

import threading

from perfbench.layers import queue_wait
from perfbench.spans import Recorder


class FakeClock:
    """Returns the next scripted reading on each call."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def scripted(times):
    """A recorder whose wall clock reads ``times`` in order and whose CPU
    clock reads half of each."""
    return Recorder(wall=FakeClock(times),
                    cpu=FakeClock(t / 2 for t in times))


def test_self_time_subtracts_direct_children_only():
    # each open() and close() reads each clock once
    #   A [0, 10]
    #     B [1, 5]
    #       C [2, 4]
    #     D [6, 7]
    rec = scripted([0, 1, 2, 4, 5, 6, 7, 10])
    a = rec.open("x", "a")
    b = rec.open("y", "b")
    c = rec.open("y", "c")
    rec.close(c)
    rec.close(b)
    d = rec.open("z", "d")
    rec.close(d)
    rec.close(a)
    assert rec.self_times(cpu=False) == [5, 2, 2, 1]
    assert rec.self_times(cpu=True) == [2.5, 1, 1, 0.5]
    assert rec.by_layer(cpu=False) == {"x": 5, "y": 4, "z": 1}
    # the rows sum to the outermost span's wall time
    assert sum(rec.by_layer(cpu=False).values()) == 10
    assert rec.inclusive("y", "b", cpu=False) == 4


def test_recursive_spans_count_once():
    rec = Recorder()
    with rec.span("sim.interp", "profile"):
        with rec.span("sim.interp", "profile"):
            pass
    with rec.span("sim.interp", "profile"):
        pass
    assert len(rec.outer("sim.interp", "profile")) == 2


def test_children_inherit_the_unit():
    rec = Recorder()
    with rec.unit("cell:a/b/16"):
        with rec.span("runner.parallel", "cell"):
            with rec.span("sim.vliw", "simulate"):
                pass
    with rec.span("bench", "lookup"):
        pass
    assert [s.unit for s in rec.spans] == ["cell:a/b/16", "cell:a/b/16",
                                           None]


def test_threads_keep_separate_stacks_and_use_cpu_clock():
    rec = Recorder()
    ready = threading.Barrier(2)

    def work(name):
        ready.wait()
        with rec.span("serve", name):
            with rec.span("sim.vliw", "simulate"):
                sum(range(20000))

    threads = [threading.Thread(target=work, args=(n,))
               for n in ("run_one", "base_for")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert rec.multithreaded
    for span in rec.spans:
        if span.layer == "sim.vliw":
            assert rec.spans[span.parent].layer == "serve"
            assert rec.spans[span.parent].thread == span.thread
    # self times on the CPU clock are never negative
    assert all(t >= -1e-9 for t in rec.self_times())


def test_queue_wait_is_latency_minus_own_compute():
    rec = Recorder()
    with rec.span("serve", "request", unit="req:r1"):
        with rec.span("serve", "run_one", unit="req:r1"):
            pass
    with rec.span("serve", "request", unit="req:r2"):
        pass
    r1, run1, r2 = rec.spans
    expected = ((r1.end - r1.start) - (run1.end - run1.start)
                + (r2.end - r2.start))
    assert abs(queue_wait(rec) - expected) < 1e-12


def test_dump_writes_every_span(tmp_path):
    import json

    rec = Recorder()
    with rec.span("a", "b", unit="u"):
        rec.count("n", 3)
    rec.dump(tmp_path / "spans.json")
    data = json.loads((tmp_path / "spans.json").read_text())
    assert len(data["spans"]) == 1
    assert data["spans"][0][:3] == ["a", "b", "u"]
    assert data["counts"] == {"n": 3}
