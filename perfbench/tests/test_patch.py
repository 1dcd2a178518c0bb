"""Probes reach every call site while installed and leave nothing behind."""

import importlib

from perfbench import layers, patch
from perfbench.patch import Patcher, leftover_wrappers
from perfbench.spans import Recorder

SOURCE = """
int main() {
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) { s = s + i; }
    return s;
}
"""


def _targets():
    out = []
    for probe in layers.PROBES:
        module_name, _, attr = probe.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            out.append(vars(getattr(module, cls_name))[method])
        else:
            out.append(getattr(module, attr))
    return out


def _compile_and_run():
    from repro.frontend import compile_source
    from repro.pipeline import compile_aggressive, run_compiled

    compiled = compile_aggressive(compile_source(SOURCE), buffer_capacity=64)
    return run_compiled(compiled).result.value


def test_traced_pass_records_then_restores_every_original():
    patch.import_all()
    originals = _targets()
    from repro.runner import parallel

    compilers = dict(parallel._COMPILERS)
    rec = Recorder()
    with Patcher() as patcher:
        layers.install(patcher, rec)
        # a ``from x import f`` site and a module-level dict entry see the
        # wrapper while it is installed
        from repro import pipeline

        assert hasattr(pipeline.simulate, patch.WRAPPED)
        assert hasattr(parallel._COMPILERS["aggressive"], patch.WRAPPED)
        assert _compile_and_run() == 28
    layers_seen = {span.layer for span in rec.spans}
    assert {"pipeline", "sim.vliw", "sim.interp", "opt", "sched",
            "frontend", "loopbuffer"} <= layers_seen

    assert leftover_wrappers() == []
    assert all(a is b for a, b in zip(_targets(), originals))
    assert parallel._COMPILERS == compilers

    # untraced calls after restore record nothing and pay no wrapper
    count = len(rec.spans)
    assert _compile_and_run() == 28
    assert len(rec.spans) == count


def test_restore_after_an_exception_inside_the_traced_region():
    patch.import_all()
    originals = _targets()
    rec = Recorder()
    try:
        with Patcher() as patcher:
            layers.install(patcher, rec)
            raise RuntimeError("pass failed")
    except RuntimeError:
        pass
    assert leftover_wrappers() == []
    assert all(a is b for a, b in zip(_targets(), originals))
