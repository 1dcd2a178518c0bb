"""The reference engines, built directly: the oracles the fast ones answer to.

The program runs only the fast engines (:mod:`repro.sim.engine`).  The
reference :class:`~repro.sim.interp.Interpreter` and
:class:`~repro.sim.vliw.VLIWSimulator` stay unmodified as oracles, and
the tests reach them here, through stand-ins with the signatures of the
fast entry points they mirror.  :func:`reference_engines` routes the
pipeline's own profiling runs and simulations through them, so whole
compiles, grids and fuzz configs can be compared end to end.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import repro.pipeline as pipeline
from repro.analysis.profile import Profile
from repro.loopbuffer.model import LoopBuffer
from repro.memo import clear_caches
from repro.sched.machine import DEFAULT_MACHINE
from repro.sim.interp import Interpreter
from repro.sim.vliw import VLIWSimulator


def ref_run_module(module, entry="main", args=None, profile=None,
                   max_steps=200_000_000):
    """``run_module`` on the reference interpreter."""
    return Interpreter(module, profile=profile,
                       max_steps=max_steps).run(entry, args)


def ref_profile_module(module, entry="main", args=None,
                       max_steps=200_000_000, record=False):
    """``profile_module`` on the reference interpreter, which records no
    pass trace whatever ``record`` asks."""
    profile = Profile()
    return profile, ref_run_module(module, entry, args, profile, max_steps)


def ref_simulate(module, schedules, modulo=None, machine=DEFAULT_MACHINE,
                 buffer_capacity=256, entry="main", args=None,
                 max_steps=200_000_000, trace=None):
    """``simulate`` on the reference VLIW simulator: always in full, so
    ``trace`` is ignored."""
    buffer = LoopBuffer(buffer_capacity) if buffer_capacity else None
    sim = VLIWSimulator(module, schedules, modulo, machine, buffer,
                        max_steps=max_steps)
    return sim.run(entry, args), sim.counters, buffer


@contextmanager
def reference_engines():
    """Profile and simulate every compile and run in the block on the
    reference engines; process memos are cleared on entry and exit, so
    no artifact built on one side serves the other."""
    clear_caches()
    try:
        with mock.patch.object(pipeline, "profile_module",
                               ref_profile_module), \
                mock.patch.object(pipeline, "simulate", ref_simulate):
            yield
    finally:
        clear_caches()
