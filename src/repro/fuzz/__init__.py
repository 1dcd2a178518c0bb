"""Differential fuzzing of the compilation pipelines.

The reproduction's load-bearing invariant is semantic: every pipeline
configuration (traditional, aggressive, checked, any buffer capacity)
must compute exactly what the pure-Python interpreter computes.  This
package systematically hunts violations:

:mod:`repro.fuzz.gen`
    seeded, grammar-directed random MKC program generator (straight-line
    arithmetic, if/else diamonds, counted loops, 2-deep nests, short
    peel-eligible inner loops, infrequent side exits);
:mod:`repro.fuzz.oracle`
    differential runner: each program goes through the reference
    :class:`repro.sim.interp.Interpreter` and through every pipeline ×
    capacity configuration, flagging divergences in return value, trap
    or checked-mode lint outcome, with process-pool fan-out;
:mod:`repro.fuzz.reduce`
    delta-debugging minimizer shrinking a divergent program to a minimal
    reproducer at statement granularity;
:mod:`repro.fuzz.corpus`
    persistent on-disk corpus of minimized reproducers, replayed as
    regression tests;
:mod:`repro.fuzz.faults`
    named deliberate-bug injectors used to validate that the fuzzer
    actually catches miscompilations;
:mod:`repro.fuzz.cli`
    ``python -m repro.fuzz run|replay|minimize|gen``.
"""

from .corpus import Corpus, CorpusEntry
from .gen import FuzzProgram, generate
from .oracle import (
    Config,
    ProgramReport,
    Verdict,
    check_many,
    check_program,
    default_configs,
    reference_outcome,
)
from .reduce import minimize

__all__ = [
    "Config",
    "Corpus",
    "CorpusEntry",
    "FuzzProgram",
    "ProgramReport",
    "Verdict",
    "check_many",
    "check_program",
    "default_configs",
    "generate",
    "minimize",
    "reference_outcome",
]
