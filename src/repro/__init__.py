"""repro — reproduction of Sias, Hunter & Hwu, "Enhancing loop buffering of
media and telecommunications applications using low-overhead predication"
(MICRO 2001).

The package is organized as the paper's system is:

- :mod:`repro.ir` — predicated register IR (Lcode-like).
- :mod:`repro.frontend` — the MKC mini-C language the benchmarks are written in.
- :mod:`repro.analysis` — dominators, loops, liveness, dependences, profiles.
- :mod:`repro.opt` — classic and ILP scalar optimizations.
- :mod:`repro.predication` — if-conversion, branch combining, promotion,
  predicate coloring and the paper's slot-based predication allocation.
- :mod:`repro.looptrans` — loop peeling, predicated loop collapsing,
  counted-loop conversion.
- :mod:`repro.sched` — VLIW machine model, list and modulo schedulers.
- :mod:`repro.loopbuffer` — the compiler-managed loop buffer and its
  assignment pass.
- :mod:`repro.sim` — functional interpreter and cycle-level VLIW simulator
  with fetch-energy model.
- :mod:`repro.pipeline` — end-to-end traditional and aggressive pipelines.
- :mod:`repro.bench` — the six media/telecom benchmark programs.
- :mod:`repro.experiments` — regeneration of every table and figure.
"""

__version__ = "1.1.0"

#: environment-variable values that mean "off" (compared stripped and
#: lower-cased); every boolean ``REPRO_*`` flag parses through :func:`falsey`
FALSEY = frozenset({"", "0", "false", "no", "off"})


def falsey(value: str | None) -> bool:
    """True when an environment value (``None`` = unset) means "off"."""
    return (value or "").strip().lower() in FALSEY
