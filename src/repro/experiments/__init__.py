"""Regeneration of every table and figure in the paper's evaluation.

- Table 2 (predicate-define semantics) is verified exhaustively by
  ``tests/ir/test_preddef.py``.
- Table 3 (buffer-op semantics) by ``tests/loopbuffer/test_model.py``.
- :mod:`repro.experiments.fig3` — predication characteristics.
- :mod:`repro.experiments.fig5` — g724_dec Post_Filter buffer traces.
- :mod:`repro.experiments.fig7` — buffer issue vs buffer size, both
  pipelines (headline 38.7% -> 89.0% at 256 ops).
- :mod:`repro.experiments.fig8` — speedup / code size / fetch / power.

Each module has ``run()`` returning structured results and ``report()``
rendering the paper-style rows; ``python -m repro.experiments.figN``
prints them.  The package imports none of them itself, so ``-m`` runs a
figure module once (``from repro.experiments import fig7`` still
works).
"""
