"""Regenerate every table and figure of the paper's evaluation.

Run: ``python examples/reproduce_paper.py [--quick] [--workers N]
[--no-cache] [--cache-dir DIR]``

``--quick`` restricts Figure 7 to four buffer sizes and Figure 3 to four
benchmarks; the full run sweeps 16..2048 over the whole Table 1 suite.
Cells execute through :mod:`repro.runner`: compile/simulate artifacts are
cached on disk (so a re-run is nearly instant) and the Figure 7/8 grids
fan out over a process pool when ``--workers`` (or ``REPRO_WORKERS``)
allows.
"""

import argparse

from repro.bench import benchmark_names
from repro.experiments import common, fig3, fig5, fig7, fig8
from repro.runner.cache import default_cache


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width for the grid sweeps "
                             "(default: REPRO_WORKERS or the core count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk artifact cache")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: "
                             "REPRO_CACHE_DIR or .repro_cache)")
    parser.add_argument("--checked", action="store_true",
                        help="run the semantic sanitizer after every "
                             "compiler pass")
    args = parser.parse_args()

    common.reset(default_cache(args.cache_dir, enabled=not args.no_cache),
                 checked=args.checked)
    names = benchmark_names()
    sizes = (16, 64, 256, 1024) if args.quick else (16, 32, 64, 128, 256,
                                                    512, 1024, 2048)
    fig3_names = names[:4] if args.quick else names

    print("=" * 72)
    print("Table 2 / Table 3: verified exhaustively by the unit-test suite")
    print("  (tests/ir/test_preddef.py, tests/loopbuffer/test_model.py)")

    print("\n" + "=" * 72)
    print(fig3.report(fig3.run(fig3_names)))

    print("\n" + "=" * 72)
    print(fig5.report(fig5.run((16, 32, 64, 256))))

    print("\n" + "=" * 72)
    print(fig7.report(fig7.run(names, sizes, workers=args.workers)))

    print("\n" + "=" * 72)
    print(fig8.report(fig8.run(names, workers=args.workers)))

    metrics = common.runner_metrics()
    metrics.finish()
    print("\n" + "=" * 72)
    print(f"runner: {len(metrics.cells)} cells, cache "
          f"{metrics.cache.hits} hits / {metrics.cache.misses} misses "
          f"({metrics.run_cache_hits} whole-cell hits)")


if __name__ == "__main__":
    main()
