"""``python -m repro.serve`` — run a service or drive a workload at one.

Examples::

    # serve on a unix socket with a 256 MiB cache bound
    python -m repro.serve serve --unix /tmp/repro.sock \
        --workers 4 --max-cache-bytes 256m

    # drive a mixed workload at it and assert it behaved (CI smoke)
    python -m repro.serve workload --unix /tmp/repro.sock \
        --requests 64 --concurrency 8 \
        --require-success --require-hit-rate 0.25 --json -
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.runner.cli import _size
from repro.serve.pool import DEFAULT_BATCH_LIMIT, DEFAULT_QUEUE_DEPTH
from repro.serve.protocol import Request

DEFAULT_BENCHMARKS = ("adpcm_enc", "adpcm_dec", "mpeg2_dec")
DEFAULT_CAPACITIES = (None, 16, 64, 256)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="compile/simulate service front end")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the JSON-lines service")
    _transport(serve)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--cache-dir", default=None,
                       help="artifact cache directory (default: the "
                            "runner's)")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without a content-addressed cache")
    serve.add_argument("--max-cache-bytes", type=_size, default=None,
                       metavar="SIZE",
                       help="LRU-bound the cache (suffixes k/m/g)")
    serve.add_argument("--queue-depth", type=int,
                       default=DEFAULT_QUEUE_DEPTH,
                       help="per-worker queue bound before shedding")
    serve.add_argument("--batch-limit", type=int,
                       default=DEFAULT_BATCH_LIMIT,
                       help="max computations taken per worker batch")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-request deadline")

    load = sub.add_parser("workload",
                          help="drive a mixed workload at a service")
    _transport(load)
    load.add_argument("--requests", type=int, default=64)
    load.add_argument("--concurrency", type=int, default=8)
    load.add_argument("--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
                      help="comma-separated benchmark names")
    load.add_argument("--pipelines", default="aggressive,traditional")
    load.add_argument("--json", default=None, metavar="FILE",
                      help="write the workload report as JSON "
                           "('-' for stdout)")
    load.add_argument("--require-success", action="store_true",
                      help="exit nonzero unless every request is ok")
    load.add_argument("--require-hit-rate", type=float, default=None,
                      metavar="FRAC",
                      help="exit nonzero unless the service's "
                           "run-cache hit rate reaches FRAC")
    return parser


def _transport(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="unix socket path")
    parser.add_argument("--host", default=None)
    parser.add_argument("--port", type=int, default=None)


def _check_transport(args, parser) -> None:
    if (args.unix is None) == (args.host is None or args.port is None):
        parser.error("pick exactly one transport: --unix PATH, or "
                     "--host and --port")


def serve_main(args) -> int:
    import asyncio

    from repro.serve.service import Service, ServiceConfig, serve_forever

    config = ServiceConfig(
        workers=args.workers, queue_depth=args.queue_depth,
        batch_limit=args.batch_limit, max_cache_bytes=args.max_cache_bytes,
        deadline_s=args.deadline)
    if args.no_cache:
        config.cache_dir = None
    elif args.cache_dir is not None:
        config.cache_dir = args.cache_dir

    service = Service(config)
    where = args.unix or f"{args.host}:{args.port}"
    print(f"serving on {where} "
          f"(workers={config.workers}, "
          f"cache={config.cache_dir or 'off'})", file=sys.stderr)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:
                pass
        server_task = asyncio.ensure_future(serve_forever(
            service, unix_path=args.unix, host=args.host, port=args.port))
        stopped = asyncio.ensure_future(stop.wait())
        done, _pending = await asyncio.wait(
            {server_task, stopped},
            return_when=asyncio.FIRST_COMPLETED)
        server_task.cancel()
        for task in done:
            if task is server_task and not task.cancelled():
                task.result()

    try:
        asyncio.run(main())
    finally:
        service.close()
    return 0


def _workload_requests(args) -> list[Request]:
    """A deterministic mixed workload: benchmarks x pipelines x
    capacities, round-robin, repeated until ``--requests`` is filled so
    repeats exercise the warm path."""
    benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    pipelines = [p.strip() for p in args.pipelines.split(",") if p.strip()]
    combos = [(b, p, c) for b in benchmarks for p in pipelines
              for c in DEFAULT_CAPACITIES]
    requests = []
    for i in range(args.requests):
        bench, pipeline, capacity = combos[i % len(combos)]
        requests.append(Request(kind="run", benchmark=bench,
                                pipeline=pipeline, capacity=capacity,
                                id=f"w{i}"))
    return requests


def workload_main(args) -> int:
    from repro.serve.client import SocketClient, drive

    def make_client():
        return SocketClient(unix_path=args.unix, host=args.host,
                            port=args.port)

    requests = _workload_requests(args)
    responses = drive(make_client, requests,
                      concurrency=args.concurrency)

    statuses: dict[str, int] = {}
    latencies = []
    for response in responses:
        statuses[response.status] = statuses.get(response.status, 0) + 1
        latencies.append(response.meta.get("latency_s", 0.0))
    with make_client() as client:
        stats = client.stats()
    report = {
        "requests": len(responses),
        "statuses": statuses,
        "latency_s": {
            "p50": percentile(latencies, 50),
            "p95": percentile(latencies, 95),
            "p99": percentile(latencies, 99),
        },
        "hit_rate": stats.get("hit_rate", 0.0),
        "service": stats.get("stats", {}),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json == "-":
        print(text)
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
    else:
        print(text)

    failed = []
    if args.require_success and statuses != {"ok": len(responses)}:
        failed.append(f"not all ok: {statuses}")
    if (args.require_hit_rate is not None
            and report["hit_rate"] < args.require_hit_rate):
        failed.append(f"hit rate {report['hit_rate']:.3f} < "
                      f"{args.require_hit_rate}")
    for reason in failed:
        print(f"workload check failed: {reason}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_transport(args, parser)
    if args.command == "serve":
        return serve_main(args)
    return workload_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
