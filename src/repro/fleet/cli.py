"""Command-line entry point: ``repro-fleet``.

    repro-fleet sweep --jobs 4 --cache-dir .fleet-cache
    repro-fleet sweep --apps Nekbone,AMG --bins 1,32 --report-out r.json
    repro-fleet cache --cache-dir .fleet-cache --stats
    repro-fleet bench --jobs 4 --out BENCH_fleet.json

``sweep`` runs the Figure 7 application grid through the fleet
scheduler; ``cache`` inspects or clears a result cache; ``bench``
measures serial-vs-parallel wall clock and warm-cache behaviour and
writes ``BENCH_fleet.json`` (the CI smoke job asserts on it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

__all__ = ["main"]


def _parse_bins(text: str) -> tuple[int, ...]:
    try:
        bins = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad bins list {text!r}") from None
    if not bins or any(b <= 0 for b in bins):
        raise argparse.ArgumentTypeError("bins must be positive integers")
    return bins


def _parse_apps(text: str) -> list[str] | None:
    if text == "all":
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="parallel experiment execution with result caching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the application x bins analysis grid")
    sweep.add_argument("--apps", type=_parse_apps, default=None, help="comma list or 'all'")
    sweep.add_argument("--bins", type=_parse_bins, default=(1, 32, 128))
    sweep.add_argument("--rounds", type=int, default=6)
    sweep.add_argument("--processes", type=int, default=None)
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument("--cache-dir", default=None, help="content-addressed result cache")
    sweep.add_argument("--report-out", metavar="PATH", help="write the fleet report JSON")
    sweep.add_argument("--metrics-out", metavar="PATH", help="write an obs metrics snapshot")
    sweep.add_argument(
        "--trace-out", metavar="PATH", help="write a Chrome trace of the schedule"
    )

    cache = sub.add_parser("cache", help="inspect or clear a result cache")
    cache.add_argument("--cache-dir", required=True)
    cache.add_argument("--clear", action="store_true", help="delete every entry")

    bench = sub.add_parser("bench", help="serial-vs-parallel speedup + warm-cache check")
    bench.add_argument(
        "--jobs", type=int, default=4, help="parallel workers (capped at the core count)"
    )
    bench.add_argument("--apps", type=_parse_apps, default=None)
    bench.add_argument("--bins", type=_parse_bins, default=(1, 32, 128))
    bench.add_argument("--rounds", type=int, default=8)
    bench.add_argument("--out", metavar="PATH", default="BENCH_fleet.json")
    bench.add_argument(
        "--assert-warm-all-hits",
        action="store_true",
        help="exit nonzero unless the warm re-run executed 0 jobs",
    )
    bench.add_argument(
        "--assert-identical",
        action="store_true",
        help="exit nonzero unless parallel results byte-match serial",
    )
    bench.add_argument(
        "--assert-min-speedup",
        type=float,
        default=None,
        help="exit nonzero below this serial/parallel wall-clock ratio",
    )
    return parser


def _cmd_sweep(args) -> int:
    from repro.analyzer.report import format_figure7
    from repro.analyzer.sweep import sweep_applications

    registry = tracer = None
    if args.metrics_out:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    if args.trace_out:
        from repro.obs.trace import SpanTracer

        tracer = SpanTracer()
    results, report = sweep_applications(
        bins_list=args.bins,
        processes=args.processes,
        rounds=args.rounds,
        names=args.apps,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        registry=registry,
        tracer=tracer,
        with_report=True,
        strict=False,
    )
    # Quarantined cells are omitted from results; render only apps
    # whose row is complete so the table never shows half a grid as
    # whole, and surface the quarantined job ids for the rest.
    complete = {
        app: cells for app, cells in results.items() if set(cells) == set(args.bins)
    }
    if complete:
        print(format_figure7(complete))
    print(f"fleet: {report.summary()}", file=sys.stderr)
    for job_id in report.quarantined_ids:
        print(f"quarantined: {job_id}", file=sys.stderr)
    if args.report_out:
        Path(args.report_out).write_text(report.to_json())
        print(f"report: {args.report_out}", file=sys.stderr)
    if args.metrics_out:
        Path(args.metrics_out).write_text(registry.snapshot().to_json())
        print(f"metrics: {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        tracer.write(args.trace_out)
        print(f"trace: {args.trace_out} ({len(tracer)} events)", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    from repro.fleet.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.root}")
        return 0
    kinds: Counter = Counter()
    total = 0
    for envelope in cache.entries():
        total += 1
        kinds[envelope.get("job", {}).get("kind", "?")] += 1
    print(f"{cache.root}: {total} entries")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:16s} {count}")
    return 0


def _cmd_bench(args) -> int:
    from repro.analyzer.sweep import sweep_applications
    from repro.fleet.pool import resolve_workers
    from repro.traces.synthetic import app_names

    names = args.apps if args.apps is not None else app_names()
    grid = dict(
        bins_list=args.bins, rounds=args.rounds, names=names, with_report=True
    )

    def flatten(results) -> str:
        return "".join(
            results[name][bins].to_json()
            for name in sorted(results)
            for bins in sorted(results[name])
        )

    jobs = resolve_workers(args.jobs)
    t0 = time.perf_counter()
    serial_results, serial_report = sweep_applications(jobs=1, **grid)
    serial_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as cache_dir:
        t0 = time.perf_counter()
        parallel_results, parallel_report = sweep_applications(
            jobs=jobs, cache_dir=cache_dir, **grid
        )
        parallel_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        _warm_results, warm_report = sweep_applications(
            jobs=jobs, cache_dir=cache_dir, **grid
        )
        warm_s = time.perf_counter() - t0

    identical = flatten(serial_results) == flatten(parallel_results)
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    payload = {
        "schema": "repro.fleet.bench/v1",
        "grid": {
            "apps": len(names),
            "bins": list(args.bins),
            "rounds": args.rounds,
            "cells": serial_report.total,
        },
        "jobs_requested": args.jobs,
        "jobs_effective": jobs,
        "cpu_count": os.cpu_count(),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(speedup, 3),
        "warm_s": round(warm_s, 4),
        "warm_executed": warm_report.executed,
        "warm_cached": warm_report.cached,
        "parallel_identical_to_serial": identical,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"fleet bench: {serial_report.total} cells, serial {serial_s:.2f}s, "
        f"parallel({jobs}) {parallel_s:.2f}s ({speedup:.2f}x), "
        f"warm {warm_s:.2f}s ({warm_report.cached} cached / "
        f"{warm_report.executed} executed)"
    )
    print(f"wrote {args.out}")
    failures = []
    if args.assert_warm_all_hits and warm_report.executed != 0:
        failures.append(f"warm run executed {warm_report.executed} jobs (expected 0)")
    if args.assert_identical and not identical:
        failures.append("parallel results differ from serial")
    if args.assert_min_speedup is not None and speedup < args.assert_min_speedup:
        failures.append(
            f"speedup {speedup:.2f}x below required {args.assert_min_speedup:.2f}x"
        )
    for failure in failures:
        print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
