"""Command-line entry point: ``repro-bench msgrate``.

Regenerates Figure 8:

    repro-bench msgrate                      # CI-scale repetitions
    repro-bench msgrate --repetitions 500    # full paper parameters
    repro-bench msgrate --scenario wc-fp     # one configuration only
    repro-bench msgrate --jobs 4 --cache-dir .fleet-cache

With ``--jobs N`` the scenario grid fans out over a
:mod:`repro.fleet` worker pool; ``--cache-dir`` memoizes per-scenario
results content-addressed. Output order and bytes match a serial run.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.pingpong import (
    PAPER_K,
    PingPongBench,
    RateResult,
    format_figure8,
)
from repro.bench.scenarios import PAPER_IN_FLIGHT, PAPER_THREADS, scenario_by_name

__all__ = ["main", "iter_bench_jobs"]

#: ``run_all`` order: the three optimistic scenarios, then the two
#: CPU baselines.
_ALL_SCENARIOS = ("nc", "wc-fp", "wc-sp", "mpi-cpu", "rdma-cpu")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench msgrate",
        description="Figure 8 message-rate benchmark (ping-pong, §VI)",
    )
    parser.add_argument("--k", type=int, default=PAPER_K, help="messages per sequence")
    parser.add_argument(
        "--repetitions", type=int, default=50, help="sequences per run (paper: 500)"
    )
    parser.add_argument(
        "--in-flight", type=int, default=PAPER_IN_FLIGHT, help="posted-receive window"
    )
    parser.add_argument(
        "--threads", type=int, default=PAPER_THREADS, help="DPA block threads"
    )
    parser.add_argument(
        "--scenario",
        choices=_ALL_SCENARIOS + ("all",),
        default="all",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fleet worker processes for the scenario grid (1 = inline)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache for scenario runs",
    )
    parser.add_argument(
        "--plot", action="store_true", help="render rates as a terminal bar chart"
    )
    return parser


def iter_bench_jobs(scenarios, *, k, repetitions, in_flight, threads):
    """Lazily enumerate Figure 8 scenarios as fleet jobs (paper order)."""
    from repro.fleet import JobSpec

    for name in scenarios:
        yield JobSpec(
            kind="bench_scenario",
            params={
                "scenario": name,
                "k": k,
                "repetitions": repetitions,
                "in_flight": in_flight,
                "threads": threads,
            },
        )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scenarios = _ALL_SCENARIOS if args.scenario == "all" else (args.scenario,)
    if args.jobs != 1 or args.cache_dir is not None:
        from repro.fleet import run_jobs

        run = run_jobs(
            iter_bench_jobs(
                scenarios,
                k=args.k,
                repetitions=args.repetitions,
                in_flight=args.in_flight,
                threads=args.threads,
            ),
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
        run.require_ok()
        results: list[RateResult] = list(run.results())
        print(f"fleet: {run.report.summary()}", file=sys.stderr)
    else:
        bench = PingPongBench(
            k=args.k,
            repetitions=args.repetitions,
            in_flight=args.in_flight,
            threads=args.threads,
        )
        if args.scenario == "all":
            results = bench.run_all()
        elif args.scenario == "mpi-cpu":
            results = [bench.run_mpi_cpu()]
        elif args.scenario == "rdma-cpu":
            results = [bench.run_rdma_cpu()]
        else:
            results = [bench.run_optimistic(scenario_by_name(args.scenario))]
    print(format_figure8(results))
    if args.plot:
        from repro.util.asciiplot import hbar_chart

        print("\nmessage rate (Mmsg/s):")
        print(
            hbar_chart(
                {r.label: round(r.message_rate / 1e6, 2) for r in results},
                unit=" M/s",
            )
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
