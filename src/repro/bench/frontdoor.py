"""``repro-bench``: one front door for the benchmark suites.

Each subcommand forwards its remaining arguments to the underlying
module's ``main``, so ``repro-bench pressure --rounds 24`` and
``python -m repro.bench.pressure --rounds 24`` are identical.
"""

from __future__ import annotations

from repro.util.frontdoor import dispatch

__all__ = ["COMMANDS", "main"]

#: subcommand -> (module, one-line help)
COMMANDS = {
    "pressure": (
        "repro.bench.pressure",
        "memory-budget enforcement ladder (BENCH_pressure.json)",
    ),
    "reliability": (
        "repro.bench.reliability",
        "lossy-wire overhead baseline (BENCH_reliability.json)",
    ),
    "msgrate": ("repro.bench.cli", "Figure 8 ping-pong message rates"),
    "cluster": (
        "repro.bench.cluster",
        "fabric sweep: apps x topologies x placements (BENCH_cluster.json)",
    ),
    "resilience": (
        "repro.bench.resilience",
        "recovery latency: detector tuning x repair mode (BENCH_resilience.json)",
    ),
    "gate": (
        "repro.bench.gate",
        "compare a fresh BENCH file against its committed baseline",
    ),
}


def main(argv: list[str] | None = None) -> int:
    return dispatch("repro-bench", COMMANDS, argv)


if __name__ == "__main__":
    raise SystemExit(main())
