"""``repro-chaos``: one front door for the chaos suites.

The five soak families share the command line of
:mod:`repro.chaos.lanes`. Modules load only when their subcommand
runs: ``cluster`` and ``ranks`` pull in :mod:`repro.net` and
:mod:`repro.resilience`.
"""

from __future__ import annotations

from repro.util.frontdoor import dispatch

__all__ = ["COMMANDS", "main"]

#: subcommand -> (family or module, one-line help)
COMMANDS = {
    "soak": ("repro.chaos.lanes:SOAK", "wire-fault soak over the standard profiles"),
    "cores": (
        "repro.chaos.lanes:CORES",
        "core-fault matrix: {wire faults} x {core faults} x {engines}",
    ),
    "overload": (
        "repro.chaos.lanes:OVERLOAD",
        "memory-budget overload soak (pressure enforcement lanes)",
    ),
    "cluster": (
        "repro.chaos.cluster:FAMILY",
        "cluster network-fault soak (link flaps / host partition)",
    ),
    "ranks": (
        "repro.chaos.ranksoak:FAMILY",
        "rank fail-stop soak (kill / detect / repair lanes)",
    ),
    "health": (
        "repro.chaos.health",
        "health-alarm lanes (fault fires its alarm, clean twin silent)",
    ),
}


def main(argv: list[str] | None = None) -> int:
    return dispatch("repro-chaos", COMMANDS, argv)


if __name__ == "__main__":
    raise SystemExit(main())
