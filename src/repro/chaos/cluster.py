"""Cluster network-fault soak: flaps and partitions under real traffic.

Every profile runs the halo workload end-to-end over the fabric —
the full rdma stack per pair, seeded :class:`repro.net.faults.
LinkFaultPlan` faults underneath — across a batch of seeds through
:mod:`repro.fleet` (``cluster_chaos`` jobs, so schedules fan out and
cache). The acceptance bar is the reliability layer's contract: faults
may cost time (retransmits, go-back-N recovery), but **never
correctness** — every send delivered, zero C2 violations, on every
seed.

Profiles::

    clean      no faults (the control: zero retransmits expected)
    flaps      seeded links flap; drops recovered by retransmission
    partition  one victim host loses all links for a window

Usage::

    repro-chaos cluster [--schedules N] [--ranks R] [--rounds K]
"""

from __future__ import annotations

from repro.chaos.lanes import Family, Lane
from repro.net.cluster import ClusterReport
from repro.net.faults import LinkFaultPlan

__all__ = ["CLUSTER_PROFILES", "FAMILY", "HALO_TORUS"]

#: Job params every cluster and rank lane shares: the halo workload on
#: a torus with block placement.
HALO_TORUS = {"app": "halo", "topology": "torus", "placement": "block"}

#: profile -> fault plan template (the job seed replaces ``seed``).
#: Windows stay well inside ``CLUSTER_RELIABILITY``'s retry budget so
#: recovery is expected, not excused.
CLUSTER_PROFILES: dict[str, LinkFaultPlan] = {
    "clean": LinkFaultPlan(),
    "flaps": LinkFaultPlan(
        flap_links=2, flaps_per_link=2, flap_ticks=24, flap_horizon=256
    ),
    "partition": LinkFaultPlan(partition_at=48, partition_ticks=48),
}


def _check(lane: Lane, report: ClusterReport) -> str | None:
    res = report.results
    if not report.ok:
        return (
            f"{len(res['violations'])} violations, "
            f"{res['undelivered']} undelivered"
        )
    if lane.name == "clean" and res["transport"]["retransmits"]:
        return (
            f"{res['transport']['retransmits']} retransmits on a fault-free fabric"
        )
    return None


def _describe(lane: Lane, report: ClusterReport) -> str:
    res = report.results
    return (
        f"{res['sends']} sends, {res['fabric']['dropped']} drops, "
        f"{res['transport']['retransmits']} retx, "
        f"{len(res['violations'])} violations"
    )


def _tally(report: ClusterReport) -> dict[str, int]:
    res = report.results
    return {
        "retransmits": res["transport"]["retransmits"],
        "drops": res["fabric"]["dropped"],
        "violations": len(res["violations"]),
    }


FAMILY = Family(
    name="cluster",
    kind="cluster_chaos",
    lanes=tuple(
        Lane(name, {**HALO_TORUS, "plan": plan.to_params()})
        for name, plan in CLUSTER_PROFILES.items()
    ),
    check=_check,
    describe=_describe,
    tally=_tally,
    summary=(
        "cluster soak: {runs} runs, {drops} drops, {retransmits} retransmits, "
        "{violations} violations, {failures} failures"
    ),
    knobs={"ranks": 8, "rounds": 3},
)
