"""Rank-fault soak: fail-stop kills, detection, and repair under load.

Every profile runs a collective workload end-to-end through
:func:`repro.resilience.cluster.run_resilient` — real fabric, real
matching per rank, a seeded :class:`repro.resilience.faults.
RankFaultPlan` killing whole ranks mid-run — across a batch of seeds
through :mod:`repro.fleet` (``rank_chaos`` jobs, so lanes fan out and
cache). Two kinds of lane with *inverted* expectations:

* **Real lanes** (:data:`RANK_PROFILES`): every report must be ``ok``
  (all rounds committed, pairings oracle-clean, conservation exact)
  and the heartbeat detector must never raise a false suspicion.
  Heartbeat lanes must detect every fired kill through the detector
  (zero backstop aborts); the ``silent`` lane (no heartbeats) must
  recover through the stall/transport backstop instead.
* **Mutant lanes** (:data:`MUTANT_PROFILES`): each planted driver bug
  from :data:`repro.resilience.cluster.MUTANTS` runs a kill schedule
  chosen to expose it. A mutant nobody catches is the soak failure —
  it would mean the detector / repair audits are vacuous.

Rendezvous-sized payloads (``size > DEFAULT_EAGER_THRESHOLD``) are the
interesting kill target: a dead rank can no longer serve RDMA reads,
so survivors hold receives that can never complete and the
``RankFailedError`` revocation path is exercised, not just timed out.

Usage::

    repro-chaos ranks [--schedules N] [--ranks R] [--rounds K] [--no-mutants]
"""

from __future__ import annotations

from repro.chaos.cluster import HALO_TORUS
from repro.chaos.lanes import Family, Lane
from repro.resilience.cluster import ResilienceReport
from repro.resilience.faults import RankFaultPlan
from repro.resilience.heartbeat import HeartbeatConfig

__all__ = ["FAMILY", "MUTANT_PROFILES", "RANK_PROFILES"]

_HB = HeartbeatConfig()

#: Real lanes: profile -> job params template (the job seed replaces
#: ``plan.seed``). Kill horizons sit inside the first epoch of each
#: payload size so seeded kills reliably fire; ``size=2048`` lanes kill
#: under rendezvous traffic (dead responder -> failed receives).
RANK_PROFILES: dict[str, dict] = {
    "clean": {
        "plan": RankFaultPlan(),
        "heartbeat": _HB,
        "recovery": "shrink",
        "size": 512,
    },
    "kill-shrink": {
        "plan": RankFaultPlan(kills=1, horizon=300),
        "heartbeat": _HB,
        "recovery": "shrink",
        "size": 2048,
    },
    "kill-respawn": {
        "plan": RankFaultPlan(kills=1, horizon=300),
        "heartbeat": _HB,
        "recovery": "respawn",
        "size": 2048,
    },
    "silent": {
        "plan": RankFaultPlan(kills=1, horizon=120),
        "heartbeat": None,
        "recovery": "shrink",
        "size": 512,
    },
}

#: Mutant lanes: planted driver bugs and the kill schedule that exposes
#: them. ``stale-streams`` only bites when the kill lands *after* a
#: committed round (a respawn from the initial checkpoint has all-zero
#: stream counters anyway), hence the explicit tick between the size-512
#: round-2 and round-3 commits.
MUTANT_PROFILES: dict[str, dict] = {
    "mutant-deaf-detector": {
        "plan": RankFaultPlan(victims=(3,), kill_ticks=(50,)),
        "heartbeat": _HB,
        "recovery": "shrink",
        "size": 512,
        "mutant": "deaf-detector",
    },
    "mutant-no-abort": {
        "plan": RankFaultPlan(victims=(3,), kill_ticks=(50,)),
        "heartbeat": _HB,
        "recovery": "shrink",
        "size": 512,
        "mutant": "no-abort",
    },
    "mutant-stale-streams": {
        "plan": RankFaultPlan(victims=(3,), kill_ticks=(400,)),
        "heartbeat": _HB,
        "recovery": "respawn",
        "size": 512,
        "mutant": "stale-streams",
    },
}


def _mutant_caught(name: str, report: ResilienceReport) -> bool:
    """Did this run expose the planted bug?"""
    res = report.results
    if name == "mutant-stale-streams":
        # The respawned rank forgot its stream counters: message
        # identities regress and the pairing oracle diverges.
        return bool(res["violations"])
    # deaf-detector / no-abort: the heartbeat path never aborts, so a
    # fired kill is only ever survived through the backstop — a
    # heartbeat-enabled lane with backstop aborts is the tell.
    return bool(res["kills"]) and res["backstop_aborts"] > 0


def _check_real(name: str, report: ResilienceReport) -> str | None:
    """Return a failure description, or ``None`` if the lane holds."""
    res = report.results
    if not report.ok:
        return (
            f"{len(res['violations'])} violations, "
            f"{res['rounds_completed']}/{report.params['rounds']} rounds"
        )
    if res["false_suspicions"]:
        return f"{len(res['false_suspicions'])} false suspicions"
    if name == "clean":
        if res["kills"] or res["suspicion_aborts"] or res["backstop_aborts"]:
            return "aborts on a fault-free run"
        return None
    if not res["kills"]:
        return None  # seeded tick landed past the run: nothing to audit
    if report.params["heartbeat"] is not None:
        if res["failures_detected"] < len({k["rank"] for k in res["kills"]}):
            return "heartbeat missed a fired kill"
        if res["backstop_aborts"]:
            return f"{res['backstop_aborts']} backstop aborts despite heartbeats"
    elif not res["backstop_aborts"]:
        return "silent lane recovered without the backstop (impossible)"
    return None


def _check(lane: Lane, report: ResilienceReport) -> str | None:
    if lane.mutant:
        return "planted bug caught" if _mutant_caught(lane.name, report) else None
    return _check_real(lane.name, report)


def _describe(lane: Lane, report: ResilienceReport) -> str:
    res = report.results
    return (
        f"{len(res['kills'])} kills, {res['failures_detected']} detected "
        f"(latency<={res['detection_latency_max']}), "
        f"{res['shrinks']} shrinks, {res['restarts']} restarts, "
        f"{res['failed_recvs']} failed recvs, "
        f"{len(res['violations'])} violations"
    )


def _tally(report: ResilienceReport) -> dict[str, int]:
    res = report.results
    return {
        "kills": len(res["kills"]),
        "detected": res["failures_detected"],
        "false_suspicions": len(res["false_suspicions"]),
        "shrinks": res["shrinks"],
        "restarts": res["restarts"],
        "failed_recvs": res["failed_recvs"],
        "backstop_aborts": res["backstop_aborts"],
    }


def _lane(name: str, template: dict, mutant: bool = False) -> Lane:
    hb: HeartbeatConfig | None = template["heartbeat"]
    params = {
        **HALO_TORUS,
        "size": template["size"],
        "recovery": template["recovery"],
        "mutant": template.get("mutant", ""),
        "plan": template["plan"].to_params(),
        "heartbeat": hb.to_params() if hb is not None else None,
        "record": False,
    }
    return Lane(name, params, mutant)


FAMILY = Family(
    name="ranks",
    kind="rank_chaos",
    lanes=tuple(_lane(name, t) for name, t in RANK_PROFILES.items())
    + tuple(_lane(name, t, mutant=True) for name, t in MUTANT_PROFILES.items()),
    check=_check,
    describe=_describe,
    tally=_tally,
    summary=(
        "rank soak: {runs} runs, {kills} kills, {detected} detected, "
        "{false_suspicions} false suspicions, {shrinks} shrinks, "
        "{restarts} restarts, {failures} failures, "
        "mutants caught {caught}/{mutants}"
    ),
    knobs={"ranks": 8, "rounds": 3},
)
