"""Chaos lane tables: the wire, core-fault and overload matrices.

Each table maps a lane name to a :class:`ChaosConfig` template (the job
seed replaces ``seed``). :mod:`repro.chaos.lanes` turns them into the
``soak``, ``cores`` and ``overload`` families of ``repro-chaos``.
This module holds data only, so importing it for :data:`PROFILES`
pulls in nothing beyond the harness and its fault-plan types.

**Wire lanes** (:data:`PROFILES`). Each seed runs through every
profile; any correctness violation (lost/duplicated message or oracle
divergence) fails the soak. Transport failures are violations too:
every profile here is expected to survive its fault plan.

**Core-fault lanes** (:data:`CORE_PROFILES`) run the genuine
optimistic engine under accelerator core faults (fail-stop / hang /
bit-flip, alone and mixed with wire chaos) with the online pairing
watchdog enabled. Every report must be ``ok``: the checkpoint/replay
recoverer has to hide every injected fault. Any oracle divergence is a
soak failure, attributable from the report alone (seed + round + block
of first violation). ``--assert-replay`` / ``--assert-takeover``
additionally require the matrix to have *exercised* the recovery
machinery — a soak that never recovered anything proves nothing.

**Mutant lanes** (:data:`MUTANT_PROFILES`) run each deliberately
broken engine from :data:`repro.core.faults.MUTANT_ENGINES` on a clean
wire with the watchdog enabled. Here a *clean* matrix is the failure:
each mutant must be caught online (oracle divergence or an
engine-internal crash) on at least one seed, proving the watchdog is
not vacuous.

**Overload lanes** (:data:`OVERLOAD_PROFILES`) run the full receive
pipeline with ``pressure=True`` — the
:class:`repro.pressure.controller.PressuredPipeline` charging posted
descriptors, unexpected headers, and bounce buffers against a
:class:`repro.pressure.budget.PressureBudget` — and the watchdog on.
Three budget shapes:

* **paper** — the §III-E model (128 bins + 8K receives ≈ 520 KiB)
  under a heavy offered load: enforcement is armed but the budget is
  generous, so the lane proves the books are kept without perturbing
  matching.
* **evict** — a tight explicit budget over an undersized bounce pool:
  unexpected messages must be evicted to host (and recalled on
  demand) for the run to complete.
* **takeover** — a budget small enough that eviction alone cannot
  create headroom: the pipeline escalates to full host takeover, then
  re-offloads once the working set drains below the low watermark.

Two overload invariants are always enforced, no flag needed: zero
``budget_overruns`` on every run (enforcement must never let a charge
exceed the budget), and every report ``ok`` (defer, demote, evict and
take over may slow a run down but must never change which receive a
message pairs with). The ``--assert-*`` gates additionally require each
rung of that ladder to have fired somewhere in the matrix.
"""

from __future__ import annotations

from repro.chaos.harness import ChaosConfig
from repro.core.faults import MUTANT_ENGINES
from repro.rdma.faultwire import FaultPlan
from repro.recovery.faults import CoreFaultPlan
from repro.recovery.quarantine import RecoveryPolicy

__all__ = ["CORE_PROFILES", "MUTANT_PROFILES", "OVERLOAD_PROFILES", "PROFILES"]

#: name -> config template (fault plan, resources, matcher shape).
PROFILES: dict[str, ChaosConfig] = {
    "clean": ChaosConfig(),
    "drops": ChaosConfig(plan=FaultPlan(drop_rate=0.08)),
    "chaos": ChaosConfig(
        plan=FaultPlan(
            drop_rate=0.05, duplicate_rate=0.08, reorder_rate=0.12, corrupt_rate=0.05
        )
    ),
    "degraded": ChaosConfig(
        plan=FaultPlan(drop_rate=0.05),
        bounce_buffers=2,
        host_spill=True,
    ),
    # Undersized descriptor table + recoverable fallback: runs spill to
    # software and migrate back, spanning several engine generations.
    "spill": ChaosConfig(
        plan=FaultPlan(drop_rate=0.05),
        fallback=True,
        max_receives=8,
        block_threads=4,
        rounds=16,
        max_posts_per_round=8,
        max_sends_per_round=8,
        wildcard_rate=0.5,
    ),
    # Tight §III-E budget under a bursty unexpected-heavy schedule: the
    # pressure pipeline has to evict, demote, and defer to stay inside
    # the ledger (the dedicated overload matrix is OVERLOAD_PROFILES;
    # this lane keeps the default soak honest about the pressure path).
    "overload": ChaosConfig(
        pressure=True,
        budget_bytes=20000,
        senders=4,
        rounds=16,
        max_posts_per_round=2,
        max_sends_per_round=12,
        bounce_buffers=8,
        watchdog=True,
    ),
}

#: Real-engine lanes: core faults (and, for ``storm``, wire faults too)
#: with the online watchdog at every round boundary.
CORE_PROFILES: dict[str, ChaosConfig] = {
    "failstop": ChaosConfig(
        core_plan=CoreFaultPlan(fail_stop_rate=0.08), watchdog=True
    ),
    "hang": ChaosConfig(core_plan=CoreFaultPlan(hang_rate=0.06), watchdog=True),
    "bitflip": ChaosConfig(
        core_plan=CoreFaultPlan(bit_flip_rate=0.08), watchdog=True
    ),
    # Full matrix cell: lossy wire *and* faulty cores at once.
    "storm": ChaosConfig(
        plan=FaultPlan(drop_rate=0.05, duplicate_rate=0.05, reorder_rate=0.08),
        core_plan=CoreFaultPlan.storm(),
        watchdog=True,
    ),
    # Aggressive fail-stop against a hair-trigger quarantine: blocks
    # escalate to host takeover, then — once quick repairs drain the
    # quarantine — re-offload back onto the accelerator.
    "takeover": ChaosConfig(
        core_plan=CoreFaultPlan(fail_stop_rate=0.35),
        recovery=RecoveryPolicy(quarantine_threshold=1, repair_epochs=3),
        cores=8,
        rounds=12,
        watchdog=True,
    ),
}

#: Conflict-heavy schedule shared by every mutant lane: few tags, few
#: senders, lots of wildcards — the contention the planted bugs corrupt.
_MUTANT_SCHEDULE = dict(
    rounds=8,
    max_posts_per_round=6,
    max_sends_per_round=6,
    tags=2,
    senders=2,
    wildcard_rate=0.4,
    watchdog=True,
)

#: Mutant lanes: one per planted engine bug, clean wire, watchdog on.
MUTANT_PROFILES: dict[str, ChaosConfig] = {
    f"mutant-{name}": ChaosConfig(engine=name, **_MUTANT_SCHEDULE)
    for name in sorted(MUTANT_ENGINES)
}

#: Bursty many-sender schedule shared by the tight-budget lanes: few
#: posts, floods of sends, an undersized bounce pool — the unexpected
#: queue and its bounce staging dominate the ledger.
_TIGHT_SCHEDULE = dict(
    senders=4,
    rounds=16,
    max_posts_per_round=2,
    max_sends_per_round=12,
    bounce_buffers=8,
    watchdog=True,
    pressure=True,
)

#: name -> config template. Budgets shrink down the table: ``paper``
#: never needs the ladder, ``evict`` needs eviction/recall, and
#: ``takeover`` needs the full host-takeover escalation.
OVERLOAD_PROFILES: dict[str, ChaosConfig] = {
    "paper": ChaosConfig(
        pressure=True,
        budget_bytes=0,  # §III-E model
        senders=4,
        rounds=20,
        max_posts_per_round=2,
        max_sends_per_round=24,
        bounce_buffers=128,
        max_receives=8192,
        watchdog=True,
    ),
    "evict": ChaosConfig(budget_bytes=20000, **_TIGHT_SCHEDULE),
    "takeover": ChaosConfig(budget_bytes=12000, **_TIGHT_SCHEDULE),
}
