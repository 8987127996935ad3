"""Seeded chaos: the full offload stack under injected faults.

:mod:`repro.chaos.harness` runs one randomized but fully deterministic
schedule of receive posts and sends through ``Wire -> FaultyWire ->
ReliableWire -> QueuePair -> RdmaReceiver + OptimisticMatcher`` (or
the fallback, pressure and core-fault variants) and cross-checks the
outcome — which receive got which message, exactly once — against the
serial linked-list oracle.

``repro-chaos`` (:mod:`repro.chaos.cli`) runs soak families of such
schedules, and of the cluster and rank-fault runs, through one lane
runner (:mod:`repro.chaos.lanes`): wire faults (``soak``), accelerator
core faults with planted-bug mutant lanes (``cores``), memory-budget
overload (``overload``), fabric link faults (``cluster``) and rank
fail-stop (``ranks``). The lane tables live in :mod:`repro.chaos.soak`,
:mod:`repro.chaos.cluster` and :mod:`repro.chaos.ranksoak`;
:mod:`repro.chaos.health` holds the two-sided health-alarm lanes.
"""

from repro.chaos.harness import ChaosConfig, ChaosReport, run_chaos

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos"]
