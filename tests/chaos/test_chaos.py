"""Chaos harness: seeded full-stack schedules on a lossy wire.

The acceptance bar for the reliability layer: across hundreds of
seeded schedules and every fault profile, the pipeline delivers each
message exactly once, pairs it with the same receive the serial oracle
picks, and never hangs — hostile fault plans end in a deterministic
``TransportError``, not a stall.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.chaos.harness import ChaosConfig, run_chaos
from repro.chaos.cli import main as chaos_main
from repro.chaos.soak import PROFILES
from repro.rdma.faultwire import FaultPlan

#: 5 profiles x 55 seeds = 275 schedules.
SEEDS_PER_PROFILE = 55


def _config(profile: str, seed: int) -> ChaosConfig:
    return replace(PROFILES[profile], seed=seed)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_soak_profile(profile: str) -> None:
    """Every seed of every profile: exactly-once, oracle-identical."""
    faults = 0
    for seed in range(1, SEEDS_PER_PROFILE + 1):
        report = run_chaos(_config(profile, seed))
        assert report.ok, (
            f"{profile} seed={seed}: missing={report.missing[:3]} "
            f"duplicates={report.duplicates[:3]} mismatches={report.mismatches[:3]} "
            f"transport={report.transport_error}"
        )
        assert report.delivered == report.sent
        faults += report.faults_injected
    if profile not in ("clean", "degraded", "overload"):
        # The schedules must actually exercise the fault machinery.
        # ("degraded" and "overload" run a clean wire: their fault
        # domains are resources and memory, asserted non-vacuously in
        # test_degraded_profile_spills_to_host and tests/chaos/
        # test_overload.py respectively.)
        assert faults > 0, f"profile {profile} injected no faults"


def test_degraded_profile_spills_to_host() -> None:
    """The undersized-pool profile really takes the host-spill path."""
    spills = 0
    for seed in range(1, SEEDS_PER_PROFILE + 1):
        report = run_chaos(_config("degraded", seed))
        assert report.ok
        spills += report.host_spills
        assert report.host_spills == report.degraded_stagings
    assert spills > 0


def test_reports_are_deterministic() -> None:
    """Same seed, same plan -> bit-identical report (faults included)."""
    config = ChaosConfig(
        seed=5,
        plan=FaultPlan(
            drop_rate=0.05, duplicate_rate=0.08, reorder_rate=0.12, corrupt_rate=0.05
        ),
    )
    first = run_chaos(config)
    second = run_chaos(config)
    assert first.ok
    assert asdict(first) == asdict(second)


def test_hostile_plan_fails_deterministically() -> None:
    """A near-dead link ends in TransportError — never a hang — and the
    failure reproduces exactly from the seed."""
    config = ChaosConfig(seed=11, plan=FaultPlan(drop_rate=0.97))
    first = run_chaos(config)
    second = run_chaos(config)
    assert first.transport_failed
    assert "retry budget exhausted" in first.transport_error
    assert asdict(first) == asdict(second)


def test_retransmits_reach_engine_stats() -> None:
    """Transport recovery is visible in the delivered report counters."""
    report = run_chaos(ChaosConfig(seed=1, plan=FaultPlan(drop_rate=0.08)))
    assert report.ok
    assert report.retransmits > 0
    assert report.dropped > 0


def test_soak_cli_smoke(capsys: pytest.CaptureFixture[str]) -> None:
    """The CLI entry point runs green on a small seed range."""
    assert chaos_main(["soak", "--schedules", "2"]) == 0
    out = capsys.readouterr().out
    assert f"{2 * len(PROFILES)} runs, 0 failures" in out
