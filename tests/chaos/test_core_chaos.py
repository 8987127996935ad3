"""Chaos harness v2: core-fault lanes, mutant lanes, report schema."""

from dataclasses import replace

import pytest

from repro.chaos.soak import CORE_PROFILES, MUTANT_PROFILES
from repro.chaos.harness import (
    ChaosConfig,
    ChaosReport,
    config_from_params,
    config_to_params,
    run_chaos,
)
from repro.recovery import CoreFaultPlan, RecoveryPolicy

MUTANT_SEEDS = range(1, 9)


class TestConfig:
    def test_params_round_trip_with_recovery(self):
        config = ChaosConfig(
            seed=5,
            core_plan=CoreFaultPlan.storm(seed=9),
            recovery=RecoveryPolicy(quarantine_threshold=2, repair_epochs=7),
            cores=8,
            engine="optimistic",
            watchdog=True,
        )
        assert config_from_params(config_to_params(config)) == config

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError):
            ChaosConfig(engine="no_such_engine")

    def test_fallback_and_core_faults_are_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ChaosConfig(fallback=True, core_plan=CoreFaultPlan.storm())

    def test_fallback_requires_real_engine(self):
        with pytest.raises(ValueError, match="optimistic engine"):
            ChaosConfig(fallback=True, engine="no_barrier")


class TestRealEngineLanes:
    def test_core_fault_lanes_stay_correct(self):
        """Every real-engine core-fault lane survives a small seed pool
        with zero violations, and the pool is non-vacuous overall."""
        injected = replayed = takeovers = 0
        for name, template in CORE_PROFILES.items():
            for seed in range(1, 7):
                report = run_chaos(replace(template, seed=seed))
                assert report.ok, f"{name} seed={seed}: {report.first_violation!r}"
                assert report.watchdog_checks > 0  # online checks ran
                injected += (
                    report.core_fail_stops
                    + report.core_hangs
                    + report.core_bit_flips
                )
                replayed += report.blocks_replayed
                takeovers += report.host_takeovers
        assert injected > 0
        assert replayed > 0
        assert takeovers > 0

    def test_same_seed_is_bit_identical(self):
        config = replace(CORE_PROFILES["storm"], seed=7)
        assert run_chaos(config).to_json() == run_chaos(config).to_json()

    def test_wire_and_core_fault_streams_are_independent(self):
        """One run seed derives distinct wire and core schedules: core
        faults fire even when the wire plan is clean, and the wire
        counters match a wire-only control run."""
        storm = replace(CORE_PROFILES["storm"], seed=13)
        report = run_chaos(storm)
        core_only = replace(storm, plan=storm.plan.with_options(
            drop_rate=0.0, duplicate_rate=0.0, reorder_rate=0.0
        ))
        control = run_chaos(core_only)
        assert control.faults_injected == 0
        assert (
            control.core_fail_stops + control.core_hangs + control.core_bit_flips
            > 0
        )
        assert report.ok and control.ok


class TestMutantLanes:
    @pytest.mark.parametrize("name", sorted(MUTANT_PROFILES))
    def test_each_mutant_caught_on_some_seed(self, name):
        template = MUTANT_PROFILES[name]
        for seed in MUTANT_SEEDS:
            report = run_chaos(replace(template, seed=seed))
            if report.detected_violation:
                # Satellite (a): the first violation is attributable
                # from the report alone — seed, round, block.
                assert report.seed == seed
                if report.first_violation:
                    assert report.first_violation_block >= 0
                else:
                    assert report.engine_failed and report.engine_error
                return
        pytest.fail(f"{name} sailed through seeds {list(MUTANT_SEEDS)}")

    def test_detected_violation_drives_ok(self):
        template = MUTANT_PROFILES[sorted(MUTANT_PROFILES)[0]]
        for seed in MUTANT_SEEDS:
            report = run_chaos(replace(template, seed=seed))
            if report.detected_violation:
                assert not report.ok
                return
        pytest.fail("no violating seed found")


class TestReportSchema:
    def test_v5_round_trip(self):
        report = run_chaos(replace(CORE_PROFILES["storm"], seed=3))
        restored = ChaosReport.from_json(report.to_json())
        assert restored.to_json() == report.to_json()
        assert ChaosReport.SCHEMA == "repro.chaos.report/v5"

    def test_v5_carries_passport_field(self):
        report = run_chaos(replace(CORE_PROFILES["storm"], seed=3))
        payload = report.to_dict()
        assert "passport" in payload
        assert payload["passport"] == {}  # clean run: no violation, no passport

    def test_recovery_counters_survive_the_codec(self):
        report = run_chaos(replace(CORE_PROFILES["takeover"], seed=2))
        payload = report.to_dict()
        for field_name in (
            "core_fail_stops",
            "blocks_replayed",
            "host_takeovers",
            "reoffloads",
            "watchdog_checks",
            "first_violation_round",
        ):
            assert field_name in payload
        restored = ChaosReport.from_dict(payload)
        assert restored.host_takeovers == report.host_takeovers
