"""Flight recorder wired through the chaos harness.

Three integration contracts: (1) an attached recorder is pure
bookkeeping — the chaos report is byte-identical with and without it;
(2) when a mutant engine trips the watchdog, the v4 report carries the
first violating message's full lifecycle passport; (3) ledgers flow
through the soak driver and the fleet result codec.
"""

from __future__ import annotations

import io
from dataclasses import replace

import pytest

from repro.chaos.harness import ChaosConfig, ChaosReport, run_chaos
from repro.chaos.lanes import SOAK, run_family
from repro.chaos.soak import MUTANT_PROFILES
from repro.fleet.codec import decode_result, encode_result
from repro.obs.attribution import check_conservation
from repro.obs.ledger import FlightRecorder, LedgerDump, MessageRecord

MUTANT_SEEDS = range(1, 9)


class TestRecorderIsPureBookkeeping:
    @pytest.mark.parametrize(
        "config",
        [
            ChaosConfig(seed=6, rounds=4),
            ChaosConfig(seed=6, rounds=4, fallback=True),
            ChaosConfig(seed=6, rounds=4, pressure=True),
        ],
        ids=["plain", "fallback", "pressure"],
    )
    def test_report_identical_with_and_without_recorder(self, config):
        baseline = run_chaos(config)
        recorded = run_chaos(config, recorder=FlightRecorder())
        assert recorded.to_json() == baseline.to_json()

    def test_recorder_captures_every_sent_message(self):
        recorder = FlightRecorder()
        report = run_chaos(ChaosConfig(seed=6, rounds=4), recorder=recorder)
        assert report.ok
        assert len(recorder.records) == report.sent
        assert all(rec.label for rec in recorder.records.values())
        assert all(
            check_conservation(rec) for rec in recorder.records.values()
        )


class TestViolationPassport:
    def test_mutant_violation_carries_passport(self):
        template = MUTANT_PROFILES[sorted(MUTANT_PROFILES)[0]]
        for seed in MUTANT_SEEDS:
            recorder = FlightRecorder()
            report = run_chaos(
                replace(template, seed=seed), recorder=recorder
            )
            if not report.detected_violation:
                continue
            assert report.passport, "violation reported without a passport"
            rec = MessageRecord.from_dict(report.passport)
            assert rec.transitions, "passport has no lifecycle"
            assert rec.label == report.passport["label"]
            # The passport survives the v4 report codec.
            restored = ChaosReport.from_json(report.to_json())
            assert restored.passport == report.passport
            return
        pytest.fail(f"no violating seed in {list(MUTANT_SEEDS)}")

    def test_clean_run_has_empty_passport(self):
        report = run_chaos(
            ChaosConfig(seed=3, rounds=3), recorder=FlightRecorder()
        )
        assert report.ok
        assert report.passport == {}


class TestLedgerPlumbing:
    def test_soak_fills_ledger_sink(self):
        sink: list[LedgerDump] = []
        clean_only = replace(
            SOAK, lanes=tuple(lane for lane in SOAK.lanes if lane.name == "clean")
        )
        result = run_family(
            clean_only, 2, out=io.StringIO(), err=io.StringIO(), ledger_sink=sink
        )
        assert result.failures == 0 and result.runs == 2
        assert len(sink) == 1  # one representative dump per profile
        assert "clean" in sink[0].scenarios
        assert any(True for _ in sink[0].iter_records())

    def test_ledger_dump_round_trips_fleet_codec(self):
        recorder = FlightRecorder()
        run_chaos(ChaosConfig(seed=2, rounds=3), recorder=recorder)
        dump = recorder.export(scenario="codec")
        restored = decode_result(encode_result(dump))
        assert isinstance(restored, LedgerDump)
        assert restored.to_json() == dump.to_json()
