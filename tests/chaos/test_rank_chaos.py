"""Rank fail-stop soak lanes + the ChaosReport v5 rank counters."""

import io

from repro.chaos.harness import ChaosReport
from repro.chaos.lanes import run_family
from repro.chaos.ranksoak import FAMILY, MUTANT_PROFILES, RANK_PROFILES


class TestSoak:
    def test_real_lanes_hold_and_mutants_are_caught(self):
        out, err = io.StringIO(), io.StringIO()
        result = run_family(FAMILY, 2, out=out, err=err)
        counters = result.counters
        assert result.ok, err.getvalue()
        assert result.runs == 2 * (len(RANK_PROFILES) + len(MUTANT_PROFILES))
        assert counters["false_suspicions"] == 0
        # The fault lanes must actually kill and recover something.
        assert counters["kills"] > 0
        assert counters["detected"] > 0
        assert counters["shrinks"] > 0 and counters["restarts"] > 0
        assert result.mutants_missed == []

    def test_mutant_lanes_cover_every_planted_bug(self):
        from repro.resilience.cluster import MUTANTS

        planted = {p["mutant"] for p in MUTANT_PROFILES.values()}
        assert planted == {m for m in MUTANTS if m}

    def test_profiles_cover_detection_modes(self):
        assert RANK_PROFILES["clean"]["plan"].is_clean
        assert RANK_PROFILES["silent"]["heartbeat"] is None
        assert RANK_PROFILES["kill-shrink"]["size"] > 1024  # rendezvous kills
        assert RANK_PROFILES["kill-respawn"]["recovery"] == "respawn"


class TestCli:
    def test_main_exits_zero(self, capsys):
        assert FAMILY(["--schedules", "1", "--no-mutants"]) == 0
        assert "rank soak:" in capsys.readouterr().out

    def test_chaos_frontdoor_dispatches(self, capsys):
        from repro.chaos.cli import main as chaos_main

        assert chaos_main(["ranks", "--schedules", "1", "--no-mutants"]) == 0
        assert "rank soak:" in capsys.readouterr().out

    def test_usage_lists_ranks(self, capsys):
        from repro.chaos.cli import main as chaos_main

        assert chaos_main([]) == 2
        assert "ranks" in capsys.readouterr().out


class TestChaosReportV5:
    def test_schema_is_v5(self):
        assert ChaosReport.SCHEMA == "repro.chaos.report/v5"

    def test_rank_counters_round_trip(self):
        report = ChaosReport(
            seed=7,
            sent=10,
            delivered=9,
            rank_kills=2,
            rank_failures_detected=2,
            rank_false_suspicions=0,
            rank_restarts=1,
            comm_shrinks=1,
            rank_failed_recvs=3,
            rank_detection_latency_max=250,
            rank_recovery_ticks=136,
            rank_backstop_aborts=0,
        )
        restored = ChaosReport.from_json(report.to_json())
        assert restored == report
        assert restored.rank_kills == 2
        assert restored.rank_detection_latency_max == 250

    def test_rank_counters_default_to_zero(self):
        """Pre-rank-chaos producers omit the counters entirely."""
        report = ChaosReport(seed=1, sent=5, delivered=5)
        restored = ChaosReport.from_json(report.to_json())
        assert restored.rank_kills == 0
        assert restored.rank_backstop_aborts == 0

    def test_fleet_codec_round_trip(self):
        from repro.fleet.codec import decode_result, encode_result

        report = ChaosReport(seed=3, sent=1, delivered=1, rank_kills=1)
        restored = decode_result(encode_result(report))
        assert isinstance(restored, ChaosReport)
        assert restored == report
