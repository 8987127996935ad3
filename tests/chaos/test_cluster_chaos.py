"""Cluster network-fault soak (satellite 5's chaos half).

Faults cost time, never correctness: every profile x seed must end
with all sends delivered and zero C2 ordering violations, and the
partition profile must actually exercise recovery (drops observed).
"""

import io
from dataclasses import replace

from repro.chaos.cluster import CLUSTER_PROFILES, FAMILY
from repro.chaos.lanes import run_family


class TestSoak:
    def test_all_profiles_zero_violations(self):
        out, err = io.StringIO(), io.StringIO()
        family = replace(FAMILY, knobs={"ranks": 8, "rounds": 2})
        result = run_family(family, 2, out=out, err=err)
        assert result.ok, err.getvalue()
        assert result.runs == 2 * len(CLUSTER_PROFILES)
        assert result.counters["violations"] == 0

    def test_partition_profile_exercises_recovery(self):
        out = io.StringIO()
        family = replace(FAMILY, knobs={"ranks": 8, "rounds": 2})
        result = run_family(family, 3, out=out, err=out)
        assert result.ok, out.getvalue()
        # The partition windows must have actually dropped packets —
        # a soak that never faults proves nothing.
        assert result.counters["drops"] > 0
        assert result.counters["retransmits"] > 0

    def test_profiles_cover_fault_families(self):
        assert CLUSTER_PROFILES["clean"].is_clean
        assert CLUSTER_PROFILES["flaps"].flap_links > 0
        assert CLUSTER_PROFILES["partition"].partition_at >= 0


class TestCli:
    def test_main_exits_zero(self, capsys):
        assert FAMILY(["--schedules", "1", "--rounds", "1"]) == 0
        assert "cluster soak:" in capsys.readouterr().out

    def test_chaos_frontdoor_dispatches(self, capsys):
        from repro.chaos.cli import main as chaos_main

        assert chaos_main(["cluster", "--schedules", "1", "--rounds", "1"]) == 0
        captured = capsys.readouterr()
        assert "cluster soak:" in captured.out

    def test_unknown_subcommand(self, capsys):
        from repro.chaos.cli import main as chaos_main

        assert chaos_main(["bogus"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err
