"""The shared chaos-lane runner: job identity, verdicts, front door."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.chaos import lanes
from repro.chaos.cli import main as chaos_main
from repro.chaos.harness import ChaosConfig
from repro.chaos.lanes import (
    CORES,
    OVERLOAD,
    SOAK,
    chaos_lanes,
    family_jobs,
    run_family,
)

#: sha256 prefix over the ordered canonical ``(kind, params, seed)`` of
#: every job each family emits at seeds 1-2 with default knobs. Changing
#: one invalidates every warm result cache and fleet digest of that
#: family, so it must be deliberate.
JOB_IDENTITY = {
    "soak": (12, "640f102aefc39eda"),
    "cores": (18, "72a813a1cb300e65"),
    "overload": (6, "b3650ee16ffca91e"),
    "cluster": (6, "25719e1c99e84b1a"),
    "ranks": (14, "9d399395db8934be"),
}


def _families():
    from repro.chaos import cluster, ranksoak

    return {
        f.name: f for f in (SOAK, CORES, OVERLOAD, cluster.FAMILY, ranksoak.FAMILY)
    }


def _identity(specs) -> tuple[int, str]:
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(
            json.dumps(
                [spec.kind, spec.params, spec.seed],
                sort_keys=True,
                separators=(",", ":"),
            ).encode()
        )
        digest.update(b"\n")
    return len(specs), digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(JOB_IDENTITY))
def test_job_identity_is_pinned(name):
    family = _families()[name]
    assert _identity(list(family_jobs(family, range(1, 3)))) == JOB_IDENTITY[name]


def test_no_mutants_drops_only_mutant_lanes(capsys):
    assert chaos_main(["cores", "--schedules", "1", "--no-mutants"]) == 0
    real = sum(1 for lane in CORES.lanes if not lane.mutant)
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith(f"core soak: {real} runs, 0 failures")
    assert "mutants caught 0/0" in summary


#: A "mutant" lane running the genuine engine: its check never objects,
#: so the lane is never caught — exactly what a vacuous watchdog looks
#: like.
GENUINE = ChaosConfig(engine="optimistic", rounds=4, watchdog=True)
PLANTED = replace(CORES, lanes=chaos_lanes({"mutant-genuine": GENUINE}, mutant=True))


class TestMissedMutant:
    def test_missed_mutant_fails_the_run(self):
        result = run_family(PLANTED, 2, out=io.StringIO(), err=io.StringIO())
        assert result.failures == 0
        assert result.mutants_missed == ["mutant-genuine"]
        assert not result.ok

    def test_cli_exits_one_without_any_flag(self, monkeypatch, capsys):
        monkeypatch.setattr(lanes, "CORES", PLANTED)
        assert chaos_main(["cores", "--schedules", "2"]) == 1
        captured = capsys.readouterr()
        assert "mutants caught 0/1" in captured.out
        assert "MUTANTS MISSED: ['mutant-genuine']" in captured.err


class TestSummary:
    def test_warm_cache_executes_nothing(self, tmp_path, capsys):
        argv = ["soak", "--schedules", "1", "--cache-dir", str(tmp_path), "-v"]
        assert chaos_main(argv) == 0
        cold = capsys.readouterr().out.splitlines()
        assert chaos_main(argv) == 0
        warm = capsys.readouterr().out.splitlines()
        assert cold[-1].startswith("chaos soak: 6 runs, 0 failures")
        assert cold[-1].endswith("| executed=6 cached=0")
        assert warm[-1].endswith("| executed=0 cached=6")
        assert cold[:-1] == warm[:-1]  # identical -v verdict lines

    def test_peak_counters_keep_the_maximum(self):
        from repro.chaos.harness import run_chaos
        from repro.chaos.soak import OVERLOAD_PROFILES

        result = run_family(OVERLOAD, 2, out=io.StringIO(), err=io.StringIO())
        peaks = [
            run_chaos(replace(config, seed=seed)).peak_charged_bytes
            for config in OVERLOAD_PROFILES.values()
            for seed in (1, 2)
        ]
        assert result.counters["peak"] == max(peaks) < sum(peaks)

    @pytest.mark.parametrize(
        "argv",
        [
            ["soak", "--seeds", "1"],
            ["soak", "--profile", "clean"],
            ["cores", "--assert-mutants-caught"],
            ["soak", "--no-mutants"],
            ["soak", "--ranks", "4"],
            ["cluster", "--trace-out", "x.json"],
        ],
    )
    def test_flags_attach_only_where_used(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            chaos_main(argv)
        assert exc.value.code == 2


def test_soak_tables_import_stays_light():
    """The benchmark imports ``PROFILES``; that must not drag in the
    cluster or rank-fault stacks."""
    code = (
        "import sys, repro.chaos.soak as s; "
        "print(list(s.PROFILES)); "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('repro.net', 'repro.resilience', 'repro.chaos.lanes'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [
        "['clean', 'drops', 'chaos', 'degraded', 'spill', 'overload']",
        "[]",
    ]
