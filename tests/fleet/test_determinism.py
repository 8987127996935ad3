"""Satellite property: parallel sweeps are byte-identical to serial.

``sweep_applications`` over several synthetic apps must produce
byte-identical ``AppAnalysis`` JSON at ``--jobs 1`` and ``--jobs 4`` —
including when a worker is crashed mid-sweep and the job retried — and
the chaos soak matrix must likewise be order- and
parallelism-independent. These are the determinism guarantees the
drivers advertise.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analyzer.sweep import sweep_applications
from repro.chaos.lanes import SOAK, family_jobs
from repro.fleet import RetryPolicy, run_jobs

#: Small but non-trivial: three apps with different op mixes.
APPS = ["AMG", "BigFFT", "MiniFe"]
BINS = (1, 32)


def _flatten(results) -> dict[tuple[str, int], str]:
    return {
        (name, bins): results[name][bins].to_json()
        for name in results
        for bins in results[name]
    }


def test_sweep_parallel_bytes_match_serial():
    serial = _flatten(sweep_applications(bins_list=BINS, rounds=2, names=APPS, jobs=1))
    parallel = _flatten(
        sweep_applications(bins_list=BINS, rounds=2, names=APPS, jobs=4)
    )
    assert serial == parallel


def test_sweep_identical_after_worker_crash_and_retry(tmp_path):
    """Crash the worker running the first cell; bytes must not change.

    A countdown of 2 crashes both the pooled attempt (pool break,
    charged to nobody) and the first isolated re-run (charged — a real
    retry), so the cell succeeds on its second charged attempt.
    """
    marker = tmp_path / "crash"
    marker.write_text("2")

    def hook(index, spec):
        return {"crash_countdown": str(marker)} if index == 0 else None

    serial = _flatten(sweep_applications(bins_list=BINS, rounds=2, names=APPS, jobs=1))
    crashed, report = sweep_applications(
        bins_list=BINS,
        rounds=2,
        names=APPS,
        jobs=4,
        policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        fault_hook=hook,
        with_report=True,
    )
    assert report.retries >= 1
    assert report.worker_restarts >= 1
    assert _flatten(crashed) == serial


def test_sweep_warm_cache_bytes_match(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold, cold_report = sweep_applications(
        bins_list=BINS, rounds=2, names=APPS, jobs=1, cache_dir=cache_dir,
        with_report=True,
    )
    warm, warm_report = sweep_applications(
        bins_list=BINS, rounds=2, names=APPS, jobs=1, cache_dir=cache_dir,
        with_report=True,
    )
    assert cold_report.executed == len(APPS) * len(BINS)
    assert warm_report.executed == 0
    assert warm_report.cached == len(APPS) * len(BINS)
    assert _flatten(warm) == _flatten(cold)


def test_non_strict_sweep_omits_quarantined_cells(tmp_path):
    """``strict=False``: a permanently-crashing cell is quarantined,
    its id lands in the report, and the surviving grid comes back."""
    marker = tmp_path / "crash"
    marker.write_text("99")  # crashes every attempt

    def hook(index, spec):
        return {"crash_countdown": str(marker)} if index == 0 else None

    results, report = sweep_applications(
        bins_list=BINS,
        rounds=2,
        names=APPS,
        policy=RetryPolicy(max_attempts=1, base_delay_s=0.0),
        fault_hook=hook,
        with_report=True,
        strict=False,
    )
    assert not report.ok
    assert report.quarantined == 1
    assert report.quarantined_ids == ["#0 analyze_app seed=0"]
    # Index 0 is app-major, bins-minor: (APPS[0], BINS[0]) is missing,
    # every other cell survived.
    assert set(results[APPS[0]]) == set(BINS) - {BINS[0]}
    for name in APPS[1:]:
        assert set(results[name]) == set(BINS)


def test_strict_sweep_raises_on_quarantine(tmp_path):
    from repro.fleet import FleetError

    marker = tmp_path / "crash"
    marker.write_text("99")

    def hook(index, spec):
        return {"crash_countdown": str(marker)} if index == 0 else None

    with pytest.raises(FleetError, match="quarantined"):
        sweep_applications(
            bins_list=BINS,
            rounds=2,
            names=APPS,
            policy=RetryPolicy(max_attempts=1, base_delay_s=0.0),
            fault_hook=hook,
        )


def test_soak_matrix_parallelism_independent():
    """chaos_run payloads are identical at jobs=1 and jobs=2."""
    family = replace(
        SOAK,
        lanes=tuple(lane for lane in SOAK.lanes if lane.name in ("clean", "drops")),
    )
    seeds = range(1, 3)
    serial = run_jobs(family_jobs(family, seeds), jobs=1)
    parallel = run_jobs(family_jobs(family, seeds), jobs=2)
    assert [o.payload for o in serial.outcomes] == [
        o.payload for o in parallel.outcomes
    ]
    assert [o.result.to_json() for o in serial.outcomes] == [
        o.result.to_json() for o in parallel.outcomes
    ]
