"""Worker-count resolution: never more workers than cores."""

from __future__ import annotations

import json
import os

from repro.fleet.cli import main as fleet_main
from repro.fleet.pool import resolve_workers
from repro.fleet.worker import ENV_WORKER


def test_request_capped_at_core_count(monkeypatch):
    monkeypatch.delenv(ENV_WORKER, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert resolve_workers(4) == 2
    assert resolve_workers(2) == 2
    assert resolve_workers(1) == 1
    assert resolve_workers(None) == 2
    assert resolve_workers(4, items=1) == 1


def test_inside_a_worker_stays_serial(monkeypatch):
    monkeypatch.setenv(ENV_WORKER, "1")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_workers(4) == 1


def test_bench_records_requested_and_effective_jobs(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv(ENV_WORKER, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    out = tmp_path / "bench.json"
    argv = ["bench", "--jobs", "4", "--apps", "AMG", "--bins", "1", "--rounds", "1"]
    assert fleet_main([*argv, "--out", str(out), "--assert-identical"]) == 0
    payload = json.loads(out.read_text())
    assert payload["jobs_requested"] == 4
    assert payload["jobs_effective"] == 1
    assert "parallel(1)" in capsys.readouterr().out
