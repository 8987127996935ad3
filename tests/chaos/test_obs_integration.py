"""One soak invocation must yield a Perfetto-valid trace and a metrics
snapshot whose reliability counters are cumulative across engine
generations — the acceptance bar for the observability layer."""

from __future__ import annotations

import json

import pytest

from repro.chaos.cli import main as chaos_main
from repro.chaos.soak import PROFILES
from repro.obs.registry import MetricsSnapshot
from repro.obs.validate import validate_chrome_trace


@pytest.fixture(scope="module")
def soak_artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("soak-obs")
    trace_path = tmp / "soak.trace.json"
    metrics_path = tmp / "soak.metrics.json"
    rc = chaos_main(
        [
            "soak",
            "--schedules",
            "6",
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(metrics_path),
        ]
    )
    assert rc == 0
    return json.loads(trace_path.read_text()), MetricsSnapshot.from_json(
        metrics_path.read_text()
    )


def _process_names(payload) -> dict[int, str]:
    return {
        e["pid"]: e["args"]["name"]
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }


class TestTrace:
    def test_trace_is_structurally_valid(self, soak_artifacts) -> None:
        payload, _ = soak_artifacts
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"], "trace must not be empty"

    def test_one_scope_per_profile(self, soak_artifacts) -> None:
        payload, _ = soak_artifacts
        scopes = {name.split("/")[0] for name in _process_names(payload).values()}
        assert scopes == set(PROFILES)

    def test_block_slowpath_retransmit_and_spill_events_present(
        self, soak_artifacts
    ) -> None:
        payload, _ = soak_artifacts
        names = _process_names(payload)
        kinds = {
            (names[e["pid"]].split("/", 1)[1], e["name"], e["ph"])
            for e in payload["traceEvents"]
            if e["ph"] != "M"
        }
        assert ("engine", "block", "X") in kinds
        assert ("rc", "retransmit", "B") in kinds
        assert ("matcher", "spill", "i") in kinds
        assert ("matcher", "recovery", "i") in kinds
        assert ("matcher", "degraded", "B") in kinds
        assert ("matcher", "degraded", "E") in kinds

    def test_simulated_clocks_never_rewind(self, soak_artifacts) -> None:
        payload, _ = soak_artifacts
        last: dict[tuple, float] = {}
        for e in payload["traceEvents"]:
            if e["ph"] == "M":
                continue
            track = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(track, 0.0)
            last[track] = e["ts"]


class TestMetrics:
    def test_spill_profile_spans_multiple_generations(self, soak_artifacts) -> None:
        _, snapshot = soak_artifacts
        assert snapshot.get("chaos.fallback_spills{profile=spill}") >= 1
        assert snapshot.get("chaos.fallback_recoveries{profile=spill}") >= 1

    def test_reliability_counters_cumulative_across_generations(
        self, soak_artifacts
    ) -> None:
        """The engine-side mirror (carried across >= 2 generations in
        the spill profile) must equal the wires' cumulative counts."""
        _, snapshot = soak_artifacts
        for profile in sorted(PROFILES):
            wire = snapshot.get(f"chaos.retransmits{{profile={profile}}}")
            engine = snapshot.get(f"chaos.engine_retransmits{{profile={profile}}}")
            assert engine == wire, profile
        assert snapshot.get("chaos.retransmits{profile=spill}") > 0

    def test_run_and_histogram_accounting(self, soak_artifacts) -> None:
        _, snapshot = soak_artifacts
        for profile in ("clean", "spill"):
            assert snapshot.get(f"chaos.runs{{profile={profile}}}") == 6.0
            assert (
                snapshot.get(f"chaos.retransmits_per_run{{profile={profile}}}_count")
                == 6.0
            )
        assert snapshot.get("chaos.failures{profile=spill}", 0.0) == 0.0

    def test_report_renders(self, soak_artifacts, capsys) -> None:
        _, snapshot = soak_artifacts
        from repro.obs.report import render_metrics

        text = render_metrics(snapshot, match="chaos.retransmits")
        assert "chaos" in text and "profile=spill" in text
