"""Golden analyzer outputs: full reports and placement recommendations.

``analyzer_golden.json`` holds the sha256 of ``repro-analyze --app
<app> --full-report`` for every registered application, plus the
``recommend_placement`` result for each cluster workload on a ring, a
torus and a fat tree. The fixture was recorded when the Poisson tail
came from scipy and the communication graph from networkx; matching it
keeps the stdlib replacements byte-identical without either library.

Re-record (only when an output change is intended and explained)::

    PYTHONPATH=src python -m tests.analyzer.test_analyzer_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.analyzer.cli import main as analyze_main
from repro.analyzer.placement import recommend_placement
from repro.net.cluster import CLUSTER_APPS, cluster_workload
from repro.net.topology import fat_tree, ring, torus2d
from repro.traces.synthetic import app_names

FIXTURE = Path(__file__).with_name("analyzer_golden.json")

TOPOLOGIES = {
    "ring4": lambda: ring(4),
    "torus2x2": lambda: torus2d(2, 2),
    "fattree4": lambda: fat_tree(4),
}


def full_report_digest(app: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert analyze_main(["--app", app, "--full-report"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def placement_record(app: str, topology: str) -> dict:
    rec = recommend_placement(cluster_workload(app, 16, rounds=2), TOPOLOGIES[topology]())
    return {
        "scheme": rec.scheme,
        "costs": rec.costs,
        "nodes": list(rec.placement.nodes),
    }


def record() -> dict:
    return {
        "full_report_sha256": {app: full_report_digest(app) for app in app_names()},
        "placement": {
            f"{app}/{topology}": placement_record(app, topology)
            for app in CLUSTER_APPS
            for topology in TOPOLOGIES
        },
    }


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("app", sorted(GOLDEN.get("full_report_sha256", {})))
def test_full_report_matches_golden(app):
    assert full_report_digest(app) == GOLDEN["full_report_sha256"][app]


@pytest.mark.parametrize("case", sorted(GOLDEN.get("placement", {})))
def test_placement_matches_golden(case):
    app, topology = case.split("/")
    assert placement_record(app, topology) == GOLDEN["placement"][case]


def test_fixture_covers_every_app():
    assert sorted(GOLDEN["full_report_sha256"]) == sorted(app_names())
    assert len(GOLDEN["placement"]) == len(CLUSTER_APPS) * len(TOPOLOGIES)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
