"""Differential checks of the stdlib analyzer math against the libraries
it replaced.

``model._poisson_sf`` stands in for ``scipy.stats.poisson.sf`` and
``commgraph.CommGraph`` for ``networkx.DiGraph``. Both oracles live in
the ``dev`` extra only, so these tests skip on a numpy-only install;
``test_analyzer_golden.py`` keeps the outputs pinned there.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analyzer import model
from repro.analyzer.commgraph import build_comm_graph
from repro.traces.model import OpKind, RankTrace, Trace, TraceOp
from repro.traces.synthetic import app_names, generate


def _lambda_grid() -> list[float]:
    return [float(lam) for lam in np.logspace(-3, 5, 33)]


def _k_grid(lam: float) -> list[int]:
    """k over [0, 10 lam + 50]: a geometric sweep plus +-45 sd around lam."""
    hi = int(10 * lam + 50)
    sd = math.sqrt(lam)
    ks = {int(k) for k in np.geomspace(1, hi, 40)}
    ks |= {int(lam + d * sd) for d in np.linspace(-45, 45, 91)}
    ks |= {0, hi, int(lam) - 1, int(lam), int(lam) + 1}
    return sorted(k for k in ks if 0 <= k <= hi)


def test_poisson_sf_matches_scipy():
    """Relative error <= 1e-12 wherever sf >= 1e-300.

    Where scipy and the stdlib tail differ by more than that, scipy is
    the one off (its incomplete-gamma series loses ~1e-11 in far upper
    tails around lam ~ 1e2..1e4): such points are refereed against a
    50-digit mpmath value, which the stdlib tail must match to 1e-12
    and more closely than scipy does.
    """
    stats = pytest.importorskip("scipy.stats")
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    checked = refereed = 0
    for lam in _lambda_grid():
        for k in _k_grid(lam):
            ref = float(stats.poisson.sf(k, lam))
            if ref < 1e-300:
                continue
            checked += 1
            got = model._poisson_sf(k, lam)
            if abs(got - ref) <= 1e-12 * ref:
                continue
            refereed += 1
            exact = mpmath.gammainc(k + 1, 0, mpmath.mpf(lam), regularized=True)
            ours = float(abs(got - exact) / exact)
            theirs = float(abs(ref - exact) / exact)
            assert ours <= 1e-12 and ours < theirs, (lam, k, got, ref, float(exact))
    assert checked > 2000
    assert refereed < checked // 20


def test_poisson_sf_far_below_mode_does_not_underflow():
    # A tail sum that starts at k+1 with k << lam loses every term.
    assert model._poisson_sf(0, 1e4) == 1.0
    assert model._poisson_sf(9000, 1e4) == pytest.approx(1.0, abs=1e-20)
    assert 0.0 < model._poisson_sf(10_000, 1e4) < 0.5


def _predict_grid() -> list[tuple[int, int]]:
    keys = sorted({int(k) for k in np.geomspace(1, 20_000, 24)})
    bins = [2, 3, 5, 8, 16, 32, 64, 100, 128, 384, 512, 1024]
    return [(k, b) for k in keys for b in bins]


def test_predict_identical_with_scipy_tail(monkeypatch):
    stats = pytest.importorskip("scipy.stats")
    stdlib = [model.predict(k, b) for k, b in _predict_grid()]
    monkeypatch.setattr(model, "_poisson_sf", stats.poisson.sf)
    assert [model.predict(k, b) for k, b in _predict_grid()] == stdlib


def _stray_peer_trace() -> Trace:
    """Isolated ranks 2, 3 and a peer (9) outside ``range(nprocs)``."""

    def send(peer: int) -> TraceOp:
        return TraceOp(kind=OpKind.ISEND, peer=peer, tag=0)

    return Trace(
        name="stray",
        nprocs=4,
        ranks=[
            RankTrace(0, [send(9), send(1), send(9)]),
            RankTrace(9, [send(0), send(7)]),
        ],
    )


@pytest.mark.parametrize("app", [*app_names(), "stray"])
def test_commgraph_matches_networkx(app):
    nx = pytest.importorskip("networkx")
    trace = _stray_peer_trace() if app == "stray" else generate(app)
    reference = nx.DiGraph()
    reference.add_nodes_from(range(trace.nprocs))
    for rank_trace in trace.ranks:
        for op in rank_trace.ops:
            if op.kind in (OpKind.ISEND, OpKind.SEND):
                src, dst = rank_trace.rank, op.peer
                if reference.has_edge(src, dst):
                    reference[src][dst]["weight"] += 1
                else:
                    reference.add_edge(src, dst, weight=1)

    graph = build_comm_graph(trace)
    assert list(graph.nodes) == list(reference.nodes)
    assert [(s, d, w) for (s, d), w in graph.edges.items()] == list(
        reference.edges(data="weight")
    )
    assert list(graph.in_degrees().items()) == list(reference.in_degree())
    assert graph.components() == nx.number_weakly_connected_components(reference)
