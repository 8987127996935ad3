"""Commgraph-driven placement recommendation (satellite 3).

The contract under test: whatever the recommender picks is *never
worse than block placement* on the routed-volume cost model, and on
structured traces (halo neighborhoods) the greedy layout finds real
savings when ranks outnumber hosts.
"""

from repro.analyzer.placement import placement_cost, recommend_placement
from repro.analyzer.commgraph import build_comm_graph
from repro.net.cluster import cluster_workload
from repro.net.placement import Placement
from repro.net.routing import RouteTable
from repro.net.topology import fat_tree, ring, torus2d


class TestRecommendation:
    def test_never_worse_than_block_on_halo(self):
        trace = cluster_workload("halo", 16, rounds=2)
        for topo in (torus2d(2, 2), ring(4), fat_tree(4)):
            rec = recommend_placement(trace, topo)
            assert rec.costs[rec.scheme] <= rec.costs["block"]
            assert rec.improvement_over_block >= 0.0

    def test_greedy_beats_baselines_on_packed_halo(self):
        """16 halo ranks on 4 hosts: neighborhood locality is real."""
        trace = cluster_workload("halo", 16, rounds=2)
        rec = recommend_placement(trace, torus2d(2, 2))
        assert rec.scheme == "greedy"
        assert rec.costs["greedy"] < rec.costs["block"]

    def test_ties_prefer_block(self):
        """One host per rank: every placement is the identity map, so
        all costs tie and the recommendation stays block."""
        trace = cluster_workload("halo", 8, rounds=1)
        rec = recommend_placement(trace, torus2d(2, 4))
        assert rec.scheme == "block"
        assert rec.improvement_over_block == 0.0

    def test_recommended_placement_is_usable(self):
        trace = cluster_workload("hotspot", 16, rounds=1)
        topo = torus2d(2, 2)
        rec = recommend_placement(trace, topo)
        assert rec.placement.ranks == 16
        assert set(rec.placement.nodes) <= set(topo.hosts)

    def test_cost_model_counts_routed_volume(self):
        trace = cluster_workload("halo", 8, rounds=1)
        topo = ring(8)
        graph = build_comm_graph(trace)
        routes = RouteTable(topo)
        cost = placement_cost(graph, Placement.block(8, topo.hosts), routes)
        manual = sum(
            w * routes.hops(f"h{s}", f"h{d}")
            for (s, d), w in graph.edges.items()
        )
        assert cost == manual > 0
