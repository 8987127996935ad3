"""Commgraph-driven rank placement recommendation.

Given an application trace and a cluster topology, pick where each
rank should live. Placement cost is the routed communication volume::

    cost(placement) = sum over commgraph edges (s, d, w) of
                      w * hops(node_of(s), node_of(d))

— messages times route length, the first-order driver of both latency
and link contention on a shared fabric.

The recommender scores the sweepable baselines (block, round-robin)
plus a greedy commgraph layout — ranks placed in order of attachment
to already-placed ranks, each on the free host closest to its
heaviest placed neighbor — and returns the argmin. Because the
baselines are always in the candidate set, the recommendation is
*never worse than block placement* by construction; the greedy layout
exists to win on traces whose structure the baselines miss (e.g. halo
neighborhoods scattered by round-robin, or hotspot roots placed far
from their senders).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyzer.commgraph import CommGraph, build_comm_graph
from repro.net.placement import Placement
from repro.net.routing import RouteTable
from repro.net.topology import Topology
from repro.traces.model import Trace

__all__ = ["PlacementRecommendation", "placement_cost", "recommend_placement"]


@dataclass(frozen=True, slots=True)
class PlacementRecommendation:
    """The chosen placement plus every candidate's score."""

    placement: Placement
    scheme: str
    #: scheme -> routed communication cost (message-hops).
    costs: dict[str, float]

    @property
    def improvement_over_block(self) -> float:
        """Fractional cost saved vs block placement (>= 0.0)."""
        block = self.costs.get("block", 0.0)
        if block <= 0:
            return 0.0
        return 1.0 - self.costs[self.scheme] / block


def placement_cost(graph: CommGraph, placement: Placement, routes: RouteTable) -> float:
    """Routed message volume of ``placement`` (lower is better)."""
    total = 0.0
    for (src, dst), weight in graph.edges.items():
        total += weight * routes.hops(
            placement.node_of(src), placement.node_of(dst)
        )
    return total


def _greedy(
    graph: CommGraph, hosts: list[str], routes: RouteTable, ranks: int
) -> Placement:
    """Attachment-greedy layout over the (undirected) commgraph."""
    weight: dict[tuple[int, int], float] = {}
    totals = [0.0] * ranks
    for (src, dst), w in graph.edges.items():
        if src == dst or not (0 <= src < ranks and 0 <= dst < ranks):
            continue
        key = (min(src, dst), max(src, dst))
        weight[key] = weight.get(key, 0.0) + w
        totals[src] += w
        totals[dst] += w
    neighbors: dict[int, list[tuple[int, float]]] = {r: [] for r in range(ranks)}
    for (a, b), w in weight.items():
        neighbors[a].append((b, w))
        neighbors[b].append((a, w))

    per_host = -(-ranks // len(hosts))
    load: dict[str, int] = {host: 0 for host in hosts}
    assigned: dict[int, str] = {}
    placed: list[int] = []
    unplaced = set(range(ranks))

    def free_hosts() -> list[str]:
        return [host for host in hosts if load[host] < per_host]

    while unplaced:
        if placed:
            # Next rank: strongest attachment to the placed set.
            best_rank, best_att = -1, -1.0
            for rank in sorted(unplaced):
                att = sum(w for peer, w in neighbors[rank] if peer in assigned)
                if att > best_att:
                    best_rank, best_att = rank, att
            rank = best_rank
            # Host: minimize routed volume to placed neighbors.
            best_host, best_cost = None, None
            for host in free_hosts():
                cost = sum(
                    w * routes.hops(host, assigned[peer])
                    for peer, w in neighbors[rank]
                    if peer in assigned
                )
                if best_cost is None or cost < best_cost:
                    best_host, best_cost = host, cost
        else:
            # Seed: the heaviest communicator, on the first host.
            rank = max(sorted(unplaced), key=lambda r: totals[r])
            best_host = free_hosts()[0]
        assert best_host is not None
        assigned[rank] = best_host
        load[best_host] += 1
        placed.append(rank)
        unplaced.discard(rank)
    return Placement.custom(assigned, scheme="greedy")


def recommend_placement(trace: Trace, topology: Topology) -> PlacementRecommendation:
    """Score block / round-robin / greedy for ``trace`` on
    ``topology`` and return the cheapest (ties prefer block)."""
    graph = build_comm_graph(trace)
    routes = RouteTable(topology)
    hosts = topology.hosts
    ranks = trace.nprocs
    candidates = {
        "block": Placement.block(ranks, hosts),
        "round_robin": Placement.round_robin(ranks, hosts),
        "greedy": _greedy(graph, hosts, routes, ranks),
    }
    costs = {
        scheme: placement_cost(graph, placement, routes)
        for scheme, placement in candidates.items()
    }
    # Stable argmin: dict order puts block first, so ties keep block.
    scheme = min(costs, key=costs.get)
    return PlacementRecommendation(
        placement=candidates[scheme], scheme=scheme, costs=costs
    )
