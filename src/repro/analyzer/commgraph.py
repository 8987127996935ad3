"""Communication-graph analysis of traces.

The matching behaviour the paper analyzes is downstream of the
application's communication *topology*: how many peers a rank talks
to (its pre-posted window ≈ queue depth), how symmetric the exchange
is, and whether traffic concentrates on hot receivers (the many-to-one
pattern the introduction singles out). This module builds the directed
communication graph of a trace (nodes = ranks, edge weights = message
counts) and derives those structural statistics, connecting each
application's Fig. 7 queue depth to the topology that produces it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.traces.model import OpKind, Trace

__all__ = ["CommGraph", "CommGraphStats", "build_comm_graph", "graph_stats"]


@dataclass(frozen=True, slots=True)
class CommGraph:
    """Directed communication graph: ranks and message-count edges.

    ``edges`` iterates sources in node order and, per source,
    destinations in first-send order.
    """

    #: Ranks ``0..nprocs-1``, then any other peer in first-seen order.
    nodes: tuple[int, ...]
    #: ``(src, dst) -> messages sent``.
    edges: dict[tuple[int, int], int]

    def in_degrees(self) -> dict[int, int]:
        """Distinct senders per node, in node order."""
        degrees = dict.fromkeys(self.nodes, 0)
        for _, dst in self.edges:
            degrees[dst] += 1
        return degrees

    def components(self) -> int:
        """Weakly-connected components; isolated ranks count as one each."""
        parent = {node: node for node in self.nodes}

        def root(node: int) -> int:
            while parent[node] != node:
                parent[node] = node = parent[parent[node]]
            return node

        count = len(parent)
        for src, dst in self.edges:
            a, b = root(src), root(dst)
            if a != b:
                parent[a] = b
                count -= 1
        return count


@dataclass(frozen=True, slots=True)
class CommGraphStats:
    """Structural summary of an application's communication graph."""

    nodes: int
    edges: int
    messages: int
    #: Mean / max number of distinct senders per receiver — the
    #: direct driver of pre-posted queue depth.
    mean_in_degree: float
    max_in_degree: int
    #: Fraction of directed edges with a reverse edge (halo exchanges
    #: are symmetric; gathers are not).
    symmetry: float
    #: Messages on the busiest receiver / mean per receiver (hotspot
    #: factor; many-to-one patterns score high).
    hotspot_factor: float
    #: Weakly-connected communicating components.
    components: int

    def is_neighbor_exchange(self) -> bool:
        """Heuristic signature of a halo/stencil app: symmetric,
        bounded-degree, single component."""
        return self.symmetry > 0.9 and self.max_in_degree <= 32


def build_comm_graph(trace: Trace) -> CommGraph:
    """Directed graph: edge (s, d) weighted by messages s -> d."""
    succ: dict[int, dict[int, int]] = {rank: {} for rank in range(trace.nprocs)}
    for rank_trace in trace.ranks:
        for op in rank_trace.ops:
            if op.kind in (OpKind.ISEND, OpKind.SEND):
                out = succ.setdefault(rank_trace.rank, {})
                succ.setdefault(op.peer, {})
                out[op.peer] = out.get(op.peer, 0) + 1
    return CommGraph(
        nodes=tuple(succ),
        edges={(src, dst): w for src, out in succ.items() for dst, w in out.items()},
    )


def graph_stats(trace: Trace) -> CommGraphStats:
    """Structural statistics of the trace's communication graph."""
    graph = build_comm_graph(trace)
    messages = sum(graph.edges.values())
    in_degrees = list(graph.in_degrees().values())
    in_weights: dict[int, int] = {}
    for (_, dst), weight in graph.edges.items():
        in_weights[dst] = in_weights.get(dst, 0) + weight
    if graph.edges:
        reciprocal = sum(1 for s, d in graph.edges if (d, s) in graph.edges)
        symmetry = reciprocal / len(graph.edges)
    else:
        symmetry = 1.0
    if in_weights:
        mean_weight = sum(in_weights.values()) / len(in_weights)
        hotspot = max(in_weights.values()) / mean_weight if mean_weight else 0.0
    else:
        hotspot = 0.0
    return CommGraphStats(
        nodes=len(graph.nodes),
        edges=len(graph.edges),
        messages=messages,
        mean_in_degree=sum(in_degrees) / len(in_degrees) if in_degrees else 0.0,
        max_in_degree=max(in_degrees, default=0),
        symmetry=symmetry,
        hotspot_factor=hotspot,
        components=graph.components(),
    )
