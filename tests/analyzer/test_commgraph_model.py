"""Tests for the communication-graph and balls-in-bins model modules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer.commgraph import CommGraph, build_comm_graph, graph_stats
from repro.analyzer.model import compare_with_measurement, predict
from repro.traces.synthetic import generate


class TestCommGraph:
    def test_halo_app_is_symmetric_neighbor_exchange(self):
        stats = graph_stats(generate("FillBoundary", processes=27, rounds=2))
        assert stats.symmetry == pytest.approx(1.0)
        assert stats.is_neighbor_exchange()
        assert stats.components == 1
        assert stats.max_in_degree == 6  # 3-D face neighbors

    def test_cns_has_26_neighbors(self):
        stats = graph_stats(generate("BoxLib CNS", processes=27, rounds=2))
        assert stats.max_in_degree == 26

    def test_manytoone_is_hotspot(self):
        from repro.traces.synthetic import TraceBuilder, manytoone_round

        builder = TraceBuilder("gather", 16)
        manytoone_round(builder)
        stats = graph_stats(builder.build())
        # Only the root receives: extreme hotspot, zero symmetry.
        assert stats.hotspot_factor == pytest.approx(1.0)  # single receiver
        assert stats.symmetry == 0.0
        assert stats.max_in_degree == 15

    def test_pure_collective_app_has_empty_graph(self):
        stats = graph_stats(generate("HILO", rounds=2))
        assert stats.edges == 0
        assert stats.messages == 0

    def test_edge_weights_count_messages(self):
        trace = generate("MOCFE", processes=8, rounds=2)
        graph = build_comm_graph(trace)
        total = sum(graph.edges.values())
        from repro.traces.model import OpKind

        sends = sum(
            1
            for rank_trace in trace.ranks
            for op in rank_trace.ops
            if op.kind in (OpKind.ISEND, OpKind.SEND)
        )
        assert total == sends

    def test_isolated_ranks_are_components(self):
        graph = CommGraph(nodes=(0, 1, 2, 3), edges={(0, 1): 2, (1, 0): 1})
        assert graph.components() == 3
        assert graph.in_degrees() == {0: 1, 1: 1, 2: 0, 3: 0}

    def test_in_degree_tracks_queue_depth_driver(self):
        """Apps with higher in-degree have deeper 1-bin queues: the
        topology-to-matching link."""
        deep = graph_stats(generate("BoxLib CNS", processes=27, rounds=2))
        shallow = graph_stats(generate("SNAP", processes=16, rounds=2))
        assert deep.max_in_degree > shallow.max_in_degree


class TestBallsInBins:
    def test_zero_keys(self):
        prediction = predict(0, 32)
        assert prediction.expected_collisions == 0.0
        assert prediction.expected_max_load == 0.0
        assert prediction.expected_empty_fraction == pytest.approx(1.0)

    def test_single_bin_degenerates(self):
        prediction = predict(10, 1)
        assert prediction.expected_max_load == 10.0
        assert prediction.expected_empty_fraction == 0.0

    def test_sparse_regime(self):
        # 26 keys in 384 bins: nearly collision-free.
        prediction = predict(26, 384)
        assert prediction.expected_collisions < 1.5
        assert prediction.expected_max_load <= 3.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            predict(-1, 8)
        with pytest.raises(ValueError):
            predict(1, 0)

    @settings(max_examples=40, deadline=None)
    @given(keys=st.integers(0, 500), bins=st.integers(1, 512))
    def test_predictions_sane(self, keys, bins):
        prediction = predict(keys, bins)
        assert 0.0 <= prediction.expected_empty_fraction <= 1.0
        assert 0.0 <= prediction.expected_collisions <= keys
        assert prediction.expected_max_load <= max(keys, 0)

    def test_measured_hash_behaves_like_random(self):
        """The repo's hash family must track the analytic model: hash
        the CNS key population into 32 bins and compare max load."""
        from repro.core.hashing import bucket_of, hash_src_tag

        keys = [(src, tag) for src in range(26) for tag in range(4)]
        bins = 32
        loads = [0] * bins
        for src, tag in keys:
            loads[bucket_of(hash_src_tag(src, tag), bins)] += 1
        report = compare_with_measurement(
            len(keys), bins, measured_max_depth=max(loads)
        )
        assert report["max_within_tolerance"], report

    def test_compare_reports_collisions(self):
        report = compare_with_measurement(
            26, 384, measured_max_depth=2, measured_collisions=1
        )
        assert report["collisions_within_tolerance"]
        assert "expected_collisions" in report
