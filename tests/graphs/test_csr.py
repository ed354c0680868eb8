"""CSR graphs (repro.graphs.csr)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph


def triangle() -> CSRGraph:
    return CSRGraph.from_edges([0, 1, 2], [1, 2, 0], 3)


class TestConstruction:
    def test_from_edges_counts(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_edges_grouped_by_source(self):
        g = CSRGraph.from_edges([2, 0, 1, 0], [0, 1, 2, 2], 3)
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == [0]

    def test_weights_follow_edges(self):
        g = CSRGraph.from_edges([1, 0], [0, 1], 2, weight=[5.0, 7.0])
        assert g.weight[g.edge_slice(0)][0] == 7.0
        assert g.weight[g.edge_slice(1)][0] == 5.0

    def test_default_weights_are_one(self):
        g = triangle()
        assert np.all(g.weight == 1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0, 1], [1], 2)
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0], [1], 2, weight=[1.0, 2.0])

    def test_isolated_vertices_allowed(self):
        g = CSRGraph.from_edges([0], [1], 5)
        assert g.num_vertices == 5
        assert len(g.neighbors(3)) == 0

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], [], 4)
        assert g.num_edges == 0
        assert g.avg_degree == 0.0


class TestValidation:
    def test_out_of_range_dst_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0], [5], 3)

    def test_out_of_range_src_rejected(self):
        with pytest.raises(ValueError, match="source ids out of range"):
            CSRGraph.from_edges([0, 3], [1, 1], 3)

    def test_negative_src_rejected(self):
        with pytest.raises(ValueError, match="source ids out of range"):
            CSRGraph.from_edges([0, -1], [1, 1], 3)

    def test_sort_key_width_rejected(self):
        # bits(V-1) = 62 plus bits(E-1) = 2 exceeds the 63-bit sort key.
        with pytest.raises(ValueError, match="key bits"):
            CSRGraph.from_edges([0, 1, 2], [0, 1, 2], 1 << 62)

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(num_vertices=2, offsets=[0, 2],
                     dst=[0, 1], weight=[1.0, 1.0])
        with pytest.raises(ValueError):
            CSRGraph(num_vertices=2, offsets=[0, 3, 2],
                     dst=[0, 1], weight=[1.0, 1.0])


class TestQueries:
    def test_out_degree(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 0], 3)
        assert list(g.out_degree()) == [2, 1, 0]

    def test_avg_degree(self):
        assert triangle().avg_degree == 1.0

    def test_edge_slice(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 0], 3)
        assert g.edge_slice(0) == slice(0, 2)
        assert g.edge_slice(2) == slice(3, 3)

    def test_reversed_flips_edges(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3, weight=[3.0, 4.0])
        r = g.reversed()
        assert list(r.neighbors(1)) == [0]
        assert list(r.neighbors(2)) == [1]
        assert r.num_edges == g.num_edges


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=120),
       st.integers(min_value=0, max_value=10_000))
def test_property_roundtrip_preserves_multiset(n_vertices, n_edges, seed):
    """from_edges preserves the edge multiset, just re-ordered by source."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, n_edges)
    dst = rng.integers(0, n_vertices, n_edges)
    g = CSRGraph.from_edges(src, dst, n_vertices)
    rebuilt_src = np.repeat(np.arange(n_vertices), np.diff(g.offsets))
    original = sorted(zip(src.tolist(), dst.tolist()))
    rebuilt = sorted(zip(rebuilt_src.tolist(), g.dst.tolist()))
    assert original == rebuilt
    g.validate()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n_vertices: st.tuples(
        st.just(n_vertices),
        # Sources drawn from a prefix of the vertex range: duplicates
        # and isolated tail vertices; an empty list is an empty graph.
        st.lists(st.integers(min_value=0,
                             max_value=max(n_vertices // 2, 1) - 1),
                 max_size=150))))
def test_property_edge_order_is_the_stable_sort(case):
    """from_edges orders edges exactly as a stable argsort of src."""
    n_vertices, src = case
    src = np.asarray(src, dtype=np.int64)
    edge_ids = np.arange(len(src), dtype=np.float64)
    g = CSRGraph.from_edges(src, src[::-1], n_vertices, weight=edge_ids)
    order = np.argsort(src, kind="stable")
    assert np.array_equal(g.weight, edge_ids[order])
    assert np.array_equal(g.dst, src[::-1][order])
    counts = np.bincount(src, minlength=n_vertices)
    assert np.array_equal(g.offsets, np.concatenate([[0], np.cumsum(counts)]))
