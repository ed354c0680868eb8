"""RMAT generation (repro.graphs.rmat)."""

import numpy as np
import pytest

from repro.graphs.rmat import rmat_edges, rmat_graph


class TestRmatEdges:
    def test_shapes(self):
        src, dst = rmat_edges(scale=8, num_edges=1000, seed=1)
        assert len(src) == len(dst) == 1000

    def test_ids_in_range(self):
        src, dst = rmat_edges(scale=8, num_edges=5000, seed=2)
        assert src.min() >= 0 and src.max() < 256
        assert dst.min() >= 0 and dst.max() < 256

    def test_deterministic(self):
        a = rmat_edges(scale=8, num_edges=1000, seed=3)
        b = rmat_edges(scale=8, num_edges=1000, seed=3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_seed_changes_output(self):
        a = rmat_edges(scale=8, num_edges=1000, seed=3)
        b = rmat_edges(scale=8, num_edges=1000, seed=4)
        assert not np.array_equal(a[0], b[0])

    def test_ids_are_int64(self):
        src, dst = rmat_edges(scale=30, num_edges=100, seed=4)
        assert src.dtype == dst.dtype == np.int64
        assert src.max() < 1 << 30 and dst.max() < 1 << 30

    def test_skew_towards_low_ids(self):
        """graph500 parameters concentrate mass in the (0,0) quadrant."""
        src, dst = rmat_edges(scale=10, num_edges=50_000, seed=5)
        low_half = (src < 512).mean()
        assert low_half > 0.6  # a=0.57 + b=0.19 puts 76% in src's low half

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rmat_edges(scale=0, num_edges=10)
        with pytest.raises(ValueError):
            rmat_edges(scale=8, num_edges=0)
        with pytest.raises(ValueError):
            rmat_edges(scale=8, num_edges=10, a=0.5, b=0.5, c=0.5)
        # Sums below 1, but a negative quadrant skews the others.
        with pytest.raises(ValueError, match="non-negative"):
            rmat_edges(scale=8, num_edges=10, a=-0.2, b=0.6, c=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            rmat_edges(scale=8, num_edges=10, a=0.6, b=-0.1, c=0.2)
        with pytest.raises(ValueError, match="non-negative"):
            rmat_edges(scale=8, num_edges=10, a=0.6, b=0.2, c=-0.1)


class TestRmatGraph:
    def test_vertex_and_edge_counts(self):
        g = rmat_graph(scale=8, edge_factor=4, seed=6)
        assert g.num_vertices == 256
        assert g.num_edges == 1024

    def test_weights_in_graph500_range(self):
        g = rmat_graph(scale=8, edge_factor=4, seed=7)
        assert g.weight.min() >= 1
        assert g.weight.max() < 64

    def test_unweighted_option(self):
        g = rmat_graph(scale=8, edge_factor=4, seed=7, weighted=False)
        assert np.all(g.weight == 1.0)

    def test_degree_distribution_is_skewed(self):
        """RMAT produces hubs: the max degree far exceeds the average."""
        g = rmat_graph(scale=12, edge_factor=8, seed=8)
        degrees = g.out_degree()
        assert degrees.max() > 10 * g.avg_degree
