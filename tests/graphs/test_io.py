"""Graph file I/O (repro.graphs.io)."""

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.graphs.io import (
    load_csr,
    load_edge_list,
    load_matrix_market,
    save_csr,
)
from repro.graphs.rmat import rmat_graph


class TestEdgeList:
    def test_basic(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n0 1\n1 2\n2 0\n")
        graph = load_edge_list(path)
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert list(graph.neighbors(0)) == [1]

    def test_weighted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2.5\n1 0 1.5\n")
        graph = load_edge_list(path, weighted=True)
        assert graph.weight[graph.edge_slice(0)][0] == 2.5

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        graph = load_edge_list(path, num_vertices=10)
        assert graph.num_vertices == 10

    def test_missing_weight_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            load_edge_list(path, weighted=True)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            load_edge_list(path)


class TestMatrixMarket:
    def test_general_pattern(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% comment\n"
            "3 3 2\n"
            "1 2\n"
            "2 3\n"
        )
        graph = load_matrix_market(path)
        assert graph.num_vertices == 3
        assert graph.num_edges == 2
        assert list(graph.neighbors(0)) == [1]  # 1-based -> 0-based

    def test_symmetric_doubles_edges(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n"
            "1 2 5.0\n"
        )
        graph = load_matrix_market(path)
        assert graph.num_edges == 2
        assert list(graph.neighbors(1)) == [0]

    def test_symmetric_diagonal_not_doubled(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n"
            "1 1 5.0\n"
        )
        assert load_matrix_market(path).num_edges == 1

    def test_non_mm_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            load_matrix_market(path)

    def test_dense_format_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n")
        with pytest.raises(ValueError):
            load_matrix_market(path)


class TestCSRSerialization:
    def test_roundtrip(self, tmp_path):
        graph = rmat_graph(scale=8, edge_factor=4, seed=60)
        path = tmp_path / "g.npz"
        save_csr(graph, path)
        loaded = load_csr(path)
        assert loaded.num_vertices == graph.num_vertices
        assert np.array_equal(loaded.offsets, graph.offsets)
        assert np.array_equal(loaded.dst, graph.dst)
        assert np.array_equal(loaded.weight, graph.weight)

    def test_loaded_graph_runs_workloads(self, tmp_path):
        from repro.accel.algorithms import run_workload
        graph = rmat_graph(scale=7, edge_factor=4, seed=61)
        path = tmp_path / "g.npz"
        save_csr(graph, path)
        result = run_workload("bfs", load_csr(path))
        assert len(result.trace) > 0
