"""Chunked phase 1 against its unchunked reference, and its memory bound.

The emitters write each access once into columns allocated at their final
length, walking the edges in fixed chunks; the graph build gathers from
narrow ids in fixed chunks.  With the chunk sizes shrunk to a few units
every chunk boundary is crossed, and every trace column, final property,
iteration count and CF rmse must equal the unchunked reference
(:mod:`tests.accel.phase1_reference`).  The bench digests never cross a
default-size chunk, so they cannot catch a boundary bug.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import graphicionado as G
from repro.accel.algorithms import run_workload
from repro.accel.trace import interleave_chunks
from repro.accel.vertex_program import (
    BFSProgram,
    ConnectedComponentsProgram,
    PageRankProgram,
    SSSPProgram,
)
from repro.graphs import bipartite, csr, rmat
from repro.graphs.csr import CSRGraph
from tests.accel import phase1_reference as ref

PROGRAMS = {
    "bfs": BFSProgram,
    "sssp": lambda: SSSPProgram(max_iters=5),
    "pagerank": lambda: PageRankProgram(iterations=2),
    "cc": ConnectedComponentsProgram,
}


def assert_same_run(got, want):
    for column in ("streams", "offsets", "writes"):
        a = getattr(got.trace, column)
        b = getattr(want.trace, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
    assert got.prop.dtype == want.prop.dtype
    assert got.prop.tobytes() == want.prop.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.aux == want.aux


def star_graph() -> CSRGraph:
    """Vertex 0 holds more edges than a chunk; vertices 40..47 none."""
    src = np.concatenate([np.zeros(60, np.int64),
                          np.arange(1, 40, dtype=np.int64)])
    dst = np.concatenate([np.arange(60, dtype=np.int64) % 40,
                          np.arange(2, 41, dtype=np.int64) % 48])
    weight = np.arange(len(src), dtype=np.float64) % 7 + 1
    return CSRGraph.from_edges(src, dst, 48, weight=weight)


GRAPHS = {
    # R-MAT leaves many vertices without out-edges.
    "rmat": lambda: rmat.rmat_graph(7, 4, seed=5),
    "star": star_graph,
}


@pytest.fixture(params=[1, 3, 16], ids=lambda c: f"chunk{c}")
def small_chunks(request, monkeypatch):
    monkeypatch.setattr(G, "_EDGE_CHUNK", request.param)
    monkeypatch.setattr(csr, "_EDGE_CHUNK", request.param)
    return request.param


class TestVertexProgramsMatchReference:
    @pytest.mark.parametrize("num_pes", [1, 3, 8])
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_identical(self, small_chunks, name, graph_name, num_pes):
        graph = GRAPHS[graph_name]()
        source = int(np.argmax(graph.out_degree()))
        got = G.Graphicionado(num_pes).run_program(PROGRAMS[name](), graph,
                                                   source)
        want = ref.run_program(PROGRAMS[name](), graph, source, num_pes)
        assert len(got.trace) > 0
        assert_same_run(got, want)

    def test_source_without_edges(self, small_chunks):
        # The first iteration streams one header and no edge; the next
        # frontier is empty.
        graph = star_graph()
        got = G.Graphicionado().run_program(BFSProgram(), graph, 45)
        want = ref.run_program(BFSProgram(), graph, 45, G.DEFAULT_NUM_PES)
        assert got.iterations == 1 and len(got.trace) == 2
        assert_same_run(got, want)

    def test_empty_first_frontier(self, small_chunks):
        class Idle(BFSProgram):
            def initial_frontier(self, graph, source):
                return np.empty(0, dtype=np.int64)

        graph = star_graph()
        got = G.Graphicionado().run_program(Idle(), graph, 0)
        want = ref.run_program(Idle(), graph, 0, G.DEFAULT_NUM_PES)
        assert got.iterations == 0 and got.converged and len(got.trace) == 0
        assert_same_run(got, want)


class TestCFMatchesReference:
    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("num_pes", [1, 8])
    def test_bipartite(self, small_chunks, passes, num_pes):
        # One walk per pass: raters and items are disjoint.  Leaves are
        # at most 128 edges (numpy's unrolled block), so 500 edges cross
        # several.
        graph, shape = bipartite.bipartite_from_rmat(64, 16, 500, seed=3)
        got = G.Graphicionado(num_pes).run_cf(graph, shape.num_users,
                                              passes=passes)
        want = ref.run_cf(graph, shape.num_users, num_pes=num_pes,
                          passes=passes)
        assert_same_run(got, want)

    def test_rows_on_both_sides(self, small_chunks):
        # Two walks per pass: every user-side addition, then every
        # item-side one.
        graph = rmat.rmat_graph(7, 4, seed=5)
        got = G.Graphicionado().run_cf(graph, 64, passes=2,
                                       learning_rate=0.05)
        want = ref.run_cf(graph, 64, num_pes=G.DEFAULT_NUM_PES, passes=2,
                          learning_rate=0.05)
        assert_same_run(got, want)

    @pytest.mark.parametrize("limit", [1 << 10, 1 << 16])
    def test_default_size_leaves(self, monkeypatch, limit):
        # Edge counts past one leaf at chunk sizes above numpy's block.
        monkeypatch.setattr(G, "_EDGE_CHUNK", limit)
        graph, shape = bipartite.bipartite_from_rmat(1 << 12, 1 << 8,
                                                     5 << 15, seed=7)
        got = G.Graphicionado().run_cf(graph, shape.num_users)
        want = ref.run_cf(graph, shape.num_users, num_pes=G.DEFAULT_NUM_PES)
        assert_same_run(got, want)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=12), st.data())
def test_interleaved_range_is_a_slice_of_interleave_chunks(n, lanes, data):
    lo = data.draw(st.integers(min_value=0, max_value=n))
    hi = data.draw(st.integers(min_value=lo, max_value=n))
    want = interleave_chunks(np.arange(n, dtype=np.int64), lanes)[lo:hi]
    assert G._interleaved_range(n, lanes, lo, hi).tolist() == want.tolist()


@pytest.mark.parametrize("n", [1, 7, 128, 129, 1000, 5003, 70_000])
@pytest.mark.parametrize("chunk", [1, 200, 1 << 16])
def test_pairwise_leaves_fold_to_numpys_sum(n, chunk):
    values = np.random.default_rng(n).standard_normal(n) ** 2 * 1e3
    leaves = list(G._pairwise_leaves(0, n, chunk))
    assert leaves[0][0] == 0 and leaves[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
    sums = iter([np.add.reduce(values[lo:hi]) for lo, hi in leaves])
    assert G._pairwise_total(n, sums, chunk) == np.add.reduce(values)


class TestGraphBuildMatchesReference:
    @staticmethod
    def assert_same_graph(got, want):
        assert got.num_vertices == want.num_vertices
        for name in ("offsets", "dst", "weight"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("weighted", [True, False])
    def test_rmat_graph(self, small_chunks, weighted):
        self.assert_same_graph(
            rmat.rmat_graph(6, 5, seed=2, weighted=weighted),
            ref.rmat_graph(6, 5, 2, weighted=weighted))

    def test_bipartite(self, small_chunks):
        got, shape = bipartite.bipartite_from_rmat(50, 12, 400, seed=4)
        want, want_shape = ref.bipartite_from_rmat(50, 12, 400, 4)
        assert shape == want_shape
        self.assert_same_graph(got, want)

    def test_rmat_edges_keep_int64(self, small_chunks):
        got = rmat.rmat_edges(9, 700, seed=8)
        want = ref.rmat_edges(9, 700, 8)
        for a, b in zip(got, want):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("id_type", [np.uint32, np.int64, np.int32])
    def test_from_edges_any_id_width(self, small_chunks, id_type):
        rng = np.random.default_rng(6)
        src = rng.integers(0, 30, 250)
        dst = rng.integers(0, 40, 250)
        weight = rng.integers(1, 9, 250).astype(np.uint8)
        got = CSRGraph.from_edges(src.astype(id_type), dst.astype(id_type),
                                  40, weight=weight)
        self.assert_same_graph(
            got, ref.from_edges(src, dst, 40, weight=weight.astype(float)))

    def test_uniform_ints_are_one_draw(self, small_chunks):
        want = np.random.default_rng(9).integers(1, 64, 1000)
        got = rmat.uniform_ints(1, 64, 1000, 9)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


# -- memory guard -------------------------------------------------------------

#: Chunk size for the guard, and what one chunk's temporaries may add:
#: a few dozen int64/float64 arrays of one chunk.
GUARD_CHUNK = 1 << 12
CHUNK_ALLOWANCE = 32 * 8 * GUARD_CHUNK


def traced_peak(fn):
    """(result, bytes kept, peak bytes) of ``fn()`` above what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - base, peak - base


@pytest.fixture
def guard_chunks(monkeypatch):
    monkeypatch.setattr(G, "_EDGE_CHUNK", GUARD_CHUNK)
    monkeypatch.setattr(csr, "_EDGE_CHUNK", GUARD_CHUNK)


class TestMemoryGuard:
    """Phase 1 peaks at what it keeps plus one chunk's temporaries.

    The unchunked forms held the per-phase parts, their concatenation
    and several whole-edge-set temporaries at once: about three times
    the trace.
    """

    @pytest.mark.parametrize("name", ["bfs", "pagerank", "sssp", "cc", "cf"])
    def test_run_workload(self, guard_chunks, name):
        if name == "cf":
            graph, shape = bipartite.bipartite_from_rmat(1 << 11, 1 << 7,
                                                         1 << 18, seed=1)
        else:
            graph, shape = rmat.rmat_graph(13, 32, seed=1), None
        result, _, peak = traced_peak(
            lambda: run_workload(name, graph, shape=shape))
        trace = result.trace
        trace_bytes = (trace.streams.nbytes + trace.offsets.nbytes
                       + trace.writes.nbytes)
        assert trace_bytes > 4 * CHUNK_ALLOWANCE
        if name == "cf":
            # The latent vectors and their updated copy, one 4-byte rater
            # id per rating edge, and a chunk's latent rows: both sides'
            # gathers and the update's temporaries.
            features = result.prop.shape[1]
            rows = GUARD_CHUNK // features * features
            state = (4 * result.prop.nbytes + 4 * graph.num_edges
                     + 6 * result.prop.itemsize * rows)
        else:
            # A dozen or so per-vertex arrays (properties, reduce target,
            # presence table, work-list bounds) and each iteration's
            # work list.
            state = 8 * graph.num_vertices * (16 + result.iterations)
        assert peak <= trace_bytes + state + CHUNK_ALLOWANCE

    def test_from_edges(self, guard_chunks):
        src, dst = rmat.rmat_ids(13, 32 << 13, seed=2)
        weight = rmat.uniform_ints(1, 64, len(src), 3)
        graph, kept, peak = traced_peak(
            lambda: CSRGraph.from_edges(src, dst, 1 << 13, weight=weight))
        assert kept >= graph.dst.nbytes + graph.weight.nbytes
        # bincount's intp copy of the uint32 ids comes and goes before
        # the key is allocated.
        assert peak <= kept + CHUNK_ALLOWANCE

    def test_rmat_graph(self, guard_chunks):
        graph, kept, peak = traced_peak(
            lambda: rmat.rmat_graph(13, 32, seed=2))
        # Besides what it keeps: two uint32 ids and a uint8 weight per
        # edge, held while the build runs.
        assert peak <= kept + 9 * graph.num_edges + CHUNK_ALLOWANCE
