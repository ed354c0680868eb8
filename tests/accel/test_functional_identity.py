"""Bit identity of the functional phase against its reference forms.

The CF update must equal the 2-D scatter it replaced, and the apply
phase's touched set must equal ``np.unique``.  ``test_bench_digests.py``
pins the end-to-end outputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.graphicionado import (
    DEFAULT_NUM_PES,
    Graphicionado,
    sorted_unique,
)
from repro.accel.trace import interleave_chunks
from repro.graphs.bipartite import bipartite_from_rmat
from repro.graphs.rmat import rmat_graph


def reference_cf(graph, num_users, *, features=8, learning_rate=0.002,
                 regularization=0.02, passes=1, seed=0):
    """The CF step as one 2-D scatter per side (vectors, rmse per pass)."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((graph.num_vertices, features)) * 0.1
    src_all = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                        np.diff(graph.offsets))
    errors = []
    for _ in range(passes):
        order = interleave_chunks(np.arange(graph.num_edges, dtype=np.int64),
                                  DEFAULT_NUM_PES)
        users = src_all[order]
        items = graph.dst[order]
        ratings = graph.weight[order]
        predicted = np.einsum("ij,ij->i", vectors[users], vectors[items])
        err = ratings - predicted
        du = learning_rate * (err[:, None] * vectors[items]
                              - regularization * vectors[users])
        di = learning_rate * (err[:, None] * vectors[users]
                              - regularization * vectors[items])
        np.add.at(vectors, users, du)
        np.add.at(vectors, items, di)
        errors.append(float(np.sqrt(np.mean(err ** 2))))
    return vectors, errors


class TestCFMatchesTwoDimensionalScatter:
    @pytest.mark.parametrize("passes", [1, 3])
    def test_bipartite(self, passes):
        # More rating edges than one prediction chunk.
        graph, shape = bipartite_from_rmat(1 << 12, 1 << 8, 24 << 12, seed=15)
        result = Graphicionado().run_cf(graph, shape.num_users,
                                        passes=passes)
        vectors, errors = reference_cf(graph, shape.num_users, passes=passes)
        assert result.prop.tobytes() == vectors.tobytes()
        assert result.aux["rmse"] == errors

    def test_rows_on_both_sides(self):
        """Vertices that are both users and items still see every
        addition in the same order."""
        graph = rmat_graph(9, 8, seed=3)
        result = Graphicionado().run_cf(graph, graph.num_vertices // 2,
                                        passes=2, learning_rate=0.01)
        vectors, errors = reference_cf(graph, graph.num_vertices // 2,
                                       passes=2, learning_rate=0.01)
        assert result.prop.tobytes() == vectors.tobytes()
        assert result.aux["rmse"] == errors


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=64).flatmap(
    lambda bound: st.tuples(
        st.just(bound),
        st.lists(st.integers(min_value=0, max_value=bound - 1),
                 max_size=200))))
def test_sorted_unique_matches_np_unique(case):
    bound, ids = case
    ids = np.asarray(ids, dtype=np.int64)
    got = sorted_unique(ids, bound)
    want = np.unique(ids)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
