"""The unchunked phase-1 forms the chunked build and emitters must equal.

Kept only as test references: per-phase trace parts joined by one
concatenation, whole-edge-set temporaries, and the graph build on int64
ids.  ``tests/accel/test_chunked_phase1.py`` diffs the library against
them with the chunk sizes shrunk, so every chunk boundary is crossed.
"""

from __future__ import annotations

import numpy as np

from repro.accel import trace as T
from repro.accel.graphicionado import ExecutionResult
from repro.accel.trace import SymbolicTrace, interleave_chunks
from repro.graphs.bipartite import BipartiteShape
from repro.graphs.csr import CSRGraph


def concat(parts: list[SymbolicTrace]) -> SymbolicTrace:
    """Concatenate trace segments in order."""
    if not parts:
        return SymbolicTrace(np.empty(0, np.int8), np.empty(0, np.int64),
                             np.empty(0, np.int8))
    return SymbolicTrace(
        streams=np.concatenate([p.streams for p in parts]),
        offsets=np.concatenate([p.offsets for p in parts]),
        writes=np.concatenate([p.writes for p in parts]),
    )


def run_program(program, graph: CSRGraph, source: int,
                num_pes: int) -> ExecutionResult:
    """Whole-frontier iterations, one trace part per phase."""
    prop = program.initial(graph, source)
    frontier = program.initial_frontier(graph, source)
    offsets = graph.offsets
    parts: list[SymbolicTrace] = []
    iterations = 0
    converged = False
    while iterations < program.max_iters:
        if len(frontier) == 0:
            converged = True
            break
        ordered = interleave_chunks(frontier, num_pes)
        counts = offsets[ordered + 1] - offsets[ordered]
        edge_idx, src_per_edge = _expand(ordered, counts, offsets,
                                         int(counts.sum()))
        dsts = graph.dst[edge_idx]
        updates = program.propagate(prop[src_per_edge],
                                    graph.weight[edge_idx], graph,
                                    src_per_edge)
        tmp = np.full(graph.num_vertices, program.reduce_identity())
        program.reduce_ufunc.at(tmp, dsts, updates)
        new_prop = program.apply(prop, tmp)
        parts.append(_stream_phase(ordered, counts, edge_idx, dsts,
                                   program.prop_bytes))
        if program.all_active:
            touched = np.arange(graph.num_vertices, dtype=np.int64)
            next_frontier = touched
            frontier_writes = 0
        else:
            touched = np.unique(dsts)
            next_frontier = np.nonzero(new_prop != prop)[0].astype(np.int64)
            frontier_writes = len(next_frontier)
        parts.append(_apply_phase(touched, frontier_writes,
                                  program.prop_bytes))
        prop = new_prop
        frontier = next_frontier
        iterations += 1
    else:
        converged = program.all_active or len(frontier) == 0
    return ExecutionResult(trace=concat(parts), prop=prop,
                           iterations=iterations, converged=converged)


def run_cf(graph: CSRGraph, num_users: int, *, num_pes: int,
           features: int = 8, learning_rate: float = 0.002,
           regularization: float = 0.02, passes: int = 1,
           seed: int = 0) -> ExecutionResult:
    """Whole-edge-set SGD passes, one trace part per pass."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((graph.num_vertices, features)) * 0.1
    src_all = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                        np.diff(graph.offsets))
    parts: list[SymbolicTrace] = []
    errors: list[float] = []
    for _ in range(passes):
        order = interleave_chunks(np.arange(graph.num_edges, dtype=np.int64),
                                  num_pes)
        users = src_all[order]
        items = graph.dst[order]
        err = graph.weight[order] - np.einsum("ij,ij->i", vectors[users],
                                              vectors[items])
        for k in range(features):
            column = vectors[:, k].copy()
            vu = column[users]
            vi = column[items]
            du = learning_rate * (err * vi - regularization * vu)
            di = learning_rate * (err * vu - regularization * vi)
            np.add.at(column, users, du)
            np.add.at(column, items, di)
            vectors[:, k] = column
        errors.append(float(np.sqrt(np.mean(err ** 2))))
        parts.append(_cf_phase(order, users, items))
    return ExecutionResult(trace=concat(parts), prop=vectors,
                           iterations=passes, converged=True,
                           aux={"rmse": errors})


def _expand(ordered, counts, offsets, total_edges):
    if total_edges == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    cum_before = np.zeros(len(ordered), dtype=np.int64)
    np.cumsum(counts[:-1], out=cum_before[1:])
    within = np.arange(total_edges, dtype=np.int64) - np.repeat(cum_before,
                                                                counts)
    return (np.repeat(offsets[ordered], counts) + within,
            np.repeat(ordered, counts))


def _stream_phase(ordered, counts, edge_idx, dsts, prop_bytes):
    f = len(ordered)
    e = len(edge_idx)
    total = 2 * f + 3 * e
    sid = np.empty(total, dtype=np.int8)
    off = np.empty(total, dtype=np.int64)
    wr = np.zeros(total, dtype=np.int8)
    cum_before = np.zeros(f, dtype=np.int64)
    np.cumsum(counts[:-1], out=cum_before[1:])
    starts = 2 * np.arange(f, dtype=np.int64) + 3 * cum_before
    sid[starts] = T.OFFSETS
    off[starts] = ordered * T.OFFSET_BYTES
    sid[starts + 1] = T.VPROP
    off[starts + 1] = ordered * prop_bytes
    if e:
        within = np.arange(e, dtype=np.int64) - np.repeat(cum_before, counts)
        epos = np.repeat(starts + 2, counts) + 3 * within
        sid[epos] = T.EDGES
        off[epos] = edge_idx * T.EDGE_RECORD_BYTES
        sid[epos + 1] = T.VPROP_TMP
        off[epos + 1] = dsts * T.PROP_BYTES
        sid[epos + 2] = T.VPROP_TMP
        off[epos + 2] = dsts * T.PROP_BYTES
        wr[epos + 2] = 1
    return SymbolicTrace(streams=sid, offsets=off, writes=wr)


def _apply_phase(touched, next_frontier_len, prop_bytes):
    t = len(touched)
    total = 2 * t + next_frontier_len
    sid = np.empty(total, dtype=np.int8)
    off = np.empty(total, dtype=np.int64)
    wr = np.zeros(total, dtype=np.int8)
    pos = 2 * np.arange(t, dtype=np.int64)
    sid[pos] = T.VPROP_TMP
    off[pos] = touched * T.PROP_BYTES
    sid[pos + 1] = T.VPROP
    off[pos + 1] = touched * prop_bytes
    wr[pos + 1] = 1
    if next_frontier_len:
        tail = slice(2 * t, total)
        sid[tail] = T.FRONTIER
        off[tail] = (np.arange(next_frontier_len, dtype=np.int64)
                     * T.FRONTIER_BYTES)
        wr[tail] = 1
    return SymbolicTrace(streams=sid, offsets=off, writes=wr)


def _cf_phase(order, users, items):
    total = 5 * len(order)
    sid = np.empty(total, dtype=np.int8)
    off = np.empty(total, dtype=np.int64)
    wr = np.zeros(total, dtype=np.int8)
    sid[0::5] = T.EDGES
    off[0::5] = order * T.EDGE_RECORD_BYTES
    for lane, ids, write in ((1, users, 0), (2, items, 0), (3, users, 1),
                             (4, items, 1)):
        sid[lane::5] = T.VPROP
        off[lane::5] = ids * 64
        wr[lane::5] = write
    return SymbolicTrace(streams=sid, offsets=off, writes=wr)


# -- graph build on int64 ids -------------------------------------------------

def from_edges(src, dst, num_vertices: int, weight=None) -> CSRGraph:
    """Stable sort by source through int64 (src, edge index) keys."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = (np.ones(len(src)) if weight is None
              else np.asarray(weight, dtype=np.float64))
    edge_bits = max(len(src) - 1, 0).bit_length()
    key = src << edge_bits
    key |= np.arange(len(src), dtype=np.int64)
    key.sort()
    order = key & ((1 << edge_bits) - 1)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
    return CSRGraph(num_vertices=num_vertices, offsets=offsets,
                    dst=dst[order], weight=weight[order])


def rmat_edges(scale: int, num_edges: int, seed: int):
    """graph500 R-MAT, one whole-array draw per bit, as int64."""
    a, b, c = 0.57, 0.19, 0.19
    rng = np.random.default_rng(seed)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for bit in range(scale):
        u = rng.random(num_edges)
        src |= (u >= a + b).astype(np.int64) << bit
        dst |= (((u >= a) & (u < a + b)) | (u >= a + b + c)).astype(
            np.int64) << bit
    return src, dst


def rmat_graph(scale: int, edge_factor: int, seed: int,
               weighted: bool = True) -> CSRGraph:
    num_edges = edge_factor << scale
    src, dst = rmat_edges(scale, num_edges, seed)
    weight = None
    if weighted:
        rng = np.random.default_rng(seed + 1)
        weight = rng.integers(1, 64, num_edges).astype(np.float64)
    return from_edges(src, dst, 1 << scale, weight=weight)


def bipartite_from_rmat(num_users: int, num_items: int, num_edges: int,
                        seed: int):
    scale = max(int(np.ceil(np.log2(max(num_users, num_items)))), 1)
    src, dst = rmat_edges(scale, num_edges, seed)
    rng = np.random.default_rng(seed + 2)
    ratings = rng.integers(1, 6, num_edges).astype(np.float64)
    shape = BipartiteShape(num_users=num_users, num_items=num_items)
    graph = from_edges(src % num_users, num_users + dst % num_items,
                       shape.num_vertices, weight=ratings)
    return graph, shape
