"""Functional Graphicionado model with trace generation.

Executes a vertex program (or CF's edge-centric SGD) over a CSR graph the
way Graphicionado's pipeline does — per active vertex: read the ancillary
offset entry and the source property, stream the vertex's edge records,
reduce updates into the destination-side temporary array; then an apply
phase folds temporaries into properties and emits the next active list.
Eight processing engines consume contiguous slices of the work list in
lockstep (modelled by round-robin interleaving, :func:`interleave_chunks`).

Every memory touch the pipeline would make is emitted into a
:class:`SymbolicTrace` with exact per-vertex interleaving:

``[offsets[u], vprop[u], edge e0, tmp[dst0] rd, tmp[dst0] wr, edge e1, ...]``

One deliberate simplification (documented in DESIGN.md): the active list is
assumed queued on-chip between phases (its writes are emitted, its reads
are not).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel import trace as T
from repro.accel.trace import SymbolicTrace, interleave_chunks
from repro.accel.vertex_program import VertexProgram
from repro.graphs.csr import CSRGraph

#: Paper configuration (Table 2): eight processing engines.
DEFAULT_NUM_PES = 8

#: Rating edges per gather when CF predicts ratings (bounds the temporary
#: copies of the latent-vector rows).
_CF_ROW_CHUNK = 1 << 16


def sorted_unique(ids: np.ndarray, bound: int) -> np.ndarray:
    """``np.unique(ids)`` for ids in ``0..bound-1``, from a presence table."""
    seen = np.zeros(bound, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


@dataclass
class ExecutionResult:
    """Outcome of one accelerator run."""

    trace: SymbolicTrace
    prop: np.ndarray          # final vertex properties (CF: user|item vectors)
    iterations: int
    converged: bool
    aux: dict = field(default_factory=dict)


class Graphicionado:
    """The accelerator model: functional execution + trace emission."""

    def __init__(self, num_pes: int = DEFAULT_NUM_PES):
        if num_pes <= 0:
            raise ValueError(f"need at least one processing engine: {num_pes}")
        self.num_pes = num_pes

    # -- vertex programs -----------------------------------------------------

    def run_program(self, program: VertexProgram, graph: CSRGraph,
                    source: int = 0) -> ExecutionResult:
        """Run a vertex program to convergence or its iteration cap."""
        if not 0 <= source < graph.num_vertices:
            raise ValueError(f"source {source} out of range")
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
            ordered = interleave_chunks(frontier, self.num_pes)
            counts = (offsets[ordered + 1] - offsets[ordered])
            total_edges = int(counts.sum())
            edge_idx, src_per_edge = self._expand(ordered, counts,
                                                  offsets, total_edges)
            dsts = graph.dst[edge_idx]
            updates = program.propagate(prop[src_per_edge],
                                        graph.weight[edge_idx],
                                        graph, src_per_edge)
            tmp = np.full(graph.num_vertices, program.reduce_identity())
            program.reduce_ufunc.at(tmp, dsts, updates)
            new_prop = program.apply(prop, tmp)
            changed = new_prop != prop
            parts.append(self._stream_phase(ordered, counts, edge_idx, dsts,
                                            program.prop_bytes))
            if program.all_active:
                touched = np.arange(graph.num_vertices, dtype=np.int64)
                next_frontier = touched
                # PageRank-style programs keep no active list in memory.
                frontier_writes = 0
            else:
                touched = sorted_unique(dsts, graph.num_vertices)
                next_frontier = np.nonzero(changed)[0].astype(np.int64)
                frontier_writes = len(next_frontier)
            parts.append(self._apply_phase(touched, frontier_writes,
                                           program.prop_bytes))
            prop = new_prop
            frontier = next_frontier
            iterations += 1
        else:
            converged = program.all_active or len(frontier) == 0
        return ExecutionResult(trace=SymbolicTrace.concat(parts), prop=prop,
                               iterations=iterations, converged=converged)

    # -- collaborative filtering ----------------------------------------------

    def run_cf(self, graph: CSRGraph, num_users: int, *, features: int = 8,
               learning_rate: float = 0.002, regularization: float = 0.02,
               passes: int = 1, seed: int = 0) -> ExecutionResult:
        """One or more SGD passes of latent-factor collaborative filtering.

        Per rating edge the pipeline reads the edge record and both latent
        vectors, then writes both back (5 accesses; Section 6.2's CF).  The
        functional update is a vectorised batch SGD step — deterministic,
        with colliding updates accumulated, which preserves the access
        pattern exactly.
        """
        if not 0 < num_users < graph.num_vertices:
            raise ValueError("num_users must split the vertex range")
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((graph.num_vertices, features)) * 0.1
        src_all = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                            np.diff(graph.offsets))
        parts: list[SymbolicTrace] = []
        errors: list[float] = []
        num_edges = graph.num_edges
        for _ in range(passes):
            order = interleave_chunks(np.arange(num_edges, dtype=np.int64),
                                      self.num_pes)
            users = src_all[order]
            items = graph.dst[order]
            ratings = graph.weight[order]
            predicted = np.empty(num_edges)
            for lo in range(0, num_edges, _CF_ROW_CHUNK):
                hi = lo + _CF_ROW_CHUNK
                predicted[lo:hi] = np.einsum("ij,ij->i", vectors[users[lo:hi]],
                                             vectors[items[lo:hi]])
            err = ratings - predicted
            # One feature column at a time: columns are independent, so
            # every element receives the same additions in the same order
            # as one 2-D scatter of all users' rows, then all items' rows.
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
            parts.append(self._cf_phase(order, users, items))
        return ExecutionResult(trace=SymbolicTrace.concat(parts),
                               prop=vectors, iterations=passes,
                               converged=True, aux={"rmse": errors})

    # -- trace assembly ----------------------------------------------------------

    @staticmethod
    def _expand(ordered: np.ndarray, counts: np.ndarray, offsets: np.ndarray,
                total_edges: int) -> tuple[np.ndarray, np.ndarray]:
        """Edge indices (grouped per vertex, in work-list order) and sources."""
        if total_edges == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        cum_before = np.zeros(len(ordered), dtype=np.int64)
        np.cumsum(counts[:-1], out=cum_before[1:])
        within = np.arange(total_edges, dtype=np.int64) - np.repeat(cum_before,
                                                                    counts)
        edge_idx = np.repeat(offsets[ordered], counts) + within
        src_per_edge = np.repeat(ordered, counts)
        return edge_idx, src_per_edge

    @staticmethod
    def _stream_phase(ordered: np.ndarray, counts: np.ndarray,
                      edge_idx: np.ndarray, dsts: np.ndarray,
                      prop_bytes: int) -> SymbolicTrace:
        """Per-vertex interleaved stream-phase accesses.

        Per active vertex: its offset entry and source property; per edge:
        the edge record, then the destination-side reduce as a
        read-modify-write pair on the temporary property.
        """
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
            within = np.arange(e, dtype=np.int64) - np.repeat(cum_before,
                                                              counts)
            epos = np.repeat(starts + 2, counts) + 3 * within
            sid[epos] = T.EDGES
            off[epos] = edge_idx * T.EDGE_RECORD_BYTES
            sid[epos + 1] = T.VPROP_TMP
            off[epos + 1] = dsts * T.PROP_BYTES
            sid[epos + 2] = T.VPROP_TMP
            off[epos + 2] = dsts * T.PROP_BYTES
            wr[epos + 2] = 1
        return SymbolicTrace(streams=sid, offsets=off, writes=wr)

    @staticmethod
    def _apply_phase(touched: np.ndarray, next_frontier_len: int,
                     prop_bytes: int) -> SymbolicTrace:
        """Apply-phase accesses: tmp read + prop write per touched vertex,
        then sequential next-frontier writes."""
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

    @staticmethod
    def _cf_phase(order: np.ndarray, users: np.ndarray,
                  items: np.ndarray) -> SymbolicTrace:
        """Five interleaved accesses per rating edge (CF's prop_bytes=64)."""
        e = len(order)
        total = 5 * e
        sid = np.empty(total, dtype=np.int8)
        off = np.empty(total, dtype=np.int64)
        wr = np.zeros(total, dtype=np.int8)
        prop_bytes = 64
        sid[0::5] = T.EDGES
        off[0::5] = order * T.EDGE_RECORD_BYTES
        sid[1::5] = T.VPROP
        off[1::5] = users * prop_bytes
        sid[2::5] = T.VPROP
        off[2::5] = items * prop_bytes
        sid[3::5] = T.VPROP
        off[3::5] = users * prop_bytes
        wr[3::5] = 1
        sid[4::5] = T.VPROP
        off[4::5] = items * prop_bytes
        wr[4::5] = 1
        return SymbolicTrace(streams=sid, offsets=off, writes=wr)
