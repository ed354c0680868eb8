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

A run takes two passes (DESIGN.md §5.1).  The functional pass executes
every iteration, keeping per iteration only its work list and the sizes
of its phases; the emission pass then allocates the trace's three
columns once, at their final length, and writes every access into place.
Both passes walk the edges in chunks of at most :data:`_EDGE_CHUNK` work
units, so no temporary grows with the edge count.

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

#: Work units per step of a chunked pass: an active vertex's header and
#: each of its edges are one unit each, and a CF rating edge is one per
#: latent feature (its two gathered rows hold that many values each).
#: Bounds every per-edge temporary of a run.
_EDGE_CHUNK = 1 << 16

#: numpy's pairwise summation adds up to this many elements in one
#: unrolled loop and halves longer runs at a multiple of 8.
_PAIRWISE_BLOCK = 128

#: CF's per-vertex property: an 8-float latent-feature vector.
_CF_PROP_BYTES = 64


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


@dataclass
class _Iteration:
    """What the emission pass needs of one functional iteration."""

    ordered: np.ndarray      # work list, in processing-engine order
    num_edges: int           # edges the stream phase reads
    touched: np.ndarray | None  # vertices the apply phase folds (None: all)
    frontier_writes: int     # next active-list entries written

    def length(self, num_vertices: int) -> int:
        """Accesses the iteration emits."""
        touched = num_vertices if self.touched is None else len(self.touched)
        return (2 * len(self.ordered) + 3 * self.num_edges + 2 * touched
                + self.frontier_writes)


class _WorkList:
    """An iteration's work list as a sequence of work units.

    Active vertex ``i`` (``ordered[i]``) owns ``1 + counts[i]`` consecutive
    units: its header (offset entry and source property), then one per
    edge.  Unit ``q`` of vertex ``i`` starts at stream-phase position
    ``3*q - i`` when it is the header and ``3*q - i - 1`` when it is an
    edge: every header before it takes two accesses, every edge three.
    """

    def __init__(self, ordered: np.ndarray, offsets: np.ndarray):
        self.ordered = ordered
        self.starts = offsets[ordered]
        counts = offsets[ordered + 1] - self.starts
        self.num_edges = int(counts.sum())
        # bounds[i] is vertex i's first unit; bounds[-1] the unit count.
        self.bounds = np.zeros(len(ordered) + 1, dtype=np.int64)
        counts += 1
        np.cumsum(counts, out=self.bounds[1:])
        self.num_units = int(self.bounds[-1])

    def chunks(self):
        """Per chunk of at most ``_EDGE_CHUNK`` units: the first unit, and
        per unit its vertex's work-list index and its index within the
        vertex (0 for the header)."""
        bounds = self.bounds
        for lo in range(0, self.num_units, _EDGE_CHUNK):
            hi = min(lo + _EDGE_CHUNK, self.num_units)
            first = int(np.searchsorted(bounds, lo, side="right")) - 1
            last = int(np.searchsorted(bounds, hi - 1, side="right")) - 1
            span = np.diff(np.clip(bounds[first:last + 2], lo, hi))
            vertex = np.repeat(np.arange(first, last + 1, dtype=np.int64),
                               span)
            within = np.arange(lo, hi, dtype=np.int64) - bounds[vertex]
            yield lo, vertex, within

    def edges(self, vertex: np.ndarray, within: np.ndarray,
              is_edge: np.ndarray):
        """Source ids and edge indices of a chunk's edge units."""
        owner = vertex[is_edge]
        return (self.ordered[owner],
                self.starts[owner] + (within[is_edge] - 1))


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
        done: list[_Iteration] = []
        converged = False
        while len(done) < program.max_iters:
            if len(frontier) == 0:
                converged = True
                break
            ordered = interleave_chunks(frontier, self.num_pes)
            work = _WorkList(ordered, graph.offsets)
            tmp = np.full(graph.num_vertices, program.reduce_identity())
            seen = (None if program.all_active
                    else np.zeros(graph.num_vertices, dtype=bool))
            # In-order chunked ``ufunc.at`` calls apply exactly the
            # updates of one call over the whole edge list, in order.
            for _, vertex, within in work.chunks():
                src_ids, edge_idx = work.edges(vertex, within, within > 0)
                dsts = graph.dst[edge_idx]
                updates = program.propagate(prop[src_ids],
                                            graph.weight[edge_idx],
                                            graph, src_ids)
                program.reduce_ufunc.at(tmp, dsts, updates)
                if seen is not None:
                    seen[dsts] = True
            new_prop = program.apply(prop, tmp)
            if program.all_active:
                touched = None
                next_frontier = np.arange(graph.num_vertices, dtype=np.int64)
                # PageRank-style programs keep no active list in memory.
                frontier_writes = 0
            else:
                touched = np.flatnonzero(seen)
                next_frontier = np.flatnonzero(new_prop != prop)
                frontier_writes = len(next_frontier)
            done.append(_Iteration(ordered, work.num_edges, touched,
                                   frontier_writes))
            prop = new_prop
            frontier = next_frontier
        else:
            converged = program.all_active or len(frontier) == 0
        trace = _empty_trace(sum(it.length(graph.num_vertices)
                                 for it in done))
        pos = 0
        for it in done:
            pos = self._stream_phase(trace, pos, _WorkList(it.ordered,
                                                           graph.offsets),
                                     graph, program.prop_bytes)
            touched = (np.arange(graph.num_vertices, dtype=np.int64)
                       if it.touched is None else it.touched)
            pos = self._apply_phase(trace, pos, touched, it.frontier_writes,
                                    program.prop_bytes)
        return ExecutionResult(trace=trace, prop=prop, iterations=len(done),
                               converged=converged)

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

        A pass walks its edges in chunks (DESIGN.md §5.1 rules (b) and
        (c)), reading the pass's starting vectors throughout.  The first
        walk emits the trace and applies every user-side update, a second
        every item-side one, so each element receives the additions of
        one 2-D scatter over all users' rows and then all items' rows, in
        the same order.  When every rater precedes every rated item the
        two sides touch disjoint rows and the first walk applies both.
        The chunks are nodes of numpy's pairwise-sum tree over the pass's
        squared errors, so folding their sums as that tree does gives
        ``np.mean(err ** 2)`` bit for bit.
        """
        if not 0 < num_users < graph.num_vertices:
            raise ValueError("num_users must split the vertex range")
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((graph.num_vertices, features)) * 0.1
        id_type = (np.int32 if graph.num_vertices <= np.iinfo(np.int32).max
                   else np.int64)
        sources = np.repeat(np.arange(graph.num_vertices, dtype=id_type),
                            np.diff(graph.offsets))
        num_edges = graph.num_edges
        raters_end = int(np.searchsorted(graph.offsets, num_edges))
        one_walk = num_edges == 0 or raters_end <= graph.dst.min()
        limit = max(_EDGE_CHUNK // features, 1)
        leaves = list(_pairwise_leaves(0, num_edges, limit))
        trace = _empty_trace(5 * num_edges * passes)
        errors: list[float] = []
        for p in range(passes):
            sgd = _SGDPass(graph, sources, vectors, self.num_pes,
                           learning_rate, regularization)
            base = 5 * num_edges * p
            self._cf_pattern(trace, base, num_edges)
            sums = [sgd.walk(lo, hi, items=one_walk, out=trace,
                             pos=base + 5 * lo) for lo, hi in leaves]
            if not one_walk:
                for lo, hi in leaves:
                    sgd.walk(lo, hi, users=False)
            mean = (_pairwise_total(num_edges, iter(sums), limit)
                    / num_edges if num_edges else np.nan)
            errors.append(float(np.sqrt(mean)))
            vectors = np.ascontiguousarray(sgd.updated.T)
        return ExecutionResult(trace=trace, prop=vectors, iterations=passes,
                               converged=True, aux={"rmse": errors})

    # -- trace assembly ----------------------------------------------------------

    @staticmethod
    def _stream_phase(out: SymbolicTrace, pos: int, work: _WorkList,
                      graph: CSRGraph, prop_bytes: int) -> int:
        """Write the per-vertex interleaved stream-phase accesses at ``pos``.

        Per active vertex: its offset entry and source property; per edge:
        the edge record, then the destination-side reduce as a
        read-modify-write pair on the temporary property.  Returns the
        position after the phase.
        """
        streams = out.streams[pos:]
        offsets = out.offsets[pos:]
        writes = out.writes[pos:]
        ordered = work.ordered
        for lo, vertex, within in work.chunks():
            is_edge = within > 0
            at = 3 * np.arange(lo, lo + len(vertex), dtype=np.int64) - vertex
            at -= is_edge
            head_at = at[~is_edge]
            heads = ordered[vertex[~is_edge]]
            streams[head_at] = T.OFFSETS
            offsets[head_at] = heads * T.OFFSET_BYTES
            head_at += 1
            streams[head_at] = T.VPROP
            offsets[head_at] = heads * prop_bytes
            _, edge_idx = work.edges(vertex, within, is_edge)
            edge_at = at[is_edge]
            streams[edge_at] = T.EDGES
            offsets[edge_at] = edge_idx * T.EDGE_RECORD_BYTES
            tmp_bytes = graph.dst[edge_idx] * T.PROP_BYTES
            edge_at += 1
            streams[edge_at] = T.VPROP_TMP
            offsets[edge_at] = tmp_bytes
            edge_at += 1
            streams[edge_at] = T.VPROP_TMP
            offsets[edge_at] = tmp_bytes
            writes[edge_at] = 1
        return pos + 2 * len(ordered) + 3 * work.num_edges

    @staticmethod
    def _apply_phase(out: SymbolicTrace, pos: int, touched: np.ndarray,
                     next_frontier_len: int, prop_bytes: int) -> int:
        """Write the apply-phase accesses at ``pos``: tmp read + prop write
        per touched vertex, then sequential next-frontier writes.  Returns
        the position after the phase."""
        end = pos + 2 * len(touched)
        out.streams[pos:end:2] = T.VPROP_TMP
        out.streams[pos + 1:end:2] = T.VPROP
        out.writes[pos + 1:end:2] = 1
        for lo in range(0, len(touched), _EDGE_CHUNK):
            ids = touched[lo:lo + _EDGE_CHUNK]
            at = pos + 2 * lo
            stop = at + 2 * len(ids)
            out.offsets[at:stop:2] = ids * T.PROP_BYTES
            out.offsets[at + 1:stop:2] = ids * prop_bytes
        tail = end + next_frontier_len
        out.streams[end:tail] = T.FRONTIER
        out.writes[end:tail] = 1
        for lo in range(0, next_frontier_len, _EDGE_CHUNK):
            hi = min(lo + _EDGE_CHUNK, next_frontier_len)
            out.offsets[end + lo:end + hi] = (
                np.arange(lo, hi, dtype=np.int64) * T.FRONTIER_BYTES)
        return tail

    @staticmethod
    def _cf_pattern(out: SymbolicTrace, pos: int, num_edges: int) -> None:
        """Stream ids and store flags of a CF pass's five accesses per
        rating edge: edge record, user and item reads, user and item
        writes."""
        section = slice(pos, pos + 5 * num_edges)
        streams = out.streams[section]
        streams[:] = T.VPROP
        streams[0::5] = T.EDGES
        writes = out.writes[section]
        writes[3::5] = 1
        writes[4::5] = 1


def _empty_trace(length: int) -> SymbolicTrace:
    """A trace of ``length`` accesses for the emission pass to fill."""
    return SymbolicTrace(streams=np.empty(length, dtype=np.int8),
                         offsets=np.empty(length, dtype=np.int64),
                         writes=np.zeros(length, dtype=np.int8))


class _SGDPass:
    """One CF pass: reads the pass's starting ``vectors`` and accumulates
    the updates into ``updated``, a feature-major copy of them."""

    def __init__(self, graph: CSRGraph, sources: np.ndarray,
                 vectors: np.ndarray, num_pes: int, learning_rate: float,
                 regularization: float):
        self.graph = graph
        self.sources = sources
        self.vectors = vectors
        self.num_pes = num_pes
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.updated = np.ascontiguousarray(vectors.T)

    def walk(self, lo: int, hi: int, *, users: bool = True,
             items: bool = True, out: SymbolicTrace | None = None,
             pos: int = 0) -> np.float64:
        """Scatter the user-side and/or item-side updates of rating edges
        ``lo..hi-1`` (in processing-engine order), one feature column at
        a time; write their five accesses each into ``out`` at ``pos``
        when given.  Returns the chunk's sum of squared errors."""
        graph = self.graph
        order = _interleaved_range(graph.num_edges, self.num_pes, lo, hi)
        user_ids = self.sources[order].astype(np.int64)
        item_ids = graph.dst[order]
        user_rows = self.vectors[user_ids]
        item_rows = self.vectors[item_ids]
        err = graph.weight[order] - np.einsum("ij,ij->i", user_rows,
                                              item_rows)
        if out is not None:
            offsets = out.offsets[pos:pos + 5 * len(order)]
            offsets[0::5] = order * T.EDGE_RECORD_BYTES
            user_bytes = user_ids * _CF_PROP_BYTES
            item_bytes = item_ids * _CF_PROP_BYTES
            offsets[1::5] = user_bytes
            offsets[2::5] = item_bytes
            offsets[3::5] = user_bytes
            offsets[4::5] = item_bytes
        sides = []
        if users:
            sides.append((user_ids, user_rows, item_rows))
        if items:
            sides.append((item_ids, item_rows, user_rows))
        for ids, own, other in sides:
            delta = self.learning_rate * (err[:, None] * other
                                          - self.regularization * own)
            for column, column_delta in zip(self.updated, delta.T):
                np.add.at(column, ids, column_delta)
        return np.add.reduce(np.square(err))


def _interleaved_range(n: int, lanes: int, lo: int, hi: int) -> np.ndarray:
    """``interleave_chunks(np.arange(n), lanes)[lo:hi]``, without the arange.

    Lane ``l`` holds ``l*per_lane`` onwards.  Merged row ``r`` reads
    ``l*per_lane + r`` from every lane still holding an element: the
    first ``rem`` rows read ``full + 1`` lanes, the others ``full``.
    """
    index = np.arange(lo, hi, dtype=np.int64)
    if lanes <= 1 or n <= lanes:
        return index
    per_lane = -(-n // lanes)
    full, rem = divmod(n, per_lane)
    wide = rem * (full + 1)
    out = np.empty_like(index)
    head = index < wide
    row, lane = np.divmod(index[head], full + 1)
    out[head] = lane * per_lane + row
    row, lane = np.divmod(index[~head] - wide, full)
    out[~head] = lane * per_lane + (row + rem)
    return out


def _pairwise_leaves(lo: int, n: int, limit: int):
    """In order, the nodes of numpy's pairwise-sum tree over ``n``
    elements from ``lo`` that hold at most ``limit`` elements (or one
    unrolled block), as ``(lo, hi)``."""
    if n <= max(limit, _PAIRWISE_BLOCK):
        if n:
            yield lo, lo + n
        return
    half = n // 2
    half -= half % 8
    yield from _pairwise_leaves(lo, half, limit)
    yield from _pairwise_leaves(lo + half, n - half, limit)


def _pairwise_total(n: int, sums, limit: int):
    """Fold the leaves' sums (an iterator, in order) as numpy's pairwise
    sum folds the two halves of each node."""
    if n <= max(limit, _PAIRWISE_BLOCK):
        return next(sums)
    half = n // 2
    half -= half % 8
    return (_pairwise_total(half, sums, limit)
            + _pairwise_total(n - half, sums, limit))
