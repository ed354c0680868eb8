"""Compressed sparse row (CSR) graph representation.

Graphicionado (paper Section 6.1) stores a graph as an edge list of
(srcid, dstid, weight) 3-tuples sorted by source, a vertex-property array,
and ancillary index arrays mapping each vertex to its slice of the edge
list.  The CSR form here is exactly that: ``offsets`` is the ancillary
index array, ``dst``/``weight`` the edge-list columns.

All arrays are numpy so algorithm simulation and trace generation stay
vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Edges per step of a chunked pass over an edge array.  Every temporary
#: of a graph build is bounded by it, whatever the edge count.
_EDGE_CHUNK = 1 << 18


def edge_chunks(num_edges: int):
    """``(lo, hi)`` bounds of the consecutive edge chunks of ``num_edges``."""
    step = _EDGE_CHUNK
    return ((lo, min(lo + step, num_edges))
            for lo in range(0, num_edges, step))


def _id_array(ids) -> np.ndarray:
    """``ids`` as an integer array, kept at its own width when integral."""
    ids = np.asarray(ids)
    return ids if ids.dtype.kind in "iu" else ids.astype(np.int64)


@dataclass
class CSRGraph:
    """A directed graph in CSR form.

    Attributes
    ----------
    num_vertices:
        Vertex count; vertex ids are ``0..num_vertices-1``.
    offsets:
        ``int64[num_vertices + 1]``; vertex ``u``'s out-edges occupy edge
        indices ``offsets[u]:offsets[u+1]``.
    dst:
        ``int64[num_edges]`` destination ids, grouped by source.
    weight:
        ``float64[num_edges]`` edge weights (1.0 when unweighted).
    """

    num_vertices: int
    offsets: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.validate()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_edges(cls, src, dst, num_vertices: int,
                   weight=None) -> "CSRGraph":
        """Build a CSR graph from parallel src/dst (and optional weight) arrays.

        Ids may have any integer width (the R-MAT generators pass
        uint32) and weights any real dtype; the graph stores int64 ids
        and float64 weights, written once, in edge chunks.
        """
        src = _id_array(src)
        dst = _id_array(dst)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        num_edges = len(src)
        if weight is not None:
            weight = np.asarray(weight)
            if weight.shape != src.shape:
                raise ValueError("weight must match the edge count")
        if num_edges and (src.min() < 0 or src.max() >= num_vertices):
            raise ValueError("source ids out of range")
        # One sort of unique keys (src, edge index) is the stable sort by
        # src: ties are broken by the edge index in the low bits.
        edge_bits = max(num_edges - 1, 0).bit_length()
        vertex_bits = max(int(num_vertices) - 1, 0).bit_length()
        if vertex_bits + edge_bits > 63:
            raise ValueError(
                f"{num_vertices} vertices x {num_edges} edges need "
                f"{vertex_bits + edge_bits} key bits; the limit is 63")
        # Counted before the key exists: bincount's intp copy of narrower
        # ids is then the only large array besides the inputs.
        counts = np.bincount(src, minlength=num_vertices)
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        key = np.empty(num_edges, dtype=np.int64)
        for lo, hi in edge_chunks(num_edges):
            part = key[lo:hi]
            part[:] = src[lo:hi]
            part <<= edge_bits
            part |= np.arange(lo, hi, dtype=np.int64)
        key.sort()
        # Masked in place, the sorted keys are the gather order; the
        # weights are gathered first, then each chunk of the order is
        # overwritten by its destinations, so the key becomes ``dst``.
        key &= (1 << edge_bits) - 1
        sorted_weight = (np.ones(num_edges) if weight is None
                         else np.empty(num_edges))
        for lo, hi in edge_chunks(num_edges):
            order = key[lo:hi]
            if weight is not None:
                sorted_weight[lo:hi] = weight[order]
            order[:] = dst[order]
        return cls(num_vertices=num_vertices, offsets=offsets, dst=key,
                   weight=sorted_weight)

    # -- queries ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Total directed edge count."""
        return len(self.dst)

    @property
    def avg_degree(self) -> float:
        """Average out-degree."""
        return self.num_edges / self.num_vertices if self.num_vertices else 0.0

    def out_degree(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.offsets)

    def neighbors(self, u: int) -> np.ndarray:
        """Destination ids of ``u``'s out-edges."""
        return self.dst[self.offsets[u]:self.offsets[u + 1]]

    def edge_slice(self, u: int) -> slice:
        """Edge-index slice owned by vertex ``u``."""
        return slice(int(self.offsets[u]), int(self.offsets[u + 1]))

    def reversed(self) -> "CSRGraph":
        """The transpose graph (every edge flipped)."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                        np.diff(self.offsets))
        return CSRGraph.from_edges(self.dst, src, self.num_vertices,
                                   weight=self.weight)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        if len(self.offsets) != self.num_vertices + 1:
            raise ValueError("offsets must have num_vertices + 1 entries")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.dst):
            raise ValueError("offsets must start at 0 and end at num_edges")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if len(self.dst) and (self.dst.min() < 0
                              or self.dst.max() >= self.num_vertices):
            raise ValueError("destination ids out of range")
        if len(self.weight) != len(self.dst):
            raise ValueError("weight must match the edge count")
