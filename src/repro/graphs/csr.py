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
        """Build a CSR graph from parallel src/dst (and optional weight) arrays."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if weight is None:
            weight = np.ones(len(src), dtype=np.float64)
        else:
            weight = np.asarray(weight, dtype=np.float64)
            if weight.shape != src.shape:
                raise ValueError("weight must match the edge count")
        if len(src) and (src.min() < 0 or src.max() >= num_vertices):
            raise ValueError("source ids out of range")
        # One sort of unique keys (src, edge index) is the stable sort by
        # src: ties are broken by the edge index in the low bits.
        edge_bits = max(len(src) - 1, 0).bit_length()
        vertex_bits = max(int(num_vertices) - 1, 0).bit_length()
        if vertex_bits + edge_bits > 63:
            raise ValueError(
                f"{num_vertices} vertices x {len(src)} edges need "
                f"{vertex_bits + edge_bits} key bits; the limit is 63")
        key = src << edge_bits
        key |= np.arange(len(src), dtype=np.int64)
        key.sort()
        order = key & ((1 << edge_bits) - 1)
        counts = np.bincount(src, minlength=num_vertices)
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(num_vertices=num_vertices, offsets=offsets,
                   dst=dst[order], weight=weight[order])

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
