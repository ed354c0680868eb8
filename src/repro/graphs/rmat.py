"""R-MAT synthetic graph generation (graph500 parameters).

The paper's synthetic inputs come from the graph500 RMAT generator
(Chakrabarti et al., SIAM'04; Murphy et al., CUG'10): edges are placed by
recursively descending a 2^scale x 2^scale adjacency matrix, choosing one
of four quadrants per bit with probabilities (a, b, c, d).  graph500 uses
(0.57, 0.19, 0.19, 0.05), which produces the skewed degree distributions
that make graph workloads TLB-hostile.

The generation is fully vectorised: one pass over the edge array per scale
bit, in fixed edge chunks.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph, edge_chunks

#: graph500 RMAT quadrant probabilities.
GRAPH500_A = 0.57
GRAPH500_B = 0.19
GRAPH500_C = 0.19
GRAPH500_D = 0.05


def rmat_ids(scale: int, num_edges: int, *, a: float = GRAPH500_A,
             b: float = GRAPH500_B, c: float = GRAPH500_C,
             seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Generate RMAT (src, dst) ids as uint32 for a 2**scale-vertex graph.

    ``d`` is implied by ``1 - a - b - c``.  Duplicates and self-loops are
    kept, as graph500's generator does.  The draws run bit-major over
    the whole edge array, one edge chunk at a time, so the temporaries
    are chunk-sized and the random stream is that of one draw per bit.
    """
    if scale <= 0 or scale > 30:
        raise ValueError(f"scale must be in 1..30, got {scale}")
    if num_edges <= 0:
        raise ValueError(f"num_edges must be positive, got {num_edges}")
    if min(a, b, c) < 0:
        raise ValueError(f"quadrant probabilities must be non-negative, "
                         f"got a={a}, b={b}, c={c}")
    if not 0 < a + b + c < 1:
        raise ValueError("quadrant probabilities must sum below 1")
    rng = np.random.default_rng(seed)
    # scale <= 30, so ids fit uint32.
    src = np.zeros(num_edges, dtype=np.uint32)
    dst = np.zeros(num_edges, dtype=np.uint32)
    chunks = list(edge_chunks(num_edges))
    width = chunks[0][1]
    u_buf = np.empty(width, dtype=np.float64)
    hit_buf = np.empty(width, dtype=bool)
    other_buf = np.empty(width, dtype=bool)
    shifted_buf = np.empty(width, dtype=np.uint32)
    ab = a + b
    abc = a + b + c
    for bit in range(scale):
        for lo, hi in chunks:
            n = hi - lo
            u, hit = u_buf[:n], hit_buf[:n]
            other, shifted = other_buf[:n], shifted_buf[:n]
            rng.random(out=u)
            # Quadrants: [0,a) -> (0,0); [a,ab) -> (0,1); [ab,abc) -> (1,0);
            # [abc,1) -> (1,1).
            np.greater_equal(u, ab, out=hit)
            np.left_shift(hit, bit, out=shifted, dtype=np.uint32)
            src[lo:hi] |= shifted
            np.greater_equal(u, a, out=hit)
            np.less(u, ab, out=other)
            hit &= other
            np.greater_equal(u, abc, out=other)
            hit |= other
            np.left_shift(hit, bit, out=shifted, dtype=np.uint32)
            dst[lo:hi] |= shifted
    return src, dst


def rmat_edges(scale: int, num_edges: int, *, a: float = GRAPH500_A,
               b: float = GRAPH500_B, c: float = GRAPH500_C,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rmat_ids` as int64 (src, dst) arrays."""
    src, dst = rmat_ids(scale, num_edges, a=a, b=b, c=c, seed=seed)
    return src.astype(np.int64), dst.astype(np.int64)


def uniform_ints(low: int, high: int, count: int, seed: int) -> np.ndarray:
    """``default_rng(seed).integers(low, high, count)`` as uint8.

    Drawn one edge chunk at a time (the generator's stream does not
    depend on how the draw is split); ``high`` must be at most 256.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(count, dtype=np.uint8)
    for lo, hi in edge_chunks(count):
        out[lo:hi] = rng.integers(low, high, hi - lo)
    return out


def rmat_graph(scale: int, edge_factor: int = 16, *, seed: int = 0,
               weighted: bool = True,
               a: float = GRAPH500_A, b: float = GRAPH500_B,
               c: float = GRAPH500_C) -> CSRGraph:
    """An RMAT graph with ``2**scale`` vertices and ``edge_factor`` per vertex.

    Weights, when requested, are uniform in [1, 64) like graph500's SSSP
    companion generator.
    """
    num_vertices = 1 << scale
    num_edges = edge_factor * num_vertices
    src, dst = rmat_ids(scale, num_edges, a=a, b=b, c=c, seed=seed)
    weight = uniform_ints(1, 64, num_edges, seed + 1) if weighted else None
    return CSRGraph.from_edges(src, dst, num_vertices, weight=weight)
