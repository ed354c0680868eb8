"""Memory-trace representation for the accelerator.

The simulator is trace-driven in two phases (DESIGN.md): the accelerator
executes a workload *functionally* and emits a **symbolic trace** — per
access, which data-structure *stream* it touched, at what byte offset, and
whether it wrote.  The symbolic trace is independent of any MMU
configuration; binding it to one configuration's address-space layout
(``concretize``) yields the virtual-address trace the IOMMU consumes.
This guarantees every configuration sees the *same* access pattern, exactly
as the paper's paired gem5 runs do.

Streams mirror Graphicionado's data structures (Section 6.1): the vertex
property array, the temporary (destination) property array, the ancillary
edge-offset array, the edge list, and the active-vertex (frontier) list.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: Stream identifiers.
VPROP = 0        # vertex properties
VPROP_TMP = 1    # destination-side temporary properties (reduce targets)
OFFSETS = 2      # ancillary vertex -> edge-index array
EDGES = 3        # edge list of (src, dst, weight) records
FRONTIER = 4     # active-vertex list

STREAM_NAMES = {
    VPROP: "vprop",
    VPROP_TMP: "vprop_tmp",
    OFFSETS: "offsets",
    EDGES: "edges",
    FRONTIER: "frontier",
}

#: Record sizes in bytes (Graphicionado's 3-tuple edge record).
EDGE_RECORD_BYTES = 12
PROP_BYTES = 8
OFFSET_BYTES = 8
FRONTIER_BYTES = 8


@dataclass
class SymbolicTrace:
    """A layout-independent access trace.

    Attributes
    ----------
    streams:
        ``int8[n]`` stream id per access.
    offsets:
        ``int64[n]`` byte offset within the stream per access.
    writes:
        ``int8[n]`` 1 for stores, 0 for loads.
    """

    streams: np.ndarray
    offsets: np.ndarray
    writes: np.ndarray

    def __post_init__(self):
        self.streams = np.asarray(self.streams, dtype=np.int8)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.writes = np.asarray(self.writes, dtype=np.int8)
        if not (len(self.streams) == len(self.offsets) == len(self.writes)):
            raise ValueError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.streams)

    def concretize(self, stream_bases: dict[int, int]
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Bind the trace to concrete VAs given per-stream base addresses."""
        max_stream = int(self.streams.max(initial=0))
        bases = np.zeros(max_stream + 1, dtype=np.int64)
        for stream, base in stream_bases.items():
            if stream <= max_stream:
                bases[stream] = base
        missing = set(np.unique(self.streams)) - set(stream_bases)
        if missing:
            raise KeyError(f"no base address for streams {sorted(missing)}")
        addrs = bases[self.streams] + self.offsets
        return addrs, self.writes

    def content_token(self) -> str:
        """A digest of the trace columns, stable across processes.

        Cache keys derived from it (e.g. the runner's shared page-run
        batches, :func:`repro.sim.fastpath.batch_for`) are identical in
        every worker and every run, unlike ``id()``-based keys, which
        are memory addresses.  Computed once per instance and memoized;
        traces are immutable after construction.
        """
        token = self.__dict__.get("_content_token")
        if token is None:
            digest = hashlib.sha1()
            for column in (self.streams, self.offsets, self.writes):
                digest.update(np.ascontiguousarray(column))
            token = digest.hexdigest()
            self.__dict__["_content_token"] = token
        return token

    def write_fraction(self) -> float:
        """Fraction of accesses that are stores."""
        return float(self.writes.mean()) if len(self) else 0.0

    def stream_histogram(self) -> dict[str, int]:
        """Access counts by stream name (for trace-composition reports)."""
        counts = np.bincount(self.streams, minlength=len(STREAM_NAMES))
        return {STREAM_NAMES[i]: int(c) for i, c in enumerate(counts) if c}


def interleave_chunks(values: np.ndarray, num_lanes: int) -> np.ndarray:
    """Round-robin interleave ``num_lanes`` contiguous chunks of ``values``.

    Models Graphicionado's parallel processing engines: the work list is
    partitioned into one contiguous slice per engine, and the engines
    consume their slices in lockstep, so the merged reference stream
    alternates between the slices.
    """
    n = len(values)
    if num_lanes <= 1 or n <= num_lanes:
        return values
    per_lane = -(-n // num_lanes)  # ceil division
    total = per_lane * num_lanes
    padded = np.zeros(total, dtype=values.dtype)
    padded[:n] = values
    # Track padding with a parallel length mask rather than a sentinel
    # value: any value of the input dtype is a legitimate element.
    valid = np.zeros(total, dtype=bool)
    valid[:n] = True
    merged = padded.reshape(num_lanes, per_lane).T.reshape(-1)
    keep = valid.reshape(num_lanes, per_lane).T.reshape(-1)
    return merged[keep]
