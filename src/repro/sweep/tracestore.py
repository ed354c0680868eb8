"""The on-disk symbolic-trace cache, shared zero-copy by pool workers.

The functional half of a run — executing a workload on the accelerator
model — produces a :class:`~repro.accel.trace.SymbolicTrace` of three
numpy columns that every timing configuration then consumes.  A
compressed archive would make every pool worker that loads it inflate a
private copy of all three columns, so an N-worker sweep would hold N
copies of a multi-million-access trace in anonymous memory.

This store publishes the trace as a directory of raw uncompressed
``.npy`` files::

    trace-<key>.mm/
        streams.npy      offsets.npy      writes.npy
        streams.npy.sha256   ...                      (integrity sidecars)

Workers open the columns with ``np.load(..., mmap_mode="r")``: the pages
are file-backed and read-only, so all workers on a host share one
physical copy under the page cache, exactly like the paper's shared
page-cache argument for devirtualized buffers — zero-copy across the
pool, and the columns never materialize at all for accesses the timing
model skips.  The mapped arrays are read-only; code that tried to
mutate a shared trace would fault immediately rather than corrupt a
neighbor's run.

Integrity follows the repo's sidecar discipline: each column is hashed,
publication is tmp + ``os.replace`` per file with a final ``.ok`` marker
making the directory's completeness atomic, and any mismatch quarantines
the whole directory for recomputation.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.accel.trace import SymbolicTrace
from repro.common import integrity
from repro.common.errors import CacheIntegrityError

#: The three trace columns, in canonical order.
COLUMNS = ("streams", "offsets", "writes")

#: Completeness marker: the last file published, so a directory with it
#: present is guaranteed to contain every column and sidecar.
OK_MARKER = "complete.ok"


def publish(path: Path, trace: SymbolicTrace) -> None:
    """Publish ``trace`` as a memmappable column directory at ``path``.

    Safe against concurrent publishers (per-file tmp + rename) and
    against crashes (a directory without its ``.ok`` marker is treated
    as absent and republished).
    """
    path.mkdir(parents=True, exist_ok=True)
    for name in COLUMNS:
        column = np.ascontiguousarray(getattr(trace, name))
        target = path / f"{name}.npy"
        tmp = integrity.tmp_path(target, suffix=".npy")
        with open(tmp, "wb") as handle:
            np.save(handle, column)
        integrity.write_sidecar(target, content_of=tmp)
        os.replace(tmp, target)
    marker = path / OK_MARKER
    tmp = integrity.tmp_path(marker)
    tmp.write_text("ok\n")
    os.replace(tmp, marker)


def is_published(path: Path) -> bool:
    """Whether a complete column directory exists at ``path``."""
    return (path / OK_MARKER).exists()


def open_trace(path: Path, *, verify: bool = True) -> SymbolicTrace:
    """Open a published trace with memory-mapped, read-only columns.

    Raises :class:`CacheIntegrityError` for an incomplete directory, a
    missing column, a sidecar mismatch, or an undecodable file — the
    caller quarantines and falls back to recomputation, never crashes.
    """
    if not is_published(path):
        raise CacheIntegrityError(f"incomplete trace store {path}")
    columns = {}
    for name in COLUMNS:
        target = path / f"{name}.npy"
        if verify:
            integrity.verify_sidecar(target)
        try:
            columns[name] = np.load(target, mmap_mode="r")
        except (OSError, ValueError, EOFError) as exc:
            raise CacheIntegrityError(
                f"undecodable trace column {target}: {exc}") from exc
    lengths = {len(columns[name]) for name in COLUMNS}
    if len(lengths) != 1:
        raise CacheIntegrityError(
            f"trace store {path} has ragged columns {sorted(lengths)}")
    return SymbolicTrace(**columns)
