"""Best-effort loader for the compiled kernels of the batched engine.

``_lru_kernel.c`` holds the engine's page-run pre-pass and its three
replays, each exposed here:

* :func:`page_runs` — one scan of a trace's access columns into its
  page runs' heads and each run's page key, in exact-size columns;
* :func:`compact` — the sorted-unique factorization of a narrow-span
  key column (the page alphabet and its run -> page index);
* :func:`page_aggregates` — per-page run, access and store counts
  through a run -> page index, from the run heads and the trace's store
  column;
* :func:`lru_sim` — exact set-associative LRU replay of a key stream
  read through a run -> page index and a per-page key table (TLB
  regions, bitmap-cache words), after a warm-resident prime prefix;
* :func:`lru_walk` — the same replay over an indirect walk-block
  stream (walk caches), returning per-page walk counts and a (walk
  memory, head-is-write) histogram instead of a per-walk column;
* :func:`row_hits` — DRAM open-row accounting over a page stream.

This module compiles the source once per revision with whatever C
compiler the host offers (``cc``/``gcc``), caches the shared library
under ``build/native/`` at the repository root (or the system temp
directory when the tree is read-only), and loads it through
:func:`_load`.

Everything here degrades gracefully: no compiler, a failed compile or
an unwritable cache make :func:`_load` return ``None`` and
:func:`available` false.  The fast engine then refuses every batch to
the scalar loops (``fastpath.refused.no_kernel``) — binding a trace
concretizes it without scanning it — and :func:`row_hits`
returns ``None`` so DRAM row accounting, which the scalar loops share,
runs its numpy fallback.  Degradation is never untraceable: the
``no_kernel`` counter shows it, and ``REPRO_DEBUG=1`` logs why the
compiled kernels are unavailable (including the compiler's stderr).
Stale ``.{pid}.tmp`` libraries left by crashed or timed-out compiles are
reaped before building.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.common import faults, integrity
from repro.obs import log as obs_log


def _debug(message: str, **fields) -> None:
    obs_log.debug("native", message, **fields)

_SOURCE = Path(__file__).with_name("_lru_kernel.c")

_lib: ctypes.CDLL | None = None
_tried = False


def _cache_dirs(tag: str):
    """Candidate directories for the compiled library, best first."""
    root = Path(__file__).resolve().parents[3]
    yield root / "build" / "native"
    yield Path(tempfile.gettempdir()) / f"repro-native-{tag}"


def _compile() -> ctypes.CDLL | None:
    if faults.should_fire("compile_fail"):
        _debug("injected compile_fail fault; using the scalar loops")
        return None
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None or not _SOURCE.exists():
        _debug("no C compiler or kernel source; using the scalar loops")
        return None
    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(source).hexdigest()[:12]
    for cache in _cache_dirs(tag):
        lib_path = cache / f"_lru_{tag}.so"
        tmp = integrity.tmp_path(lib_path)
        try:
            if not lib_path.exists():
                cache.mkdir(parents=True, exist_ok=True)
                # Reap shared-library tmp files orphaned by compiles that
                # crashed or timed out; live writers' files are spared.
                integrity.reap_stale_tmp(cache)
                subprocess.run(
                    [compiler, "-O3", "-shared", "-fPIC",
                     str(_SOURCE), "-o", str(tmp)],
                    check=True, capture_output=True, timeout=120)
                os.replace(tmp, lib_path)  # atomic under concurrent builds
            return ctypes.CDLL(str(lib_path))
        except subprocess.CalledProcessError as exc:
            stderr = (exc.stderr or b"").decode(errors="replace").strip()
            _debug("compile failed", cache=str(cache),
                   compiler_stderr=stderr or str(exc))
        except (OSError, subprocess.SubprocessError) as exc:
            _debug("native kernel unavailable", cache=str(cache),
                   error=str(exc))
        tmp.unlink(missing_ok=True)     # never leave our own droppings
    _debug("all native cache directories failed; using the scalar loops")
    return None


def _load() -> ctypes.CDLL | None:
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    lib = _compile()
    if lib is not None:
        ptr, i32, i64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64
        lib.repro_lru_sim.restype = ctypes.c_int
        lib.repro_lru_sim.argtypes = [
            ptr, i64, ptr, ptr, i64, i32, i32, i32, ptr, ptr, ptr, ptr, ptr]
        lib.repro_lru_sim_walk.restype = ctypes.c_int
        lib.repro_lru_sim_walk.argtypes = [
            ptr, i64, ptr, ptr, i64, i32, ptr, ptr, ptr, i32, i32, i32,
            ptr, ptr, ptr, ptr, ptr, ptr]
        lib.repro_row_hits.restype = ctypes.c_int64
        lib.repro_row_hits.argtypes = [ptr, ptr, i64, ptr]
        lib.repro_page_runs.restype = ctypes.c_int64
        lib.repro_page_runs.argtypes = [
            ptr, ptr, i64, i64, i64, ptr, ptr, ptr]
        lib.repro_compact.restype = ctypes.c_int64
        lib.repro_compact.argtypes = [ptr, i64, i64, i64, ptr, ptr, ptr]
        lib.repro_page_aggregates.restype = ctypes.c_int
        lib.repro_page_aggregates.argtypes = [
            ptr, i64, i32, ptr, i64, ptr, i32, ptr, ptr, ptr, ptr]
    _lib = lib
    return _lib


def available() -> bool:
    """Whether the compiled kernels are (or can be made) loadable."""
    return _load() is not None


def _i32(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int32)


def _ptr(array) -> int | None:
    return None if array is None else array.ctypes.data


def _lru_outputs(k: int):
    return (np.zeros(k, np.int64), np.full(k, -1, np.int64),
            np.full(k, -1, np.int64))


def _set_table(nsets: int, sid_u):
    return _i32(sid_u) if nsets > 1 else None


def _store_column(writes) -> tuple[np.ndarray, int]:
    """``(column, wide)``: the store values as the kernel reads them —
    int8 (``wide`` 0) for int8 and bool columns, int64 (``wide`` 1)
    for every other dtype, converted when it is not int64 already."""
    writes = np.ascontiguousarray(writes)
    if writes.dtype == np.int8:
        return writes, 0
    if writes.dtype == np.bool_:
        return writes.view(np.int8), 0
    return np.ascontiguousarray(writes, dtype=np.int64), 1


def _flags(values) -> np.ndarray | None:
    """A per-run flag column as the kernel's uint8 (nonzero = set): a
    view of int8, uint8 and bool columns, ``values != 0`` otherwise."""
    if values is None:
        return None
    values = np.ascontiguousarray(values)
    if values.dtype in (np.int8, np.uint8, np.bool_):
        return values.view(np.uint8)
    return (values != 0).view(np.uint8)


def page_runs(streams, cols):
    """Scan an access trace into its page runs through the kernel.

    Access ``i`` is on page ``cols[i] >> PAGE_SHIFT`` of stream
    ``streams[i]`` (int8); with ``streams`` ``None`` the trace is one
    stream and ``cols`` holds virtual addresses.  A run is a maximal
    stretch of consecutive accesses to one (stream, page) pair.  Returns
    ``(starts, keys, key_bounds, lo, span)``: each run's int64 head
    index; each run's int64 key, ``stream * span + page`` with ``span =
    max(hi, 0) + 1``, or the page itself (``span`` 0) without streams;
    the least and greatest key; and ``lo``/``hi``, the least and
    greatest page (0 and -1 for an empty trace).  Two passes over the
    accesses — count, then fill exact-size columns — both with the GIL
    released.  Callers check :func:`available` first.
    """
    lib = _load()
    cols64 = np.ascontiguousarray(cols, dtype=np.int64)
    streams8 = (None if streams is None
                else np.ascontiguousarray(streams, dtype=np.int8))
    n = int(cols64.shape[0])
    if streams8 is not None and streams8.shape != (n,):
        raise ValueError("page_runs: columns must have equal length")
    bounds = np.empty(2, np.int64)
    args = (_ptr(streams8), cols64.ctypes.data, n)
    m = lib.repro_page_runs(*args, 0, 0, bounds.ctypes.data, None, None)
    lo, hi = int(bounds[0]), int(bounds[1])
    span = 0 if streams8 is None else max(hi, 0) + 1
    starts = np.empty(m, np.int64)
    keys = np.empty(m, np.int64)
    if m:
        filled = lib.repro_page_runs(*args, span, m, bounds.ctypes.data,
                                     starts.ctypes.data, keys.ctypes.data)
        if filled != m:
            raise RuntimeError("page_runs: the filling pass disagrees "
                               "with the counting pass")
    return starts, keys, (int(bounds[0]), int(bounds[1])), lo, span


def compact(values, lo: int, span: int):
    """``(unique values, int32 inverse)`` of int64 ``values``, all in
    ``lo .. lo + span - 1``, through a direct presence table of ``span``
    entries — identical to sorted ``np.unique``.  Callers check
    :func:`available` first and bound ``span``.
    """
    lib = _load()
    values64 = np.ascontiguousarray(values, dtype=np.int64)
    n = int(values64.shape[0])
    rank = np.zeros(span, np.int32)
    uniq = np.empty(min(n, span), np.int64)
    inverse = np.empty(n, np.int32)
    u = lib.repro_compact(values64.ctypes.data, n, lo, span,
                          rank.ctypes.data, uniq.ctypes.data,
                          inverse.ctypes.data)
    return (uniq if u == uniq.shape[0] else uniq[:u].copy()), inverse


def page_aggregates(uidx: np.ndarray, u: int, starts: np.ndarray, n: int,
                    writes):
    """``(run_count, access_count, write_count, written)`` over the ``u``
    pages of a run -> page index.  Run ``r`` is on page ``uidx[r]`` and
    covers accesses ``starts[r]`` up to the next head (``n`` after the
    last); its stores are summed from ``writes``, the ``n``-access store
    column.  ``written`` is bool: whether some run of the page has a
    positive store sum.  Callers check :func:`available` first.
    """
    lib = _load()
    idx32 = _i32(uidx)
    m = int(idx32.shape[0])
    starts64 = np.ascontiguousarray(starts, dtype=np.int64)
    stores, wide = _store_column(writes)
    if starts64.shape != (m,):
        raise ValueError("page_aggregates: run columns differ in length")
    if stores.shape != (n,):
        raise ValueError("page_aggregates: the store column must have "
                         "one entry per access")
    counts = [np.zeros(u, np.int64) for _ in range(3)]
    written = np.zeros(u, bool)
    if lib.repro_page_aggregates(
            idx32.ctypes.data, m, u, starts64.ctypes.data, n,
            stores.ctypes.data, wide,
            *(column.ctypes.data for column in counts), written.ctypes.data):
        raise ValueError("page_aggregates: page index or run head out of "
                         "range")
    return (*counts, written)


def lru_sim(idx: np.ndarray, key_of: np.ndarray, prime_ids: np.ndarray,
            k: int, nsets: int, ways: int, sid_u):
    """Replay the key stream ``prime_ids`` then ``key_of[idx]``.

    Negative keys are skipped: their positions miss 0 and record
    nothing.  Returns ``(miss, counts, last_occ, last_fill)`` over the
    ``prime + len(idx)`` stream positions.  Callers check
    :func:`available` first; a kernel allocation failure raises
    :class:`MemoryError`.
    """
    lib = _load()
    idx32, keys32, prime32 = _i32(idx), _i32(key_of), _i32(prime_ids)
    m, prime = int(idx32.shape[0]), int(prime32.shape[0])
    set_of = _set_table(nsets, sid_u)
    miss = np.empty(prime + m, np.uint8)
    counts, last_occ, last_fill = _lru_outputs(k)
    rc = lib.repro_lru_sim(
        idx32.ctypes.data, m, keys32.ctypes.data, prime32.ctypes.data,
        prime, k, nsets, ways, _ptr(set_of), miss.ctypes.data,
        counts.ctypes.data, last_occ.ctypes.data, last_fill.ctypes.data)
    if rc != 0:
        raise MemoryError("lru_sim: kernel allocation failed")
    return miss.view(bool), counts, last_occ, last_fill


def lru_walk(idx: np.ndarray, sel, wflag, prime: int,
             block_off: np.ndarray, flat_ids: np.ndarray,
             fixed: np.ndarray, walks_of: np.ndarray, hist: np.ndarray,
             k: int, nsets: int, ways: int, sid_u):
    """Replay an indirect walk-block stream through the compiled kernel.

    After ``prime`` pseudo pages (rows ``len(fixed)..`` of the block
    table, one warm block each), run ``i`` walks page ``idx[i]`` when
    ``sel[i]`` is set (every run when ``sel`` is ``None``), touching the
    id slice ``flat_ids[block_off[p]:block_off[p + 1]]`` — the expanded
    stream is never materialized.  Each real walk increments the
    caller's zeroed int64 outputs ``walks_of[p]`` and ``hist[fixed[p] +
    misses, w]``, ``w`` being whether its ``wflag`` entry is set (0
    when ``wflag`` is ``None``).  Returns ``(counts, last_occ,
    last_fill)`` with positions in expanded-stream coordinates.  Callers
    check :func:`available` first; a kernel allocation failure raises
    :class:`MemoryError`.
    """
    lib = _load()
    idx32 = _i32(idx)
    off32, ids32, fixed32 = _i32(block_off), _i32(flat_ids), _i32(fixed)
    sel8, wflag8 = _flags(sel), _flags(wflag)
    npages, m = int(fixed32.shape[0]), int(idx32.shape[0])
    # The kernel writes hist[fixed + misses] and walks_of[page]: check
    # every size it indexes by before handing it pointers.
    walk_mem = fixed32 + np.diff(off32[:npages + 1])
    if (off32.shape[0] != npages + prime + 1
            or any(a is not None and a.shape[0] != m
                   for a in (sel8, wflag8))
            or walks_of.shape != (npages,) or walks_of.dtype != np.int64
            or hist.dtype != np.int64 or not hist.flags.c_contiguous
            or hist.shape[1:] != (2,)
            or hist.shape[0] <= int(walk_mem.max(initial=0))):
        raise ValueError("lru_walk: inconsistent table or output sizes")
    set_of = _set_table(nsets, sid_u)
    counts, last_occ, last_fill = _lru_outputs(k)
    rc = lib.repro_lru_sim_walk(
        idx32.ctypes.data, m, _ptr(sel8), _ptr(wflag8),
        prime, npages, off32.ctypes.data, ids32.ctypes.data,
        fixed32.ctypes.data, k, nsets, ways, _ptr(set_of),
        walks_of.ctypes.data, hist.ctypes.data, counts.ctypes.data,
        last_occ.ctypes.data, last_fill.ctypes.data)
    if rc != 0:
        raise MemoryError("lru_walk: kernel allocation failed")
    return counts, last_occ, last_fill


def row_hits(pages: np.ndarray, last_rows: list[int], idx=None):
    """DRAM open-row accounting through the compiled kernel.

    Counts row-buffer hits over an in-order 4 KB page stream —
    ``pages[idx]`` when a run -> page index is given, else ``pages`` —
    and advances the caller's per-bank open-row state ``last_rows`` in
    place.  Returns the hit count, or ``None`` when the kernel is
    unavailable (the caller falls back to the numpy per-bank
    comparison).
    """
    lib = _load()
    if lib is None:
        return None
    pages64 = np.ascontiguousarray(pages, dtype=np.int64)
    idx32 = None if idx is None else _i32(idx)
    n = int((pages64 if idx32 is None else idx32).shape[0])
    state = np.asarray(last_rows, dtype=np.int64)
    hits = lib.repro_row_hits(pages64.ctypes.data, _ptr(idx32), n,
                              state.ctypes.data)
    last_rows[:] = [int(row) for row in state]
    return int(hits)
