"""Best-effort loader for the compiled kernels of the batched engine.

``_lru_kernel.c`` holds three kernels, each exposed here:

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
the scalar loops (``fastpath.refused.no_kernel``), and :func:`row_hits`
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
    sel8 = (None if sel is None
            else np.ascontiguousarray(sel, dtype=bool).view(np.uint8))
    wflag64 = (None if wflag is None
               else np.ascontiguousarray(wflag, dtype=np.int64))
    npages, m = int(fixed32.shape[0]), int(idx32.shape[0])
    # The kernel writes hist[fixed + misses] and walks_of[page]: check
    # every size it indexes by before handing it pointers.
    walk_mem = fixed32 + np.diff(off32[:npages + 1])
    if (off32.shape[0] != npages + prime + 1
            or any(a is not None and a.shape[0] != m
                   for a in (sel8, wflag64))
            or walks_of.shape != (npages,) or walks_of.dtype != np.int64
            or hist.dtype != np.int64 or not hist.flags.c_contiguous
            or hist.shape[1:] != (2,)
            or hist.shape[0] <= int(walk_mem.max(initial=0))):
        raise ValueError("lru_walk: inconsistent table or output sizes")
    set_of = _set_table(nsets, sid_u)
    counts, last_occ, last_fill = _lru_outputs(k)
    rc = lib.repro_lru_sim_walk(
        idx32.ctypes.data, m, _ptr(sel8), _ptr(wflag64),
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
