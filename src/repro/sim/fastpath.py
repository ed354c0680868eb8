"""Batched page-run timing engine — the IOMMU's vectorized fast path.

The scalar loops in :mod:`repro.hw.iommu` execute a few dict operations per
access, millions of times per experiment.  This module reproduces their
results *bit-identically* from a numpy pre-pass with no per-access Python
work at all; only final-state reconstruction touches the real dicts, once
per resident entry.

Three observations make that possible (the full argument is recorded in
DESIGN.md, "Key design decisions"):

1.  **Page runs.**  Accelerator reference streams are page-grained and
    run-structured: consecutive accesses to the same 4 KB page collapse
    into a run ``(page, length, writes)``.  Within a run, every lookup
    structure sees the same keys it saw at the run's head access, with the
    keys at the MRU end of their sets — so accesses 2..k of a run are
    *guaranteed* hits whose LRU re-touches leave every dict in exactly the
    state the head left it.  Only run heads can change state.

2.  **LRU is distance-determined.**  Each set of a set-associative LRU
    structure is an independent fully-associative LRU: an access hits iff
    the number of *distinct* keys that touched its set since the key's
    previous occurrence is at most ``ways - 1`` — a pure function of the
    key stream, independent of the victims chosen along the way.  Victims
    are therefore unobservable, and the exact per-access miss mask follows
    from exact stack distances.  Distances are resolved in three vector
    tiers: an in-set reuse gap of at most ``ways`` guarantees a hit;
    small per-set alphabets are counted exactly with per-key
    ``searchsorted`` scans; large alphabets get logarithmic lower/upper
    distance bounds from tiered reuse-gap prefix sums, and the residual
    ambiguous "band" (whose windows are short by construction) is counted
    exactly with one gather.

3.  **Final state from last touches.**  An LRU set's dict is ordered by
    last touch, and its residents are exactly the ``ways``
    most-recently-touched distinct keys; a TLB entry's value is the one
    computed by the key's last *fill* (miss).  Both are per-key grouped
    reductions, so the end-of-trace dicts are rebuilt bit-identically
    without replaying the stream.

Fault-bearing traces stay on the fast path.  A vectorized pre-screen
predicts every position where the scalar loop could take a fault (demand
page-in, swap-in, permission mosaics), then one of two strategies
replays the trace:

* **Pre-delivery** (the common case): when every predicted fault is
  *site-exact* — demand page-ins and swap-ins at a page's first
  TLB-miss walk or first DAV access, write-violations at a page's first
  store — the engine services them all up front, in trace order,
  through :class:`~repro.hw.fault_queue.FaultPath` and
  :mod:`repro.kernel.fault` exactly as the scalar loop would, then
  re-screens against the healed state and replays the whole trace as a
  single clean batch.  Sound because fault delivery touches no replayed
  LRU state, and the scalar loops charge a faulting access entirely
  from its post-service walk info (see :func:`_run_predelivered`).
* **Segment replay**: faults whose position depends on interleaving
  (e.g. a TLB region holding a permission mosaic) cut the stream at the
  candidate positions; each fault-free segment replays through the
  batched kernels above (warm lookup structures are *primed* into the
  LRU replay, so a mid-trace segment start is exact), and the candidate
  positions themselves are bridged through the real scalar loops.

Fault-stall cycles, major/swap fault counts and energy events are
bit-identical to the scalar loop by construction either way.

The engine refuses (an :class:`EngineOutcome` that is falsy) only when the
trace needs machinery it cannot replay: a potential fault with no fault
path attached (the legacy raise-on-fault contract), an L2 TLB, an
analysis exceeding its vector-work budget, or fault segmentation disabled
via ``REPRO_FASTPATH_FAULTS=0``.  The caller then falls back to the
scalar loops, which remain the ground truth.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from repro.common import env, faults
from repro.common.consts import PAGE_SHIFT
from repro.sim import _native

#: Environment override for the engine selection ("fast" | "scalar").
ENGINE_ENV_VAR = "REPRO_TIMING_ENGINE"

_ENGINES = ("fast", "scalar")


def default_engine() -> str:
    """The engine :meth:`IOMMU.run_trace` uses when none is requested."""
    engine = env.raw(ENGINE_ENV_VAR, "fast")
    if engine not in _ENGINES:
        raise ValueError(
            f"{ENGINE_ENV_VAR} must be one of {_ENGINES}, got {engine!r}")
    return engine


#: Set to ``0`` to refuse fault-bearing traces instead of segmenting them
#: (the pre-PR behaviour: any predicted fault falls back to scalar).
FAULT_SEGMENTS_ENV_VAR = "REPRO_FASTPATH_FAULTS"


def fault_segments_enabled() -> bool:
    """Whether fault-bearing traces run segmented on the fast path."""
    return env.raw(FAULT_SEGMENTS_ENV_VAR, "1") != "0"


#: Minimum accesses for a fault-free stretch to be worth a batched
#: segment; shorter stretches are absorbed into the neighbouring scalar
#: bridge (per-segment analysis has fixed overhead).
_MIN_SEGMENT = 256

#: When a profiler (``benchmarks/perf_timing.py``) replaces this with a
#: dict, segment replay accumulates wall seconds per phase into it:
#: ``"replay"`` (batched fast-span kernels), ``"fault_service"`` (scalar
#: bridges through the real fault machinery) and ``"accounting"``
#: (screening, segment planning and state snapshots).  ``None`` — the
#: default — keeps the engine free of timer calls.
PHASE_PROFILE: dict | None = None


def _charge_phase(key: str, seconds: float) -> None:
    if PHASE_PROFILE is not None:
        PHASE_PROFILE[key] = PHASE_PROFILE.get(key, 0.0) + seconds


class EngineOutcome:
    """Result of one fast-engine attempt on a batch.

    Truthiness is acceptance.  ``reason`` names the refusal
    (``"tlb_l2"``, ``"legacy_fault_path"``, ``"budget"``,
    ``"fault_segments_disabled"``) and feeds the
    ``fastpath.refused.<reason>`` observability counters; ``segments``
    counts batched replay segments (1 for an unsegmented accept) and
    ``bridged_accesses`` the accesses replayed through the scalar
    bridges.
    """

    __slots__ = ("accepted", "reason", "segments", "bridged_accesses")

    def __init__(self, accepted: bool, reason: str | None = None,
                 segments: int = 0, bridged_accesses: int = 0):
        self.accepted = accepted
        self.reason = reason
        self.segments = segments
        self.bridged_accesses = bridged_accesses

    def __bool__(self) -> bool:
        return self.accepted


# ---------------------------------------------------------------------------
# Page-run pre-pass
# ---------------------------------------------------------------------------

def _page_runs(change: np.ndarray, writes: np.ndarray):
    """``(starts, lengths, run_writes, head_writes)`` of the runs that
    begin wherever ``change`` is set (``change[0]`` must be).

    One ``reduceat`` sums each run's stores — no access-scale prefix sum.
    """
    starts = np.flatnonzero(change)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = change.shape[0] - starts[-1]
    run_writes = np.add.reduceat(writes, starts, dtype=np.int64)
    return starts, lengths, run_writes, writes[starts].astype(np.int64)


def _written_flags(uidx: np.ndarray, u: int,
                   run_writes: np.ndarray) -> np.ndarray:
    """bool[u]: whether any run of each unique page stores."""
    written = np.zeros(u, bool)
    written[uidx[run_writes > 0]] = True
    return written


def _run_aggregates(uidx: np.ndarray, u: int, lengths: np.ndarray,
                    run_writes: np.ndarray, n: int):
    """``(run_count, access_count, write_count)`` per unique page of an
    ``n``-access trace."""
    run_count = np.bincount(uidx, minlength=u)
    if lengths.shape[0] == n:
        # Degenerate compression (every run one access): the weighted
        # reductions collapse to integer bincounts.
        return (run_count, run_count,
                np.bincount(uidx[run_writes > 0], minlength=u))
    # float64 weights are exact for any count below 2**53.
    access_count = np.bincount(uidx, weights=lengths, minlength=u)
    write_count = np.bincount(uidx, weights=run_writes, minlength=u)
    return (run_count, access_count.astype(np.int64),
            write_count.astype(np.int64))


class PageRunBatch:
    """A VA trace compressed into page runs.

    A *run* is a maximal stretch of consecutive accesses to one 4 KB page.
    ``writes`` is the per-access store flag; every other column is one
    entry per run (or per unique page), computed lazily on first use.
    Batches are immutable and safe to share across configurations
    simulating the same concretized trace.

    Batches come in two flavors: :meth:`from_trace` wraps an already
    concretized address column, while :meth:`from_skeleton` relocates a
    layout-independent :class:`TraceRunSkeleton` to one layout.  A
    skeleton batch stays run-scale from bind to replay: the screens, the
    batched kernels and fault pre-delivery read run columns, per-page
    columns and :meth:`va_at`, never :attr:`addrs`.  Only the scalar
    fallback (a declined batch, or a configured chaos injector) and the
    segment bridges of :func:`_run_segmented` build the per-access
    address column.
    """

    __slots__ = ("_addrs", "writes", "_runs", "_upages", "_lazy",
                 "_head_vas", "_written", "_paggs")

    def __init__(self, addrs: np.ndarray | None, writes: np.ndarray,
                 lazy=None):
        self._addrs = addrs      # int64[n] virtual address per access
        self.writes = writes     # int[n] 0/1 store flag per access
        self._runs = None
        self._upages = None
        # (skeleton, bases_arr, order) for skeleton batches: order[j] is
        # the skeleton page-alphabet index of sorted unique page j.
        self._lazy = lazy
        self._head_vas = None
        self._written = None
        self._paggs = None

    @property
    def addrs(self) -> np.ndarray:
        """int64[n] VA column, built and kept on first use for skeleton
        batches — only the scalar loops should ask for it."""
        if self._addrs is None:
            skel, bases, _order = self._lazy
            self._addrs = bases[skel.streams] + skel.offsets
        return self._addrs

    def va_at(self, positions: np.ndarray) -> np.ndarray:
        """int64 VAs of the accesses at ``positions``, gathered without
        building the address column."""
        if self._addrs is not None:
            return self._addrs[positions]
        skel, bases, _order = self._lazy
        return bases[skel.streams[positions]] + skel.offsets[positions]

    @property
    def num_accesses(self) -> int:
        """Accesses in the underlying trace."""
        return int(self.writes.shape[0])

    @property
    def num_runs(self) -> int:
        """Page runs after compression."""
        return int(self.starts.shape[0])

    @property
    def starts(self) -> np.ndarray:
        """int64[m] index of each run's head access."""
        return self._compress()[0]

    @property
    def lengths(self) -> np.ndarray:
        """int64[m] accesses in the run."""
        return self._compress()[1]

    @property
    def pages(self) -> np.ndarray:
        """int64[m] 4 KB page number of the run."""
        return self._compress()[2]

    @property
    def run_writes(self) -> np.ndarray:
        """int64[m] stores in the run."""
        return self._compress()[3]

    @property
    def head_writes(self) -> np.ndarray:
        """int64[m] store flag of the head access."""
        return self._compress()[4]

    @classmethod
    def from_trace(cls, addrs, writes) -> "PageRunBatch":
        """Wrap an (addrs, writes) trace for page-run simulation."""
        addrs = np.asarray(addrs, dtype=np.int64)
        writes = np.asarray(writes)
        if addrs.shape != writes.shape:
            raise ValueError("addrs and writes must have equal length")
        return cls(addrs, writes)

    @classmethod
    def from_skeleton(cls, skel: "TraceRunSkeleton",
                      bases_arr: np.ndarray) -> "PageRunBatch":
        """Bind a layout-independent skeleton to one layout's bases.

        ``bases_arr[stream]`` is the stream's base VA.  The caller has
        already verified (:func:`_skeleton_layout_ok`) that the layout
        keeps the skeleton's run decomposition exact, so the skeleton's
        page alphabet maps one to one onto the batch's unique pages.
        Relocating and sorting it is page-scale work; the run -> unique
        page index and the run pages are the only per-run gathers.
        """
        upages = (bases_arr >> PAGE_SHIFT)[skel.u_streams] + skel.u_opages
        order = np.argsort(upages, kind="stable")
        upages = upages[order]
        rank = np.empty(order.shape[0], np.int32)
        rank[order] = np.arange(order.shape[0], dtype=np.int32)
        uidx = rank[skel.uidx]
        batch = cls(None, skel.writes, lazy=(skel, bases_arr, order))
        batch._runs = (skel.starts, skel.lengths, upages[uidx],
                       skel.run_writes, skel.head_writes)
        batch._upages = (upages, uidx)
        return batch

    def head_vas(self) -> np.ndarray:
        """int64[m] VA of each run's head access, memoized."""
        if self._head_vas is None:
            if self._addrs is None:
                self._head_vas = self.pages << PAGE_SHIFT
                self._head_vas |= self._lazy[0].head_poffs
            else:
                self._head_vas = self._addrs[self.starts]
        return self._head_vas

    def unique_pages(self):
        """(unique pages, int32 run->unique index), memoized per batch."""
        if self._upages is None:
            self._upages = _compact(self.pages)
        return self._upages

    def written_pages(self) -> np.ndarray:
        """bool[u] whether any access to each unique page stores (indexed
        like :meth:`unique_pages`), memoized per batch."""
        if self._written is None:
            if self._lazy is not None:
                skel, _bases, order = self._lazy
                self._written = skel.written_pages()[order]
            else:
                upages, uidx = self.unique_pages()
                self._written = _written_flags(uidx, upages.shape[0],
                                               self.run_writes)
        return self._written

    def page_aggregates(self):
        """Per-unique-page run aggregates, memoized per batch.

        Returns ``(run_count, access_count, write_count)`` — each indexed
        like :meth:`unique_pages`'s unique array.  These let the
        mechanism runners turn run-scale (m) reductions into
        unique-page-scale (u << m for degenerate traces) ones.
        """
        if self._paggs is None:
            if self._lazy is not None:
                skel, _bases, order = self._lazy
                self._paggs = tuple(col[order]
                                    for col in skel.page_aggregates())
            else:
                upages, uidx = self.unique_pages()
                self._paggs = _run_aggregates(
                    uidx, upages.shape[0], self.lengths, self.run_writes,
                    self.num_accesses)
        return self._paggs

    def _compress(self):
        if self._runs is not None:
            return self._runs
        addrs, writes = self.addrs, self.writes
        n = addrs.shape[0]
        if n == 0:
            empty = np.empty(0, np.int64)
            self._runs = (empty, empty, empty, empty, empty)
            return self._runs
        pages_all = addrs >> PAGE_SHIFT
        change = np.empty(n, bool)
        change[0] = True
        np.not_equal(pages_all[1:], pages_all[:-1], out=change[1:])
        starts, lengths, run_writes, head_writes = _page_runs(change, writes)
        self._runs = (starts, lengths, pages_all[starts], run_writes,
                      head_writes)
        return self._runs


class TraceRunSkeleton:
    """The layout-independent half of the page-run pre-pass.

    Stream allocations are page-disjoint in every eligible layout
    (:func:`_skeleton_layout_ok`), so two consecutive accesses share a
    4 KB page iff they are in the same stream *and* the same page of that
    stream — a property of the symbolic trace alone.  The skeleton
    therefore computes, once per trace and in one pass over the
    accesses, the run decomposition and the *page alphabet*: the sorted
    unique ``(stream, in-stream page)`` pairs (``u_streams``/``u_opages``)
    with each run's index into it (``uidx``).  In an eligible layout
    distinct pairs are distinct pages, so per-page aggregates computed
    here are every layout's, up to the order
    :meth:`PageRunBatch.from_skeleton` sorts them into.
    """

    __slots__ = ("streams", "offsets", "writes", "starts", "lengths",
                 "run_writes", "head_writes", "head_poffs", "max_opage",
                 "min_opage", "u_streams", "u_opages", "uidx", "_written",
                 "_paggs")

    def __init__(self, trace):
        streams = np.asarray(trace.streams)
        offsets = np.asarray(trace.offsets, dtype=np.int64)
        writes = np.asarray(trace.writes)
        self.streams = streams
        self.offsets = offsets
        self.writes = writes
        self._written = self._paggs = None
        n = streams.shape[0]
        if n == 0:
            empty = np.empty(0, np.int64)
            self.starts = self.lengths = self.run_writes = empty
            self.head_writes = self.u_streams = self.u_opages = empty
            self.head_poffs = np.empty(0, np.uint16)
            self.uidx = np.empty(0, np.int32)
            self.max_opage = {}
            self.min_opage = 0
            return
        opage = offsets >> PAGE_SHIFT
        change = np.empty(n, bool)
        change[0] = True
        np.not_equal(streams[1:], streams[:-1], out=change[1:])
        change[1:] |= opage[1:] != opage[:-1]
        (self.starts, self.lengths, self.run_writes,
         self.head_writes) = _page_runs(change, writes)
        # Runs never span streams or pages, so the heads alone carry every
        # access's (stream, page) pair.
        head_offsets = offsets[self.starts]
        self.head_poffs = (head_offsets & ((1 << PAGE_SHIFT) - 1)).astype(
            np.uint16)
        head_opage = head_offsets >> PAGE_SHIFT
        self.min_opage = int(head_opage.min())
        span = max(int(head_opage.max()), 0) + 1
        keys = np.multiply(streams[self.starts], span, dtype=np.int64)
        keys += head_opage
        ukeys, self.uidx = _compact(keys)
        self.u_streams, self.u_opages = np.divmod(ukeys, span)
        # Sorted by (stream, page): each stream's last entry is its extent.
        last = np.flatnonzero(np.diff(self.u_streams, append=-1))
        self.max_opage = dict(zip(self.u_streams[last].tolist(),
                                  self.u_opages[last].tolist()))

    def written_pages(self) -> np.ndarray:
        """bool per alphabet page: whether any access stores, memoized."""
        if self._written is None:
            self._written = _written_flags(
                self.uidx, self.u_streams.shape[0], self.run_writes)
        return self._written

    def page_aggregates(self):
        """``(run_count, access_count, write_count)`` per alphabet page,
        memoized."""
        if self._paggs is None:
            self._paggs = _run_aggregates(
                self.uidx, self.u_streams.shape[0], self.lengths,
                self.run_writes, self.streams.shape[0])
        return self._paggs


def _skeleton_layout_ok(skel: TraceRunSkeleton, layout) -> bool:
    """Whether ``layout`` preserves the skeleton's run decomposition.

    Requires every accessed stream to have a page-aligned base, accesses
    to stay inside their stream's allocation, and the allocations' page
    ranges to be pairwise disjoint — together these guarantee a page
    change exactly where the stream or the in-stream page changes.
    """
    page = 1 << PAGE_SHIFT
    if skel.min_opage < 0:
        return False
    bases = layout.stream_bases
    spans = []
    for stream in skel.max_opage:
        base = bases.get(stream)
        size = layout.stream_sizes.get(stream, 0)
        if base is None or base % page or size <= 0:
            return False
        if skel.max_opage[stream] > (size - 1) >> PAGE_SHIFT:
            return False
        spans.append((base >> PAGE_SHIFT, (base + size - 1) >> PAGE_SHIFT))
    spans.sort()
    return all(prev_hi < lo for (_, prev_hi), (lo, _) in zip(spans, spans[1:]))


def batch_for(trace, layout, cache: dict | None = None) -> PageRunBatch:
    """The page-run batch of ``trace`` bound to ``layout``.

    Reuses two levels from ``cache`` when given: the finished per-layout
    batch (keyed by the concrete base addresses) and the per-trace
    :class:`TraceRunSkeleton` that makes a second layout's batch cost
    run-scale instead of access-scale.  Layouts the skeleton cannot serve
    exactly fall back to eager concretization.
    """
    bases = layout.stream_bases
    token = trace.content_token()
    key = (token, tuple(sorted(bases.items())))
    if cache is not None and key in cache:
        return cache[key]
    skel_key = ("skeleton", token)
    skel = cache.get(skel_key) if cache is not None else None
    if skel is None:
        skel = TraceRunSkeleton(trace)
        if cache is not None:
            cache[skel_key] = skel
    if _skeleton_layout_ok(skel, layout):
        max_stream = max(skel.max_opage, default=-1)
        bases_arr = np.zeros(max_stream + 1, dtype=np.int64)
        for stream, base in bases.items():
            if stream <= max_stream:
                bases_arr[stream] = base
        batch = PageRunBatch.from_skeleton(skel, bases_arr)
    else:
        addrs, writes = trace.concretize(bases)
        batch = PageRunBatch.from_trace(addrs, writes)
    if cache is not None:
        cache[key] = batch
    return batch


class _WalkTable:
    """Functional walk outcomes for a batch's unique pages, as columns."""

    __slots__ = ("ok", "perm", "pa_base", "identity", "blocks", "fixed",
                 "counts")

    def __init__(self, walker, upages: np.ndarray):
        info_for = walker.info_for
        ok, perm, pa_base, identity, blocks, fixed = [], [], [], [], [], []
        for page in upages.tolist():
            info = info_for(page)
            ok.append(info[0])
            perm.append(info[1])
            pa_base.append(info[2])
            identity.append(info[3])
            blocks.append(info[4])
            fixed.append(info[5])
        self.ok = np.array(ok, dtype=bool)
        self.perm = np.array(perm, dtype=np.int64)
        self.pa_base = pa_base          # python ints, used scalar-only
        self.identity = np.array(identity, dtype=bool)
        self.blocks = blocks            # list of block-id tuples
        self.fixed = np.array(fixed, dtype=np.int64)
        self.counts = np.array([len(b) for b in blocks], dtype=np.int64)
        if not self.ok.all():
            # A chunk-granular fault service (demand page-in, swap-in)
            # can heal a page after this eager memoization; drop not-ok
            # outcomes so post-service accesses — and the walk tables of
            # later replay segments — re-walk authoritatively instead of
            # faulting on a stale memo entry the pure scalar engine
            # would never have held.
            memo = walker._memo
            for page, page_ok in zip(upages.tolist(), self.ok.tolist()):
                if not page_ok:
                    memo.pop(page, None)

    @classmethod
    def narrowed(cls, base: "_WalkTable", base_upages: np.ndarray,
                 walker, upages: np.ndarray) -> "_WalkTable":
        """Rows of ``base`` gathered for a sub-batch's pages.

        Segment re-screens narrow the trace-wide table instead of
        re-walking every page: a page whose walk was ``ok`` at base-build
        time keeps an immutable walk outcome for the rest of the trace
        (fault services only *create* mappings — existing entries never
        move), so only the not-ok rows — pages an intervening bridge may
        have healed — are re-queried through the walker.  ``upages`` must
        be a subset of ``base_upages`` (any slice of the base trace is).
        """
        self = object.__new__(cls)
        pos = np.searchsorted(base_upages, upages)
        self.ok = base.ok[pos]
        self.perm = base.perm[pos]
        self.identity = base.identity[pos]
        self.fixed = base.fixed[pos]
        self.counts = base.counts[pos]
        idx = pos.tolist()
        self.pa_base = [base.pa_base[i] for i in idx]
        self.blocks = [base.blocks[i] for i in idx]
        stale = np.flatnonzero(~self.ok)
        if stale.size:
            info_for = walker.info_for
            memo = walker._memo
            for j in stale.tolist():
                page = int(upages[j])
                info = info_for(page)
                self.ok[j] = info[0]
                self.perm[j] = info[1]
                self.pa_base[j] = info[2]
                self.identity[j] = info[3]
                self.blocks[j] = info[4]
                self.fixed[j] = info[5]
                self.counts[j] = len(info[4])
                if not info[0]:
                    memo.pop(page, None)
        return self


# ---------------------------------------------------------------------------
# Exact LRU stream analysis
# ---------------------------------------------------------------------------

#: Max Σ_set (candidates × alphabet) for the per-key searchsorted scan.
_SCAN_OPS_BUDGET = 60_000_000
#: Max total gathered window elements for the ambiguous-band resolution.
_BAND_GATHER_BUDGET = 400_000_000


#: Max direct-table span for the linear-time factorization below.
_COMPACT_SPAN_BUDGET = 1 << 26


def _compact(values: np.ndarray):
    """(unique values, int32 inverse) — identical to sorted ``np.unique``.

    Page/VPN/walk-block alphabets span narrow ranges (the heap's), so a
    direct presence table factorizes the stream in linear time instead of
    ``np.unique``'s sort; the sort stays as the fallback for wide spans.
    """
    if not values.size:
        return values.astype(np.int64), np.empty(0, np.int32)
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    # The presence table costs O(span) regardless of input size, which
    # loses badly for short streams over a wide heap (segment replay
    # factorizes thousands of trace slices): keep it for streams dense
    # in their span, sort the sparse ones.
    if span <= _COMPACT_SPAN_BUDGET and span <= 64 * values.size:
        shifted = values - lo          # only ever used as an index column
        present = np.zeros(span, bool)
        present[shifted] = True
        # Rank of each span slot among the present ones == sorted-unique id.
        rank = np.cumsum(present, dtype=np.int32)
        rank -= 1
        uniq = np.flatnonzero(present).astype(np.int64)
        uniq += lo
        return uniq, rank[shifted]
    uniq, inverse = np.unique(values, return_inverse=True)
    return uniq, inverse.astype(np.int32)


class _StreamLRU:
    """Exact LRU outcome of one compact-id key stream over nsets × ways.

    All positional attributes are in global (chronological) stream
    coordinates: ``miss`` is the exact per-access miss mask; ``last_occ``
    / ``last_fill`` hold each id's final touch and final fill position
    (-1 when absent / never filled).
    """

    __slots__ = ("miss", "k", "counts", "last_occ", "last_fill", "sid_u",
                 "nsets", "ways")


def _pcum(flags: np.ndarray) -> np.ndarray:
    """Zero-prefixed int32 prefix sum of a boolean array."""
    out = np.empty(flags.size + 1, np.int32)
    out[0] = 0
    np.cumsum(flags, dtype=np.int32, out=out[1:])
    return out


def _scan_distances(cand, prev, order, starts, k):
    """Exact stack distances for ``cand`` via per-key occurrence scans.

    For each candidate window ``(prev, cand)`` and each key of the
    alphabet, one binary search decides whether the key occurs in the
    window; summing the indicators is the distinct count.  Exact, and
    cheap whenever the alphabet is small (AVC blocks, bitmap words,
    walk-cache blocks).
    """
    p = prev[cand]
    t = cand
    d = np.zeros(cand.size, np.int64)
    for u in range(k):
        occ = order[starts[u]:starts[u + 1]]
        if occ.size == 0:
            continue
        j = np.searchsorted(occ, p, side="right")
        d += (j < occ.size) & (occ[np.minimum(j, occ.size - 1)] < t)
    return d


def _tier_decide(cand, prev, gap, ways):
    """Exact miss decisions for ``cand`` via tiered distance bounds.

    The distinct count of window ``(p, t)`` equals the number of
    ``j in (p, t)`` whose previous occurrence is at or before ``p`` —
    i.e. whose reuse gap satisfies ``gap_j >= j - p``.  Bucketing offsets
    ``o = j - p`` into power-of-two tiers gives, from one family of
    reuse-gap prefix sums, a lower bound (``gap_j`` exceeds the tier's
    upper edge) and an upper bound (``gap_j`` exceeds its lower edge).
    A candidate is decided as soon as the lower bound reaches ``ways``
    (miss) or its window is exhausted with the upper bound below
    (hit).  Undecided candidates form a *band* whose gaps hug the
    ``gap ≈ o`` diagonal — short windows by construction — and are
    counted exactly with one gather.  Returns a per-candidate miss mask,
    or ``None`` when the band exceeds the vector-work budget.
    """
    nc = cand.size
    mc = gap.shape[0]
    pa = prev[cand].astype(np.int64)
    ta = cand.astype(np.int64)
    decided_miss = np.zeros(nc, bool)
    # Exact diagonal stage: element j at offset o = j - p satisfies
    # prev_j <= p iff gap_j >= o, so the first ways+1 offsets are counted
    # exactly with one gather per offset.  The o = 1 element always lies
    # in the window (candidates have gap > ways >= 1) and always counts.
    # A prefix count reaching `ways` is already a decided miss, and a
    # window no longer than ways+1 is fully counted — for typical
    # streams this decides almost every candidate before any tier work.
    if ways <= 64:
        d = np.ones(nc, np.int32)
        for o in range(2, ways + 2):
            j = pa + o
            d += (j < ta) & (gap[np.minimum(j, mc - 1)] >= o)
        decided_miss = d >= ways
        live = ~decided_miss & (ta - pa - 1 > ways + 1)
        rem = np.flatnonzero(live)
        pa = pa[rem]
        ta = ta[rem]
        upper = d[rem].copy()
        lower = d[rem].copy()
        e_lo = ways + 1
    else:
        rem = np.arange(nc)
        upper = np.ones(nc, np.int32)
        lower = np.ones(nc, np.int32)
        e_lo = 1
    band_p, band_t, band_r = [], [], []
    cum_next = _pcum(gap > e_lo) if rem.size else None
    while rem.size:
        cum_lo = cum_next          # prefix counts of gap > e_lo
        e_hi = e_lo << 1
        cum_next = _pcum(gap > e_hi)
        lo = np.minimum(pa + (e_lo + 1), ta)
        hi = np.minimum(pa + (e_hi + 1), ta)
        upper += cum_lo[hi] - cum_lo[lo]
        lower += cum_next[hi] - cum_next[lo]
        covered = hi == ta
        is_miss = lower >= ways
        is_hit = covered & ~is_miss & (upper < ways)
        in_band = covered & ~is_miss & ~is_hit
        if is_miss.any():
            decided_miss[rem[is_miss]] = True
        if in_band.any():
            band_p.append(pa[in_band])
            band_t.append(ta[in_band])
            band_r.append(rem[in_band])
        live = ~(is_miss | is_hit | in_band)
        rem = rem[live]
        pa = pa[live]
        ta = ta[live]
        upper = upper[live]
        lower = lower[live]
        e_lo = e_hi
    if band_r:
        pb = np.concatenate(band_p)
        tb = np.concatenate(band_t)
        br = np.concatenate(band_r)
        lens = tb - pb - 1
        total = int(lens.sum())
        if total > _BAND_GATHER_BUDGET:
            return None
        off = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        pb32 = pb.astype(np.int32)
        window = (np.arange(total, dtype=np.int32)
                  - np.repeat(off[:-1], lens)
                  + np.repeat(pb32 + 1, lens))
        in_count = prev[window] <= np.repeat(pb32, lens)
        csum = _pcum(in_count)
        d_band = csum[off[1:]] - csum[off[:-1]]
        decided_miss[br[d_band >= ways]] = True
    return decided_miss


def _simulate_lru(ids: np.ndarray, k: int, nsets: int, ways: int,
                  sid_u) -> _StreamLRU | None:
    """Exact per-access LRU hit/miss for a compact-id key stream.

    ``ids`` holds key ids in ``0..k-1``; ``sid_u`` maps each id to its set
    (``None`` when ``nsets == 1``).  Pure — touches no simulator state.
    Returns ``None`` when an exact classification would exceed the vector
    budgets (the caller then falls back to the scalar engine).
    """
    m = ids.shape[0]
    out = _StreamLRU()
    out.k = k
    out.sid_u = sid_u
    out.nsets = nsets
    out.ways = ways
    if m == 0:
        out.miss = np.zeros(0, bool)
        out.counts = np.zeros(k, np.int64)
        out.last_occ = np.full(k, -1, np.int64)
        out.last_fill = np.full(k, -1, np.int64)
        return out
    # The compiled replay kernel is the literal scalar algorithm (O(1)
    # recency lists instead of insertion-ordered dicts) and needs no
    # distance analysis at all; use it whenever the host can build it.
    native = _native.lru_sim(ids, k, nsets, ways, sid_u)
    if native is not None:
        out.miss, out.counts, out.last_occ, out.last_fill = native
        return out
    if nsets == 1:
        fa = _fa_lru(ids, k, ways)
        if fa is None:
            return None
        out.miss, out.counts, out.last_occ, out.last_fill = fa
        return out
    # Each set is an independent fully-associative LRU over its own
    # subsequence, so process sets one at a time: peak memory is one
    # set's arrays, and each set picks its own distance method.  The
    # subsequence positions (gpos) are monotone, so mapping the per-set
    # results back to global coordinates preserves occurrence order.
    sid = sid_u[ids]
    miss = np.zeros(m, bool)
    counts = np.zeros(k, np.int64)
    last_occ = np.full(k, -1, np.int64)
    last_fill = np.full(k, -1, np.int64)
    lid = np.empty(k, np.int32)
    for s in range(nsets):
        uk = np.flatnonzero(sid_u == s)
        if uk.size == 0:
            continue
        gpos = np.flatnonzero(sid == s)
        if gpos.size == 0:
            continue
        lid[uk] = np.arange(uk.size, dtype=np.int32)
        fa = _fa_lru(lid[ids[gpos]], uk.size, ways)
        if fa is None:
            return None
        miss_s, counts_s, lo_s, lf_s = fa
        miss[gpos] = miss_s
        counts[uk] = counts_s
        present = counts_s > 0
        ukp = uk[present]
        last_occ[ukp] = gpos[lo_s[present]]
        lfp = lf_s[present]
        last_fill[ukp] = np.where(
            lfp >= 0, gpos[np.maximum(lfp, 0)], -1)
    out.miss = miss
    out.counts = counts
    out.last_occ = last_occ
    out.last_fill = last_fill
    return out


def _fa_lru(ids: np.ndarray, k: int, ways: int):
    """Exact fully-associative LRU outcome for one key stream.

    Returns ``(miss, counts, last_occ, last_fill)`` in the stream's own
    coordinates, or ``None`` when exact classification would exceed the
    vector budgets.
    """
    m = ids.shape[0]
    # Consecutive-duplicate compression: a repeat of the MRU key is a
    # guaranteed hit that restores the dict to the same order, and a
    # duplicate never adds a distinct key to anyone's reuse window — so
    # distances over the deduplicated stream are unchanged, removed
    # positions are hits, and retained positions keep the ids' relative
    # last-touch order (a duplicate block is contiguous, so no other
    # id's touch can land inside it).
    keep = np.empty(m, bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    kept = np.flatnonzero(keep)
    mc = kept.shape[0]
    dedup = mc < m
    core = ids[kept] if dedup else ids
    counts = np.bincount(core, minlength=k).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(core, kind="stable")
    prev = np.full(mc, -1, np.int32)
    follower = np.ones(mc, bool)
    follower[starts[:-1]] = False
    idx = np.flatnonzero(follower)
    oi = order[idx]
    prev[oi] = order[idx - 1]
    del oi, idx, follower
    first = prev < 0
    gap = np.arange(mc, dtype=np.int32) - prev
    gap[first] = np.iinfo(np.int32).max  # sentinel: exceeds every tier edge
    miss_core = first.copy()
    if k > ways:
        cand = np.flatnonzero(~first & (gap > ways))
        if cand.size:
            if cand.size * k <= _SCAN_OPS_BUDGET:
                d = _scan_distances(cand, prev, order, starts, k)
                miss_core[cand[d >= ways]] = True
            else:
                decided = _tier_decide(cand, prev, gap, ways)
                if decided is None:
                    return None
                miss_core[cand[decided]] = True
    nonempty = counts > 0
    last_w = order[starts[1:] - 1]
    last_occ = np.full(k, -1, np.int64)
    last_occ[nonempty] = (kept[last_w[nonempty]] if dedup
                          else last_w[nonempty])
    last_fill = np.full(k, -1, np.int64)
    if nonempty.any():
        fillpos = np.where(miss_core[order], order, -1)
        lf = np.maximum.reduceat(fillpos, starts[:-1][nonempty])
        if dedup:
            lf = np.where(lf >= 0, kept[np.maximum(lf, 0)], -1)
        last_fill[nonempty] = lf
    if dedup:
        miss = np.zeros(m, bool)
        miss[kept] = miss_core
    else:
        miss = miss_core
    return miss, counts, last_occ, last_fill


def _residents(lru: _StreamLRU) -> np.ndarray:
    """Ids resident at end of stream, ascending by last touch.

    An LRU set holds exactly its ``ways`` most-recently-touched distinct
    keys (every access promotes to MRU), and its dict iterates in
    ascending last-touch order — so the final state is a per-set top-k
    selection over last occurrences.
    """
    present = np.flatnonzero(lru.counts > 0)
    by_touch = present[np.argsort(lru.last_occ[present], kind="stable")]
    if lru.nsets == 1:
        return by_touch[-lru.ways:]
    # Per-set top-`ways` by recency, vectorized: stable-sort the reversed
    # (most-recent-first) sequence by set id, rank each element within
    # its set group, and keep ranks below the associativity.
    sids = lru.sid_u[by_touch].astype(np.int64)
    rev = sids[::-1]
    order = np.argsort(rev, kind="stable")
    group_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(rev, minlength=lru.nsets))))[:-1]
    rank = np.empty(rev.size, np.int64)
    rank[order] = np.arange(rev.size) - group_starts[rev[order]]
    keep = (rank < lru.ways)[::-1]
    return by_touch[keep]


def _rebuild_cache(cache, lru: _StreamLRU, ukeys: np.ndarray) -> None:
    """Recreate a block cache's end-of-segment contents (last-touch order).

    Pre-existing (warm) blocks were primed into the replay, so they are
    part of ``lru``'s recency order: flush and reinstall everything.
    """
    cache.invalidate_all()
    blocks = ukeys[_residents(lru)].tolist()
    fill = getattr(cache, "fill_blocks", None)
    (fill if fill is not None else cache.install_blocks)(blocks)


def _rebuild_tlb(tlb, lru: _StreamLRU, u_vpns: np.ndarray,
                 head_vas: np.ndarray, page_idx: np.ndarray,
                 table: _WalkTable, prime_count: int = 0,
                 warm_entries=None) -> None:
    """Recreate the TLB's contents, entries recomputed at each last fill.

    Stream positions below ``prime_count`` are the warm-resident priming
    prefix: a resident whose last fill is a prime touch was never
    re-walked, so it keeps its pre-trace entry value from
    ``warm_entries``.
    """
    tshift = tlb.page_shift
    install = tlb.install
    bases = table.pa_base
    warm_value = dict(warm_entries) if warm_entries else None
    tlb.invalidate_all()
    for u in _residents(lru).tolist():
        vpn = int(u_vpns[u])
        h = int(lru.last_fill[u])
        if h < prime_count:
            install(vpn, warm_value[vpn])
            continue
        h -= prime_count
        pidx = int(page_idx[h])
        va = int(head_vas[h])
        install(vpn, (bases[pidx] - ((va & ~0xFFF) - (vpn << tshift)),
                      int(table.perm[pidx])))


def _walk_lru(cache, table: _WalkTable, page_idx: np.ndarray,
              prime_blocks=None):
    """Exact LRU analysis of the walk-block stream selected by ``page_idx``.

    Event ``e`` walks page ``page_idx[e]``, touching its blocks in walk
    order.  ``prime_blocks`` (resident block ids, LRU-to-MRU within each
    set) prepends one pseudo single-block event per warm block, so a warm
    cache — a mid-trace replay segment's starting state — replays exactly
    as if those blocks had just been touched.  Returns ``(lru, ublocks,
    event_miss)`` — the stream's :class:`_StreamLRU` (totals come from
    ``event_miss``; its ``miss`` mask may be ``None``) plus per-real-event
    miss counts — or ``None`` when exact classification would exceed the
    vector budgets.  The compiled indirect kernel is preferred: it replays
    straight from the per-page block table and never materializes the
    expanded stream.
    """
    flat_blocks = np.array(
        [b for blocks in table.blocks for b in blocks], np.int64)
    counts = table.counts
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    nf = int(flat_blocks.shape[0])
    npages = int(counts.shape[0])
    prime = len(prime_blocks) if prime_blocks else 0
    if prime:
        # Warm blocks become pseudo pages npages..npages+prime-1, one flat
        # slot each; the priming events touch them first, in residency
        # order, so the replay starts from the cache's true warm state.
        all_blocks = np.concatenate(
            (flat_blocks, np.asarray(prime_blocks, np.int64)))
        ublocks, flat_ids = _compact(all_blocks)
        offsets = np.concatenate(
            (offsets, (nf + np.arange(1, prime + 1)).astype(np.int32)))
        counts = np.concatenate((counts, np.ones(prime, np.int64)))
        page_idx = np.concatenate(
            (npages + np.arange(prime, dtype=np.int64),
             np.asarray(page_idx, np.int64)))
    else:
        ublocks, flat_ids = _compact(flat_blocks)
    k = ublocks.shape[0]
    sid_u = ((ublocks % cache.num_sets).astype(np.int16)
             if cache.num_sets > 1 else None)
    native = _native.lru_walk(page_idx, offsets, flat_ids, k,
                              cache.num_sets, cache.ways, sid_u)
    if native is not None:
        event_miss, counts_k, last_occ, last_fill = native
        lru = _StreamLRU()
        lru.miss = None
        lru.k = k
        lru.counts = counts_k
        lru.last_occ = last_occ
        lru.last_fill = last_fill
        lru.sid_u = sid_u
        lru.nsets = cache.num_sets
        lru.ways = cache.ways
        return lru, ublocks, event_miss[prime:]
    stream, out_off = _walk_block_stream(counts, page_idx, flat_ids, offsets)
    lru = _simulate_lru(stream, k, cache.num_sets, cache.ways, sid_u)
    if lru is None:
        return None
    cs = np.empty(lru.miss.shape[0] + 1, np.int64)
    cs[0] = 0
    np.cumsum(lru.miss, dtype=np.int64, out=cs[1:])
    event_miss = cs[out_off[1:]]
    event_miss -= cs[out_off[:-1]]
    return lru, ublocks, event_miss[prime:]


def _walk_block_stream(counts: np.ndarray, page_idx: np.ndarray,
                       flat_ids: np.ndarray, block_offsets: np.ndarray):
    """(compact ids, per-event offsets) of a materialized walk stream.

    The numpy fallback behind :func:`_walk_lru`: ``page_idx`` selects the
    walked page per event, in order; the stream concatenates each page's
    walk blocks.
    """
    starts_per = block_offsets[page_idx]
    if counts.size and counts.min() == counts.max():
        # Uniform walk depth: the stream is a dense (events x depth)
        # matrix; build it with one broadcast add, no repeats.
        depth = int(counts[0])
        out_off = np.arange(page_idx.shape[0] + 1, dtype=np.int64)
        out_off *= depth
        gather = starts_per[:, None] + np.arange(depth, dtype=np.int32)
        stream = flat_ids[gather.ravel()]
        return stream, out_off
    counts_per = counts.astype(np.int32)[page_idx]
    out_off = np.concatenate(
        ([0], np.cumsum(counts_per, dtype=np.int64)))
    total = int(out_off[-1])
    # One repeat: each event contributes a contiguous ramp starting at
    # its page's first block slot.
    shift = starts_per.astype(np.int64)
    shift -= out_off[:-1]
    gather = np.arange(total, dtype=np.int64)
    gather += np.repeat(shift, counts_per)
    stream = flat_ids[gather]
    return stream, out_off


# ---------------------------------------------------------------------------
# Fault screens: predicting where the scalar loops could fault
# ---------------------------------------------------------------------------

def _warm_tlb_entries(tlb):
    """Resident ``(vpn, entry)`` pairs, LRU-to-MRU within each set."""
    return [(vpn, entry) for tlb_set in tlb._sets
            for vpn, entry in tlb_set.items()]


def _vpn_alphabet(tlb, upages: np.ndarray, warm):
    """TLB-region alphabet of a page table plus warm residents.

    Returns ``(u_vpns, vid_of_upage, prime_vids)``: the compact region
    ids of each unique page and of each warm entry (in ``warm``'s
    order), over one shared alphabet so warm residents can be primed
    into the same LRU replay.
    """
    tshift = tlb.page_shift
    page_vpns = upages >> (tshift - PAGE_SHIFT)
    warm_vpns = np.array([vpn for vpn, _ in warm], np.int64)
    u_vpns, ids = _compact(np.concatenate((page_vpns, warm_vpns)))
    return u_vpns, ids[:upages.shape[0]], ids[upages.shape[0]:]


def _post_perms(iommu, upages: np.ndarray, table: _WalkTable) -> np.ndarray:
    """Predicted per-page permission after any successful fault service.

    Mirrors :meth:`repro.kernel.fault.FaultHandler._classify_and_service`
    without mutating anything: a mapped page keeps its walked permission;
    a swapped page returns at its pre-swap permission when a reclaimer
    exists; an unmapped page inside a non-identity allocation comes in at
    its VMA's protection.  Everything else services to 0 — meaning the
    first delivered fault escalates, which the segment plan handles by
    bridging the fault site (the scalar bridge aborts exactly as the
    scalar engine would).
    """
    post = np.where(table.ok, table.perm, 0)
    bad = np.flatnonzero(~table.ok)
    if not bad.size:
        return post
    handler = iommu.fault_path.handler
    page_table = handler.process.page_table
    vmm = handler.process.vmm
    has_reclaimer = getattr(handler.kernel, "reclaimer", None) is not None
    for i in bad.tolist():
        va = int(upages[i]) << PAGE_SHIFT
        result = page_table.walk(va)
        if result.ok:
            post[i] = result.perm
        elif result.swapped:
            post[i] = result.perm if has_reclaimer else 0
        else:
            alloc = vmm.allocation_at(va)
            if alloc is not None and not alloc.identity:
                post[i] = alloc.vma.perm
            else:
                post[i] = 0
    return post


def _first_fault_heads(iommu, upages: np.ndarray, table: _WalkTable,
                       first_pos: np.ndarray) -> np.ndarray:
    """Reduce per-page first-fault positions to distinct fault sites.

    ``first_pos`` holds the global access position of each unique page's
    first possible fault (-1 when it cannot fault).  Servicing an
    unmapped page inside a demand allocation populates its whole
    policy-size chunk (:meth:`~repro.kernel.vm_syscalls.VMM.
    populate_for_fault`), so later first accesses to sibling pages of
    the same aligned chunk never fault — only the earliest position per
    heal window is a real fault site.  Swapped pages, misaligned or
    short windows, and mapped-but-denied pages heal (or abort) one page
    at a time and keep their own positions.  Returns the sorted
    candidate positions.
    """
    handler = iommu.fault_path.handler
    page_table = handler.process.page_table
    vmm = handler.process.vmm
    chunk_size = vmm.policy.page_size
    singles: list[int] = []
    chunks: dict[int, int] = {}
    for i in np.flatnonzero(first_pos >= 0).tolist():
        pos = int(first_pos[i])
        if table.ok[i]:
            singles.append(pos)
            continue
        va = int(upages[i]) << PAGE_SHIFT
        result = page_table.walk(va)
        if result.ok or result.swapped:
            singles.append(pos)
            continue
        alloc = vmm.allocation_at(va)
        if alloc is None or alloc.identity:
            singles.append(pos)
            continue
        cs = max(va & ~(chunk_size - 1), alloc.va)
        chunk = min(chunk_size, alloc.va + alloc.size - cs)
        if cs % chunk_size or chunk < chunk_size:
            # populate_for_fault falls back to a single 4 KB page here:
            # no sibling healing, every such page faults on its own.
            singles.append(pos)
            continue
        prev = chunks.get(cs)
        if prev is None or pos < prev:
            chunks[cs] = pos
    return np.array(sorted(singles + list(chunks.values())), np.int64)


def _page_positions_mask(batch: PageRunBatch,
                         flag_u: np.ndarray) -> np.ndarray:
    """Boolean per-access mask covering every access to flagged pages.

    ``flag_u`` is indexed like the batch's unique pages.  Built from run
    boundary deltas (one bincount pair), never a per-access scatter.
    """
    n = batch.num_accesses
    _upages, uidx = batch.unique_pages()
    sel = np.flatnonzero(flag_u[uidx])
    starts = batch.starts[sel]
    ends = starts + batch.lengths[sel]
    delta = np.bincount(starts, minlength=n + 1)
    delta -= np.bincount(ends, minlength=n + 1)
    return np.cumsum(delta)[:n] > 0


def _conv_fault_candidates(iommu, tlb, upages: np.ndarray,
                           uidx: np.ndarray, written_u: np.ndarray,
                           head_positions: np.ndarray, table: _WalkTable):
    """Fault-candidate analysis of one TLB-fronted (sub)stream.

    ``upages``/``uidx``/``table`` describe the substream's unique pages
    and each run's page; ``written_u`` flags pages with any written run;
    ``head_positions`` holds each run head's global access position.
    Returns ``(status, cand_positions, flag_pages)``:

    * ``"clean"`` — no access of the substream can fault;
    * ``"legacy"`` — faults are possible but no fault path is attached
      (the raise-on-fault contract needs the scalar loops end to end);
    * ``"budget"`` — the TLB replay exceeded the vector budgets;
    * ``"faulty"`` — ``cand_positions`` are the sorted global positions
      of predicted fault sites (first TLB-miss walk of each faultable
      page, reduced by heal window) and ``flag_pages`` marks unique
      pages whose *every* access must run on the scalar bridge (their
      TLB region can hold an entry that write-faults on a hit — a
      mosaic the region-granular TLB makes order-dependent).
    """
    eff0 = np.where(table.ok, table.perm, 0)
    bad = eff0 < 1
    u = upages.shape[0]
    warm = _warm_tlb_entries(tlb)
    u_vpns, vid_of_upage, prime_vids = _vpn_alphabet(tlb, upages, warm)
    nvr = u_vpns.shape[0]
    fault_path = iommu.fault_path
    post = eff0 if fault_path is None else _post_perms(iommu, upages, table)
    # Region write-unsafety: a store in region R hits whatever entry R
    # holds — filled at some member page's post-service permission, or
    # pre-trace (warm).  If any such entry can carry perm != 2, a store
    # can hit-fault, and the service/refill order is only defined by the
    # scalar loop: bridge every access of R's member pages.
    counts_r = np.bincount(vid_of_upage, minlength=nvr)
    nonempty = counts_r > 0
    order = np.argsort(vid_of_upage, kind="stable")
    rs = np.concatenate(([0], np.cumsum(counts_r)))[:-1][nonempty]
    min_post = np.minimum.reduceat(post[order], rs)
    any_written = np.maximum.reduceat(
        written_u[order].astype(np.int8), rs) > 0
    warm_unsafe = np.zeros(nvr, bool)
    for j, (_vpn, entry) in enumerate(warm):
        if entry[1] != 2:
            warm_unsafe[prime_vids[j]] = True
    unsafe_r = np.zeros(nvr, bool)
    vids_ne = np.flatnonzero(nonempty)
    unsafe_r[vids_ne] = any_written & ((min_post != 2)
                                       | warm_unsafe[vids_ne])
    if not bad.any() and not unsafe_r.any():
        return "clean", None, None
    if fault_path is None:
        return "legacy", None, None
    flag_pages = unsafe_r[vid_of_upage]
    # Remaining faultable pages can only fault at their first TLB-miss
    # walk (a region hit serves them at the entry's permission, and
    # entry permissions are always >= 1): find each page's first miss
    # with a warm-primed exact replay, then merge heal windows.
    need = bad & ~flag_pages
    cand = np.empty(0, np.int64)
    if need.any():
        vids = vid_of_upage[uidx]
        if prime_vids.size:
            vids = np.concatenate((prime_vids, vids))
        sid_u = ((u_vpns % tlb.num_sets).astype(np.int16)
                 if tlb.num_sets > 1 else None)
        tlb_lru = _simulate_lru(vids, nvr, tlb.num_sets, tlb.ways, sid_u)
        if tlb_lru is None:
            return "budget", None, None
        miss_heads = np.flatnonzero(tlb_lru.miss[prime_vids.shape[0]:])
        # Each page's first miss, via reverse fancy assignment (last
        # write wins) — O(#misses) instead of a sort.
        first_pos = np.full(u, -1, np.int64)
        rev = miss_heads[::-1]
        first_pos[uidx[rev]] = head_positions[rev]
        first_pos[~need] = -1
        cand = _first_fault_heads(iommu, upages, table, first_pos)
    return "faulty", cand, flag_pages


# ---------------------------------------------------------------------------
# Engine entry
# ---------------------------------------------------------------------------

def _walk_table(walker, upages: np.ndarray, parent) -> _WalkTable:
    """A batch's walk table — narrowed from the trace-wide parent screen's
    when segment replay provides one, built from the walker otherwise."""
    if parent is not None and "table" in parent:
        return _WalkTable.narrowed(parent["table"], parent["upages"],
                                   walker, upages)
    return _WalkTable(walker, upages)


def _screen_conventional(iommu, batch: PageRunBatch, parent=None):
    """Fault screen for the conventional TLB + PWC configuration."""
    upages, uidx = batch.unique_pages()
    table = _walk_table(iommu.walker, upages, parent)
    status, cand, flag_pages = _conv_fault_candidates(
        iommu, iommu.tlb, upages, uidx, batch.written_pages(), batch.starts,
        table)
    if status == "clean":
        return "clean", None, {"table": table}
    if status != "faulty":
        return status, None, None
    mask = np.zeros(batch.num_accesses, bool)
    if cand.size:
        mask[cand] = True
    # Site-exact faults (first TLB-miss walk of each faultable page) are
    # eligible for pre-delivery; a flagged region's hit-faults are order-
    # dependent and need the scalar bridge.
    sites = cand if not flag_pages.any() else None
    if flag_pages.any():
        mask |= _page_positions_mask(batch, flag_pages)
    return "faulty", mask, {"upages": upages, "table": table,
                            "sites": sites}


def _screen_bitmap(iommu, batch: PageRunBatch, parent=None):
    """Fault screen for DVM-BM (bitmap identity + conventional fallback)."""
    bitmap = iommu.perm_bitmap
    walker = iommu.walker
    upages, uidx = batch.unique_pages()
    u = upages.shape[0]
    perms = bitmap._perms
    bitmap_perm = np.array([int(perms.get(p, 0)) for p in upages.tolist()],
                           np.int64)
    identity_u = bitmap_perm > 0
    bad_ident = identity_u & batch.written_pages() & (bitmap_perm != 2)
    # Fallback (non-identity) substream: the conventional machinery,
    # over only the fallback runs — the scalar loop never walks or TLB-
    # probes identity pages, so neither may the screen.
    if identity_u.all():
        fb_runs = np.empty(0, np.int64)
    else:
        fb_runs = np.flatnonzero(~identity_u[uidx])
    fb_status, fb_cand, fb_flag = "clean", None, None
    fb_umask = fb_upages = remap = table = None
    if fb_runs.size:
        fb_umask = np.zeros(u, bool)
        fb_umask[uidx[fb_runs]] = True
        fb_upages = upages[fb_umask]
        remap = np.full(u, -1, np.int32)
        remap[fb_umask] = np.arange(fb_upages.shape[0], dtype=np.int32)
        table = _walk_table(walker, fb_upages, parent)
        fb_pidx = remap[uidx[fb_runs]]
        fb_written = np.zeros(fb_upages.shape[0], bool)
        fb_written[fb_pidx[batch.run_writes[fb_runs] > 0]] = True
        fb_status, fb_cand, fb_flag = _conv_fault_candidates(
            iommu, iommu.tlb, fb_upages, fb_pidx, fb_written,
            batch.starts[fb_runs], table)
    if fb_status == "budget":
        return "budget", None, None
    if not bad_ident.any() and fb_status == "clean":
        carry = {"bitmap_perm": bitmap_perm,
                 "fb": (fb_runs, fb_umask, fb_upages, remap, table)}
        return "clean", None, carry
    if iommu.fault_path is None or fb_status == "legacy":
        return "legacy", None, None
    flag_u = np.zeros(u, bool)
    if bad_ident.any():
        # A violating identity store's fault delivery pops its vpn's TLB
        # entry, which can evict a resident *fallback* translation —
        # bridge every access sharing a TLB region with a bad identity
        # page so the replay never has to model that pop.
        tshift = iommu.tlb.page_shift
        u_vpns, vid_of_upage = _compact(upages >> (tshift - PAGE_SHIFT))
        bad_vids = np.zeros(u_vpns.shape[0], bool)
        bad_vids[vid_of_upage[bad_ident]] = True
        flag_u |= bad_vids[vid_of_upage]
    if fb_flag is not None and fb_flag.any():
        flag_u[np.flatnonzero(fb_umask)[fb_flag]] = True
    mask = np.zeros(batch.num_accesses, bool)
    if flag_u.any():
        mask |= _page_positions_mask(batch, flag_u)
    if fb_cand is not None and fb_cand.size:
        mask[fb_cand] = True
    # Pre-delivery needs every fault site-exact: fallback-page first-miss
    # walks qualify; bad identity stores and flagged regions are order-
    # dependent (hit faults) and need the scalar bridge.
    sites = (fb_cand if not bad_ident.any() and not flag_u.any()
             else None)
    if fb_upages is None:
        return "faulty", mask, {"sites": sites}
    return "faulty", mask, {"upages": fb_upages, "table": table,
                            "sites": sites}


def _walks_fit_sets(cache, table: "_WalkTable") -> bool:
    """Whether every walk's blocks co-reside in the AVC after its head.

    The DAV fast path replays the AVC once per page-run *head*, relying
    on interior accesses re-touching the same resident blocks.  That
    holds only if no single walk puts more distinct blocks into one
    cache set than the set has ways — otherwise the walk self-evicts
    and the scalar loop re-misses on every interior access.  The common
    geometries pass the cheap depth bound; the exact per-set count only
    runs for shallow-associativity configurations.
    """
    counts = table.counts
    if counts.size == 0 or int(counts.max()) <= cache.ways:
        return True
    nsets, ways = cache.num_sets, cache.ways
    for blocks in table.blocks:
        if len(blocks) <= ways:
            continue
        per_set: dict[int, int] = {}
        for blk in set(blocks):
            sid = blk % nsets
            load = per_set.get(sid, 0) + 1
            if load > ways:
                return False
            per_set[sid] = load
    return True


def _screen_dav(iommu, batch: PageRunBatch, parent=None):
    """Fault screen for DVM-PE / DVM-PE+ (DAV walks every access)."""
    upages, uidx = batch.unique_pages()
    u = upages.shape[0]
    table = _walk_table(iommu.walker, upages, parent)
    if not _walks_fit_sets(iommu.walker.cache, table):
        return "walk_set_pressure", None, None
    eff0 = np.where(table.ok, table.perm, 0)
    bad = eff0 < 1
    fault_path = iommu.fault_path
    post = eff0 if fault_path is None else _post_perms(iommu, upages, table)
    wbad = batch.written_pages() & (post != 2)
    if not bad.any() and not wbad.any():
        return "clean", None, {"table": table}
    if fault_path is None:
        return "legacy", None, None
    mask = np.zeros(batch.num_accesses, bool)
    # Every access walks, so a faultable page faults at its very first
    # access; merge heal windows as usual.  Reverse fancy assignment
    # (last write wins) finds each page's first run in O(m) — the runs
    # cover every unique page, so no sort and no presence check needed.
    first_of = np.empty(u, np.int64)
    first_of[uidx[::-1]] = np.arange(uidx.shape[0] - 1, -1, -1)
    first_pos = np.where(bad, batch.starts[first_of], -1)
    cand = _first_fault_heads(iommu, upages, table, first_pos)
    if cand.size:
        mask[cand] = True
    # A store without write permission always escalates (a spurious
    # service would need perm == 2, contradicting wbad), so the scalar
    # run never gets past a page's first written run: bridging that run
    # covers the abort site.
    sites = cand
    if wbad.any():
        wr = np.flatnonzero(batch.run_writes > 0)
        first_w = np.full(u, -1, np.int64)
        first_w[uidx[wr[::-1]]] = wr[::-1]
        # wbad pages are written by definition, so first_w is valid here.
        wruns = first_w[wbad]
        writes_arr = np.asarray(batch.writes)
        wsites = []
        for r in wruns.tolist():
            s = int(batch.starts[r])
            end = s + int(batch.lengths[r])
            mask[s:end] = True
            # DAV checks permissions on every access, so the page's
            # first written access — first store of its first written
            # run — is exactly where the scalar loop faults.
            wsites.append(s + int(np.argmax(writes_arr[s:end] > 0)))
        sites = np.sort(np.concatenate((cand, np.array(wsites, np.int64))))
    return "faulty", mask, {"upages": upages, "table": table,
                            "sites": sites}


def run_batch(iommu, batch: PageRunBatch, stats) -> "EngineOutcome":
    """Run ``batch`` through ``iommu``'s configuration on the fast path.

    Fills ``stats`` (a :class:`~repro.hw.iommu.TimingStats` without
    energy, which the caller finalizes once) and mutates the IOMMU's
    lookup structures to their exact end-of-trace state.  Fault-bearing
    traces replay by pre-delivering site-exact faults, or as fault-free
    segments stitched by scalar bridges (see the module docstring).
    Returns an :class:`EngineOutcome`; a falsy
    outcome means **no** state was modified and the caller must run the
    scalar loops.
    """
    if faults.active():
        # A chaos injector is configured: perturbing injections
        # (alloc_oom relayouts, mid-trace guest faults) void the batch
        # replay's fault-free-prefix reasoning, so chaos-seeded sweeps
        # intentionally stay on the scalar loops (docs/configuration.md).
        return EngineOutcome(False, reason="chaos")
    mech = iommu.config.mech
    if mech == "ideal":
        _fast_ideal(iommu, batch, stats)
        return EngineOutcome(True, segments=1)
    if mech == "conventional":
        if iommu.tlb_l2 is not None:
            return EngineOutcome(False, reason="tlb_l2")
        screen, fast = _screen_conventional, _fast_conventional
    elif mech == "dvm_bm":
        screen, fast = _screen_bitmap, _fast_bitmap
    else:
        screen, fast = _screen_dav, functools.partial(
            _fast_dav, preload=(mech == "dvm_pe_plus"))
    status, mask, carry = screen(iommu, batch)
    if status == "clean":
        if not fast(iommu, batch, stats, carry):
            return EngineOutcome(False, reason="budget")
        return EngineOutcome(True, segments=1)
    if status == "legacy":
        return EngineOutcome(False, reason="legacy_fault_path")
    if status == "budget":
        return EngineOutcome(False, reason="budget")
    if status == "walk_set_pressure":
        # A single walk overflows an AVC set (see _walks_fit_sets): the
        # per-head replay's residency assumption is unsound, so the
        # scalar loop is the only exact model of the thrashing cache.
        return EngineOutcome(False, reason="walk_set_pressure")
    if not fault_segments_enabled():
        return EngineOutcome(False, reason="fault_segments_disabled")
    sites = carry.get("sites") if carry else None
    if sites is not None and sites.size:
        outcome = _run_predelivered(iommu, batch, stats, sites, screen,
                                    fast, carry)
        if outcome is not None:
            return outcome
    return _run_segmented(iommu, batch, stats, mask, screen, fast,
                          parent=carry)


def _fast_ideal(iommu, batch: PageRunBatch, stats) -> None:
    n = batch.num_accesses
    nwrites = int(batch.run_writes.sum())
    stats.accesses += n
    stats.writes += nwrites
    stats.reads += n - nwrites
    iommu.dram.stats.data_accesses += n
    if n:
        iommu.dram.account_rows_runs(batch.pages, batch.lengths)


# ---------------------------------------------------------------------------
# Conventional: TLB + page-walk cache
# ---------------------------------------------------------------------------

def _tlb_walk_analysis(tlb, walker, upages: np.ndarray, uidx: np.ndarray,
                       table: _WalkTable):
    """Analyse a TLB-fronted walk stream (the conventional hot path).

    ``uidx`` indexes each head's page into ``upages``/``table``.  Warm
    TLB entries and resident walk-cache blocks are primed into the LRU
    replays, so the analysis is exact from any mid-trace state — a
    segment start, or a rerun over warm structures.  Pure: returns
    ``None`` for scalar fallback (vector budgets), else ``(walks,
    walk_sram, walk_mem, fixed_total, tlb_lru, u_vpns, prime, warm,
    cache_lru, ublocks)`` with the rebuild inputs for the caller's
    commit.
    """
    # vpn = va >> tshift == page >> (tshift - 12), so the TLB alphabet is
    # derived from the (small) unique-page table, not the head stream.
    warm = _warm_tlb_entries(tlb)
    u_vpns, vid_of_upage, prime_vids = _vpn_alphabet(tlb, upages, warm)
    prime = int(prime_vids.shape[0])
    vids = vid_of_upage[uidx]
    if prime:
        vids = np.concatenate((prime_vids, vids))
    sid_u = ((u_vpns % tlb.num_sets).astype(np.int16)
             if tlb.num_sets > 1 else None)
    tlb_lru = _simulate_lru(vids, u_vpns.shape[0], tlb.num_sets, tlb.ways,
                            sid_u)
    if tlb_lru is None:
        return None
    miss_heads = np.flatnonzero(tlb_lru.miss[prime:])
    walks = int(miss_heads.shape[0])
    walked_pidx = uidx[miss_heads]
    walk_sram = int(table.counts[walked_pidx].sum())
    fixed_total = int(table.fixed[walked_pidx].sum())
    res = _walk_lru(walker.cache, table, walked_pidx,
                    prime_blocks=walker.cache.resident_blocks())
    if res is None:
        return None
    cache_lru, ublocks, event_miss = res
    walk_mem = fixed_total + int(event_miss.sum())
    return (walks, walk_sram, walk_mem, fixed_total, tlb_lru, u_vpns,
            prime, warm, cache_lru, ublocks)


def _fast_conventional(iommu, batch: PageRunBatch, stats, carry) -> bool:
    tlb = iommu.tlb
    walker = iommu.walker
    n = batch.num_accesses
    m = batch.num_runs
    dram = iommu.dram
    if m == 0:
        return True
    upages, uidx = batch.unique_pages()
    table = carry["table"]
    analysis = _tlb_walk_analysis(tlb, walker, upages, uidx, table)
    if analysis is None:
        return False
    (walks, walk_sram, walk_mem, fixed_total, tlb_lru, u_vpns,
     prime, warm, cache_lru, ublocks) = analysis
    # --- analyses done (pure); state mutation may begin ------------------
    head_vas = batch.head_vas()
    _rebuild_cache(walker.cache, cache_lru, ublocks)
    _rebuild_tlb(tlb, tlb_lru, u_vpns, head_vas, uidx, table,
                 prime_count=prime, warm_entries=warm)
    cache_misses = walk_mem - fixed_total
    dram.stats.data_accesses += n
    dram.stats.walk_accesses += walk_mem
    dram.account_rows_runs(batch.pages, batch.lengths)
    tlb.stats.hits += n - walks
    tlb.stats.misses += walks
    cache = walker.cache
    cache.stats.hits += walk_sram - cache_misses
    cache.stats.misses += cache_misses
    nwrites = int(batch.run_writes.sum())
    stats.accesses += n
    stats.writes += nwrites
    stats.reads += n - nwrites
    stats.sram_stall_cycles += walk_sram
    stats.mem_stall_cycles += walk_mem * dram.walk_latency
    stats.tlb_lookups += n
    stats.tlb_misses += walks
    stats.walks += walks
    stats.walk_sram_accesses += walk_sram
    stats.walk_mem_accesses += walk_mem
    return True


# ---------------------------------------------------------------------------
# DVM-BM: permission bitmap + bitmap cache, TLB fallback
# ---------------------------------------------------------------------------

def _fast_bitmap(iommu, batch: PageRunBatch, stats, carry) -> bool:
    bitmap = iommu.perm_bitmap
    tlb = iommu.tlb
    walker = iommu.walker
    bm_cache = bitmap.cache
    n = batch.num_accesses
    m = batch.num_runs
    dram = iommu.dram
    if m == 0:
        return True
    upages, uidx = batch.unique_pages()
    bitmap_perm = carry["bitmap_perm"]
    fb_runs, fb_umask, fb_upages, remap, table = carry["fb"]
    _run_count, access_count, write_count = batch.page_aggregates()
    identity_pages = bitmap_perm > 0
    fb_analysis = None
    fb_pidx = None
    if fb_runs.shape[0]:
        # Walk state evolves only for fallback pages — the scalar loop
        # never walks identity pages, so neither may the replay.
        fb_pidx = remap[uidx[fb_runs]]
        fb_analysis = _tlb_walk_analysis(tlb, walker, fb_upages, fb_pidx,
                                         table)
        if fb_analysis is None:
            return False
    # Bitmap-cache stream: one probe per head (interiors re-touch at
    # MRU).  Resident bitmap words prime the replay so warm segments
    # evolve exactly like the scalar probe sequence.
    bm_base_block = bitmap.base_pa >> 3
    warm_words = np.asarray(bm_cache.resident_blocks(), np.int64)
    u_words, wid_ids = _compact(
        np.concatenate((bm_base_block + (upages >> 5), warm_words)))
    wid_of_upage = wid_ids[:upages.shape[0]]
    prime_wids = wid_ids[upages.shape[0]:]
    wids = wid_of_upage[uidx]
    if prime_wids.shape[0]:
        wids = np.concatenate((prime_wids, wids))
    bm_sid_u = ((u_words % bm_cache.num_sets).astype(np.int16)
                if bm_cache.num_sets > 1 else None)
    bm_lru = _simulate_lru(wids, u_words.shape[0], bm_cache.num_sets,
                           bm_cache.ways, bm_sid_u)
    if bm_lru is None:
        return False
    bm_mem = int(bm_lru.miss[prime_wids.shape[0]:].sum())
    # --- analyses done (pure); state mutation may begin ------------------
    _rebuild_cache(bm_cache, bm_lru, u_words)
    walks = walk_sram = walk_mem = 0
    if fb_analysis is not None:
        (walks, walk_sram, walk_mem, _fixed, tlb_lru, u_vpns,
         prime, warm, cache_lru, ublocks) = fb_analysis
        fb_head_vas = batch.head_vas()[fb_runs]
        _rebuild_cache(walker.cache, cache_lru, ublocks)
        _rebuild_tlb(tlb, tlb_lru, u_vpns, fb_head_vas, fb_pidx, table,
                     prime_count=prime, warm_entries=warm)
    walk_latency = dram.walk_latency
    identity = int(access_count[identity_pages].sum())
    tlb_lookups = n - identity
    dram.stats.data_accesses += n
    dram.stats.walk_accesses += walk_mem + bm_mem
    dram.account_rows_runs(batch.pages, batch.lengths)
    bm_cache.stats.hits += n - bm_mem
    bm_cache.stats.misses += bm_mem
    tlb.stats.hits += tlb_lookups - walks
    tlb.stats.misses += walks
    nwrites = int(write_count.sum())
    stats.accesses += n
    stats.writes += nwrites
    stats.reads += n - nwrites
    stats.sram_stall_cycles += n + walk_sram
    stats.mem_stall_cycles += (bm_mem + walk_mem) * walk_latency
    stats.tlb_lookups += tlb_lookups
    stats.tlb_misses += walks
    stats.walks += walks
    stats.walk_sram_accesses += walk_sram
    stats.walk_mem_accesses += walk_mem
    stats.bitmap_lookups += n
    stats.bitmap_mem_accesses += bm_mem
    stats.identity_accesses += identity
    stats.fallback_accesses += n - identity
    return True


# ---------------------------------------------------------------------------
# DVM-PE / DVM-PE+: DAV through the AVC
# ---------------------------------------------------------------------------

def _fast_dav(iommu, batch: PageRunBatch, stats, carry, *,
              preload: bool) -> bool:
    walker = iommu.walker
    cache = walker.cache
    n = batch.num_accesses
    m = batch.num_runs
    dram = iommu.dram
    if m == 0:
        return True
    upages, uidx = batch.unique_pages()
    table = carry["table"]
    run_count, access_count, write_count = batch.page_aggregates()
    # AVC block stream: the blocks each *head* touches, in walk order.
    # Interior accesses re-touch the same blocks back to the same dict
    # order, so the head stream alone determines the cache's evolution.
    # Resident blocks prime the replay for warm segments.
    res = _walk_lru(cache, table, uidx,
                    prime_blocks=cache.resident_blocks())
    if res is None:
        return False
    avc_lru, ublocks, event_miss = res
    # --- analyses done (pure); state mutation may begin ------------------
    _rebuild_cache(cache, avc_lru, ublocks)
    walk_latency = dram.walk_latency
    data_latency = dram.data_latency
    walk_sram = int((table.counts * access_count).sum())
    walk_mem = int((table.fixed * run_count).sum()) + int(event_miss.sum())
    identity = int(access_count[table.identity].sum())
    if not preload:
        sram_stall = walk_sram
        mem_stall = walk_mem * walk_latency
        squashes = 0
    else:
        # Head reads overlap DAV with the preload; only walk memory time
        # beyond the data fetch is exposed.  Interior accesses have zero
        # walk memory, so their reads expose nothing.  Writes (head or
        # interior) behave like dvm_pe; non-identity reads squash.  The
        # per-head AVC miss counts are the walk analysis's per-event
        # output, no segment sums needed.
        mem_per_head = table.fixed[uidx] + event_miss
        head_reads = 1 - batch.head_writes
        exposed = mem_per_head * walk_latency - data_latency
        np.maximum(exposed, 0, out=exposed)
        mem_stall = int((exposed * head_reads).sum())
        squashes = int(
            (access_count - write_count)[~table.identity].sum())
        mem_stall += squashes * data_latency
        sram_stall = int((table.counts * write_count).sum())
        mem_stall += int(
            (mem_per_head * batch.head_writes).sum()) * walk_latency
    dram.stats.data_accesses += n
    dram.stats.walk_accesses += walk_mem
    dram.stats.squashed_preloads += squashes
    dram.account_rows_runs(batch.pages, batch.lengths)
    walker.walks += n
    cache.stats.hits += walk_sram - walk_mem
    cache.stats.misses += walk_mem
    nwrites = int(write_count.sum())
    stats.accesses += n
    stats.writes += nwrites
    stats.reads += n - nwrites
    stats.sram_stall_cycles += sram_stall
    stats.mem_stall_cycles += mem_stall
    stats.walks += n
    stats.walk_sram_accesses += walk_sram
    stats.walk_mem_accesses += walk_mem
    stats.identity_accesses += identity
    stats.fallback_accesses += n - identity
    stats.squashed_preloads += squashes
    return True


# ---------------------------------------------------------------------------
# Fault-bounded segment replay
# ---------------------------------------------------------------------------

def _plan_segments(mask: np.ndarray):
    """Cut the access stream at fault-candidate positions.

    ``mask`` flags accesses that must run through the scalar engine
    (predicted faults and their heal windows, bridged mosaics).  Returns
    ``[(start, end, is_bridge), ...]`` covering ``[0, n)`` in order:
    bridge spans absorb nearby candidates (gaps below ``_MIN_SEGMENT``
    are not worth a batched replay) and fast spans fill the rest.  The
    mask is a *heuristic* — every fast span is re-screened against live
    state before replay, so a stale or wrong mask costs speed, never
    correctness.
    """
    n = int(mask.shape[0])
    cand = np.flatnonzero(mask)
    if not cand.size:
        return [(0, n, False)]
    gaps = np.flatnonzero(np.diff(cand) > _MIN_SEGMENT)
    starts = np.concatenate(([0], gaps + 1))
    ends = np.concatenate((gaps, [cand.size - 1]))
    bridges = [(int(cand[s]), int(cand[e]) + 1)
               for s, e in zip(starts, ends)]
    if bridges[0][0] < _MIN_SEGMENT:
        bridges[0] = (0, bridges[0][1])
    if n - bridges[-1][1] < _MIN_SEGMENT:
        bridges[-1] = (bridges[-1][0], n)
    plan = []
    pos = 0
    for bs, be in bridges:
        if bs > pos:
            plan.append((pos, bs, False))
        plan.append((bs, be, True))
        pos = be
    if pos < n:
        plan.append((pos, n, False))
    return plan


def _fold_stats(stats, sub) -> None:
    """Fold a bridge segment's TimingStats into the master accumulator.

    Additive over every counter except ``energy``: the scalar bridges
    run with energy finalization deferred, so the caller finalizes once
    from the summed totals and the ``if count:`` guards in
    ``_finalize_energy`` see exactly what an unsegmented scalar run
    would have seen.
    """
    for name, value in vars(sub).items():
        if name != "energy":
            setattr(stats, name, getattr(stats, name) + value)


def _snapshot_state(iommu):
    """Snapshot every bulk-committed hardware counter before segmenting.

    The scalar loops accumulate structure counters in locals and commit
    them *after* the loop, so a scalar abort (fault escalation,
    ``OutOfMemoryError``) never commits partial counts.  Segment replay
    commits per segment; restoring this snapshot on abort gives the
    segmented engine the same abort semantics.  LRU dicts, fault-queue
    and fault-handler stats are deliberately *not* snapshotted — the
    scalar engine mutates those live in-loop, so leaving them is exactly
    scalar behaviour.
    """
    snap = {"rows": list(iommu.dram._last_rows),
            "walks": iommu.walker.walks, "stats": []}
    structs = [iommu.dram, getattr(iommu, "tlb", None),
               getattr(iommu, "tlb_l2", None), iommu.walker.cache]
    bitmap = getattr(iommu, "perm_bitmap", None)
    if bitmap is not None:
        structs.append(bitmap.cache)
    for struct in structs:
        if struct is not None:
            snap["stats"].append((struct.stats, vars(struct.stats).copy()))
    return snap


def _restore_state(iommu, snap) -> None:
    iommu.dram._last_rows[:] = snap["rows"]
    iommu.walker.walks = snap["walks"]
    for stats_obj, saved in snap["stats"]:
        for name, value in saved.items():
            setattr(stats_obj, name, value)


def _scalar_bridge(iommu):
    """The scalar per-access loop for the IOMMU's mechanism.

    Bridges call the raw loop — not ``_run_scalar`` — so energy
    finalization and observability recording stay with the batch-level
    caller and happen exactly once.
    """
    mech = iommu.config.mech
    if mech == "conventional":
        return iommu._run_conventional
    if mech == "dvm_bm":
        return iommu._run_bitmap
    return functools.partial(iommu._run_dav,
                             preload=(mech == "dvm_pe_plus"))


def _run_predelivered(iommu, batch: PageRunBatch, stats, sites, screen,
                      fast, parent):
    """Deliver site-exact faults up front, then replay the trace whole.

    Fault delivery mutates no LRU state the replay models: it pops TLB
    entries of vpns that are absent anyway (the site is the page's first
    TLB-miss walk) plus the page's walker memo, and the scalar loops
    charge a faulting access entirely from its *post-service* walk info.
    So servicing every predicted fault first — in trace order, through
    the real fault machinery, exactly as the scalar loop would — leaves
    a trace the batched kernels replay in one clean pass.  An
    escalation aborts with the scalar loop's abort semantics (committed
    counters restored, live kernel state kept).  Returns ``None`` when
    the post-delivery screen still is not clean — the prediction missed
    (it never should; the screens refuse with "budget" rather than
    guess) — and the caller falls back to segment stitching against the
    now-partially-healed state.
    """
    vas = batch.va_at(sites).tolist()
    site_writes = np.asarray(batch.writes)[sites].tolist()
    walker = iommu.walker
    snap = _snapshot_state(iommu)
    tick = time.perf_counter
    mark = tick()
    try:
        for va, w in zip(vas, site_writes):
            info = walker.info_for(va >> PAGE_SHIFT)
            if not info[0]:
                info = iommu._page_fault(va, w, stats)
            if (info[1] != 2) if w else (not info[1]):
                iommu._perm_fault(va, w, stats)
        _charge_phase("fault_service", tick() - mark)
        mark = tick()
        status, _mask, carry = screen(iommu, batch, parent)
        _charge_phase("accounting", tick() - mark)
        if status == "clean":
            mark = tick()
            replayed = fast(iommu, batch, stats, carry)
            _charge_phase("replay", tick() - mark)
            if replayed:
                return EngineOutcome(True, segments=1)
    except BaseException:
        _restore_state(iommu, snap)
        raise
    return None


def _run_segmented(iommu, batch: PageRunBatch, stats, mask, screen,
                   fast, parent=None) -> EngineOutcome:
    """Replay fault-free segments batched, bridge the faulty spans scalar.

    Each fast span is re-screened against *live* warm state before its
    batched replay — the planning mask only places the cuts.  A span
    whose fresh screen is not clean (a fault the global screen could not
    see, e.g. TLB-set contamination from an earlier segment's fault
    delivery) degrades to a scalar bridge, preserving bit-identical
    results.  Bridge segments raise through the real fault machinery;
    on any abort the pre-batch counter snapshot is restored so the
    outcome matches a scalar abort exactly.
    """
    from repro.hw.iommu import TimingStats
    tick = time.perf_counter
    mark = tick()
    plan = _plan_segments(mask)
    addrs = batch.addrs
    writes = np.asarray(batch.writes)
    snap = _snapshot_state(iommu)
    bridge = _scalar_bridge(iommu)
    segments = 0
    bridged = 0
    _charge_phase("accounting", tick() - mark)
    try:
        for start, end, is_bridge in plan:
            if not is_bridge:
                mark = tick()
                sub = PageRunBatch.from_trace(addrs[start:end],
                                              writes[start:end])
                status, _mask, carry = screen(iommu, sub, parent)
                _charge_phase("accounting", tick() - mark)
                if status == "clean":
                    mark = tick()
                    replayed = fast(iommu, sub, stats, carry)
                    _charge_phase("replay", tick() - mark)
                    if replayed:
                        segments += 1
                        continue
            bridged += end - start
            mark = tick()
            sub_stats = TimingStats()
            bridge(addrs[start:end].tolist(),
                   writes[start:end].tolist(), sub_stats)
            _fold_stats(stats, sub_stats)
            _charge_phase("fault_service", tick() - mark)
    except BaseException:
        _restore_state(iommu, snap)
        raise
    return EngineOutcome(True, segments=segments,
                         bridged_accesses=bridged)
