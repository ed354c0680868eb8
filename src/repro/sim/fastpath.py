"""Batched page-run timing engine — the IOMMU's vectorized fast path.

The scalar loops in :mod:`repro.hw.iommu` execute a few dict operations per
access, millions of times per experiment.  This module reproduces their
results *bit-identically* from compiled passes with no per-access Python
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
    state the head left it.  Only run heads can change state.  One
    compiled scan per trace (:func:`_scan`) finds the runs, the page
    alphabet and the per-page aggregates.

2.  **One compiled LRU replay per structure.**  The head stream of each
    lookup structure (TLB regions, walk-cache blocks, bitmap-cache words)
    replays once through the compiled kernel of ``_lru_kernel.c``
    (:mod:`repro.sim._native`): the scalar algorithm itself, with O(1)
    recency lists instead of insertion-ordered dicts, read straight
    through the run -> page index.  It yields the exact per-head miss
    mask and each key's last touch and last fill.  A host without the
    kernel runs every batch on the scalar loops (refusal ``no_kernel``).

3.  **Final state from last touches.**  An LRU set's dict is ordered by
    last touch, and its residents are exactly the ``ways``
    most-recently-touched distinct keys; a TLB entry's value is the one
    computed by the key's last *fill* (miss).  Both are per-key grouped
    reductions, so the end-of-trace dicts are rebuilt bit-identically
    without replaying the stream.

Fault-bearing traces stay on the fast path when their faults are
*site-exact*.  A vectorized pre-screen predicts every position where the
scalar loop could take a fault — demand page-ins and swap-ins at a
page's first TLB-miss walk or first DAV access, write-violations at a
page's first store.  The engine services them all up front, in trace
order, through :class:`~repro.hw.fault_queue.FaultPath` and
:mod:`repro.kernel.fault` exactly as the scalar loop would, then
re-screens against the healed state and replays the whole trace as a
single clean batch.  Sound because fault delivery touches no replayed
LRU state, and the scalar loops charge a faulting access entirely from
its post-service walk info (see :func:`_run_predelivered`).  Fault-stall
cycles, major/swap fault counts and energy events are bit-identical to
the scalar loop by construction.

Everything else is refused (an :class:`EngineOutcome` that is falsy)
and the caller runs the scalar loops, which remain the ground truth:
a host without the compiled kernel, faults whose position depends on
interleaving (``order_dependent``: a TLB region holding a permission
mosaic, a violating DVM-BM identity store), a potential fault with no
fault path attached (the legacy raise-on-fault contract), an L2 TLB,
and the rare pre-delivery miss.
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


#: When a profiler (``benchmarks/perf_timing.py``) replaces this with a
#: dict, fault pre-delivery accumulates wall seconds per phase into it:
#: ``"fault_service"`` (delivery through the real fault machinery),
#: ``"accounting"`` (the post-delivery re-screen) and ``"replay"`` (the
#: batched kernels).  ``None`` — the default — keeps the engine free of
#: timer calls.
PHASE_PROFILE: dict | None = None


def _charge_phase(key: str, seconds: float) -> None:
    if PHASE_PROFILE is not None:
        PHASE_PROFILE[key] = PHASE_PROFILE.get(key, 0.0) + seconds


class EngineOutcome:
    """Result of one fast-engine attempt on a batch.

    Truthiness is acceptance.  ``reason`` names the refusal and feeds the
    ``fastpath.refused.<reason>`` observability counters: ``"no_kernel"``
    (the compiled LRU kernel is unavailable), ``"chaos"`` (an injector
    is configured), ``"tlb_l2"``, ``"legacy_fault_path"``,
    ``"walk_set_pressure"``, ``"order_dependent"`` (a fault the screen
    cannot pin to a site) or ``"predelivery_miss"``.
    A refused batch left no state modified — except ``"predelivery_miss"``,
    whose delivered faults stay serviced and charged to ``stats``; the
    scalar loops then run over the healed state (see
    :func:`_run_predelivered`).
    """

    __slots__ = ("accepted", "reason")

    #: Every accepted batch is one whole replay.  Kept as read-only
    #: constants because the benchmark's span recorder
    #: (``benchmarks/dvmbench/spans.py``) still reads both names.
    segments = 1
    bridged_accesses = 0

    def __init__(self, accepted: bool, reason: str | None = None):
        self.accepted = accepted
        self.reason = reason

    def __bool__(self) -> bool:
        return self.accepted


# ---------------------------------------------------------------------------
# Page-run pre-pass
# ---------------------------------------------------------------------------

def _scan(streams, cols, writes):
    """The page-run pre-pass of one access trace, in compiled passes.

    ``streams``/``cols`` are as :func:`repro.sim._native.page_runs`
    reads them: a symbolic trace's stream and offset columns, or
    ``None`` and a concrete address column; ``writes`` is the trace's
    store column.  Returns ``(starts, (ukeys, uidx), aggregates,
    written, lo, span)``: the int64 head index of each run, the sorted
    unique run keys with each run's int32 index into them, the per-key
    ``(run_count, access_count, write_count)``, the bool per-key "some
    run stores" flag, the least page and the key span.  ``starts`` and
    ``uidx`` are the only run-scale results (12 bytes per run); the run
    keys are a transient, and each run's length and stores are read
    from ``starts`` and ``writes`` (:class:`PageRunBatch`).
    """
    starts, keys, key_bounds, lo, span = _native.page_runs(streams, cols)
    ukeys, uidx = _compact(keys, key_bounds)
    del keys                    # run-scale: free it before the aggregates
    *aggregates, written = _native.page_aggregates(
        uidx, ukeys.shape[0], starts, int(cols.shape[0]), writes)
    return starts, (ukeys, uidx), tuple(aggregates), written, lo, span


class PageRunBatch:
    """A VA trace compressed into page runs.

    A *run* is a maximal stretch of consecutive accesses to one 4 KB page.
    ``writes`` is the per-access store flag.  The batch keeps two
    run-scale columns, both from one compiled scan (:func:`_scan`) on
    first use: each run's head index (:attr:`starts`) and its index into
    the unique pages; the rest is page-scale.  A run's length, stores
    and head store (:attr:`lengths`, :attr:`run_writes`,
    :attr:`head_writes`) are derived from ``starts`` and ``writes`` on
    each request and never kept.
    Batches are immutable and safe to share across configurations
    simulating the same concretized trace.

    Batches come in two flavors: :meth:`from_trace` wraps an already
    concretized address column, while :meth:`from_skeleton` relocates a
    layout-independent :class:`TraceRunSkeleton` to one layout.  A
    skeleton batch holds no run-scale array of its own: its run heads
    and its run -> unique-page index are the skeleton's, shared by
    identity with every other layout and configuration, and binding
    only relocates the page alphabet.  Its unique pages are therefore in
    alphabet order, not sorted.  The screens, the batched kernels and
    fault pre-delivery read runs through that index plus page-scale
    tables, and access addresses through :meth:`va_at`; only the scalar
    fallback (a refused batch, or a configured chaos injector) builds
    the per-access address column :attr:`addrs`.
    """

    __slots__ = ("_addrs", "writes", "_starts", "_upages", "_lazy",
                 "_written", "_paggs")

    def __init__(self, addrs: np.ndarray | None, writes: np.ndarray,
                 lazy=None):
        self._addrs = addrs      # int64[n] virtual address per access
        self.writes = writes     # int[n] 0/1 store flag per access
        self._starts = None
        self._upages = None
        # (skeleton, bases_arr) for skeleton batches.
        self._lazy = lazy
        self._written = None
        self._paggs = None

    @property
    def addrs(self) -> np.ndarray:
        """int64[n] VA column, built and kept on first use for skeleton
        batches — only the scalar loops should ask for it."""
        if self._addrs is None:
            skel, bases = self._lazy
            self._addrs = bases[skel.streams] + skel.offsets
        return self._addrs

    def va_at(self, positions: np.ndarray) -> np.ndarray:
        """int64 VAs of the accesses at ``positions``, gathered without
        building the address column."""
        if self._addrs is not None:
            return self._addrs[positions]
        skel, bases = self._lazy
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
    def num_writes(self) -> int:
        """Stores in the trace (the skeleton's total when bound)."""
        if self._lazy is not None:
            return self._lazy[0].num_writes
        return int(self.page_aggregates()[2].sum())

    @property
    def starts(self) -> np.ndarray:
        """int64[m] index of each run's head access."""
        return self._compress()

    @property
    def lengths(self) -> np.ndarray:
        """int64[m] accesses in each run, derived from :attr:`starts`
        on each request."""
        return np.diff(self.starts, append=self.num_accesses)

    @property
    def run_writes(self) -> np.ndarray:
        """int64[m] sum of each run's store values, derived from
        :attr:`starts` and ``writes`` on each request."""
        starts = self.starts
        if not starts.shape[0]:
            return np.zeros(0, np.int64)
        return np.add.reduceat(self.writes, starts, dtype=np.int64)

    @property
    def head_writes(self) -> np.ndarray:
        """Store flag of each run's head access, ``writes[starts]`` in
        the store column's dtype, gathered on each request."""
        return self.writes[self.starts]

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
        Relocating it is the only work: page-scale, no per-run gather.
        """
        upages = (bases_arr >> PAGE_SHIFT)[skel.u_streams]
        upages += skel.u_opages
        batch = cls(None, skel.writes, lazy=(skel, bases_arr))
        batch._starts = skel.starts
        batch._upages = (upages, skel.uidx)
        batch._paggs, batch._written = skel.paggs, skel.written
        return batch

    def unique_pages(self):
        """(unique pages, int32 run->unique index), memoized per batch.

        Sorted for :meth:`from_trace` batches, in the skeleton's alphabet
        order for skeleton batches (whose index is the skeleton's own).
        """
        self._compress()
        return self._upages

    def written_pages(self) -> np.ndarray:
        """bool[u] whether any access to each unique page stores (indexed
        like :meth:`unique_pages`), memoized per batch."""
        self._compress()
        return self._written

    def page_aggregates(self):
        """Per-unique-page run aggregates, memoized per batch.

        Returns ``(run_count, access_count, write_count)`` — each indexed
        like :meth:`unique_pages`'s unique array.  These let the
        mechanism runners turn run-scale (m) reductions into
        unique-page-scale (u << m for degenerate traces) ones.
        """
        self._compress()
        return self._paggs

    def _compress(self):
        if self._starts is None:
            (self._starts, self._upages, self._paggs, self._written,
             _, _) = _scan(None, self.addrs, self.writes)
        return self._starts


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
    distinct pairs are distinct pages, so the run heads, ``uidx`` and
    the per-page aggregates computed here are every layout's, in
    alphabet order: they are the trace's one run stream, which every
    bound batch shares.

    The run stream is 12 bytes per run: ``starts`` (int64 head index)
    and ``uidx`` (int32).  Everything else a run has is derived from
    ``starts`` and the trace's own ``writes`` column, which the skeleton
    references without copying: its length is the distance to the next
    head, its stores are summed by the page aggregates, and DVM-PE+
    reads its head store as ``writes[starts]``.
    """

    __slots__ = ("streams", "offsets", "writes", "starts", "num_writes",
                 "max_opage", "min_opage", "u_streams", "u_opages", "uidx",
                 "written", "paggs")

    def __init__(self, trace):
        self.streams = np.asarray(trace.streams)
        self.offsets = np.asarray(trace.offsets, dtype=np.int64)
        self.writes = np.asarray(trace.writes)
        # Runs never span streams or pages, so a run's key — its head's
        # (stream, in-stream page) pair, ``stream * span + page`` —
        # carries every access's pair.
        (self.starts, (ukeys, self.uidx), self.paggs, self.written,
         self.min_opage, span) = _scan(self.streams, self.offsets,
                                       self.writes)
        self.num_writes = int(self.paggs[2].sum())
        self.u_streams, self.u_opages = np.divmod(ukeys, span)
        # Sorted by (stream, page): each stream's last entry is its extent.
        last = np.flatnonzero(np.diff(self.u_streams, append=-1))
        self.max_opage = dict(zip(self.u_streams[last].tolist(),
                                  self.u_opages[last].tolist()))


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
    page-scale instead of access-scale.  Layouts the skeleton cannot serve
    exactly fall back to eager concretization, and so does every layout
    on a host without the compiled kernel: :func:`run_batch` refuses
    such a batch (``no_kernel``) before touching its runs, so nothing is
    scanned.
    """
    bases = layout.stream_bases
    token = trace.content_token()
    key = (token, tuple(sorted(bases.items())))
    if cache is not None and key in cache:
        return cache[key]
    skel = None
    if _native.available():
        skel_key = ("skeleton", token)
        skel = cache.get(skel_key) if cache is not None else None
        if skel is None:
            skel = TraceRunSkeleton(trace)
            if cache is not None:
                cache[skel_key] = skel
    if skel is not None and _skeleton_layout_ok(skel, layout):
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
    """Functional walk outcomes for a batch's unique pages, as columns.

    ``swapped`` marks not-ok pages the reclaimer swapped out (their
    ``perm`` is the pre-swap permission); other not-ok pages are
    unmapped.  Each page costs at most the one walk
    :meth:`~repro.hw.walker.PageTableWalker.outcome` makes, and the fault
    screens read these columns instead of walking again.
    """

    __slots__ = ("ok", "perm", "pa_base", "identity", "blocks", "fixed",
                 "counts", "swapped")

    def __init__(self, walker, upages: np.ndarray):
        outcome = walker.outcome
        ok, perm, pa_base, identity, blocks, fixed = [], [], [], [], [], []
        swapped = []
        for page in upages.tolist():
            info, page_swapped = outcome(page)
            ok.append(info[0])
            perm.append(info[1])
            pa_base.append(info[2])
            identity.append(info[3])
            blocks.append(info[4])
            fixed.append(info[5])
            swapped.append(page_swapped)
        self.ok = np.array(ok, dtype=bool)
        self.perm = np.array(perm, dtype=np.int64)
        self.pa_base = pa_base          # python ints, read by _rebuild_tlb
        self.identity = np.array(identity, dtype=bool)
        self.blocks = blocks            # list of block-id tuples
        self.fixed = np.array(fixed, dtype=np.int64)
        self.counts = np.array([len(b) for b in blocks], dtype=np.int64)
        self.swapped = np.array(swapped, dtype=bool)

    @classmethod
    def narrowed(cls, base: "_WalkTable", base_upages: np.ndarray,
                 walker, upages: np.ndarray) -> "_WalkTable":
        """Rows of ``base`` gathered for a re-screen's pages.

        Pre-delivery's re-screen narrows the first screen's table instead
        of re-walking every page: a page whose walk was ``ok`` at
        base-build time keeps an immutable walk outcome for the rest of
        the trace (fault services only *create* mappings — existing
        entries never move), so only the not-ok rows — pages the
        delivered faults may have healed — are walked again.  That walk
        is also pre-delivery's post-service check: a page its service
        did not heal stays not-ok here, and the re-screen refuses.
        ``upages`` must be a subset of ``base_upages`` (a DVM-BM swap-in
        can move a page from the fallback set to the bitmap); neither
        needs to be sorted.
        """
        self = object.__new__(cls)
        order = np.argsort(base_upages, kind="stable")
        pos = order[np.searchsorted(base_upages, upages, sorter=order)]
        self.ok = base.ok[pos]
        self.perm = base.perm[pos]
        self.identity = base.identity[pos]
        self.fixed = base.fixed[pos]
        self.counts = base.counts[pos]
        self.swapped = base.swapped[pos]
        idx = pos.tolist()
        self.pa_base = [base.pa_base[i] for i in idx]
        self.blocks = [base.blocks[i] for i in idx]
        stale = np.flatnonzero(~self.ok)
        if stale.size:
            outcome = walker.outcome
            fresh = [outcome(page) for page in upages[stale].tolist()]
            self.swapped[stale] = [swapped for _, swapped in fresh]
            infos = [info for info, _ in fresh]
            self.ok[stale] = [info[0] for info in infos]
            self.perm[stale] = [info[1] for info in infos]
            self.identity[stale] = [info[3] for info in infos]
            self.fixed[stale] = [info[5] for info in infos]
            self.counts[stale] = [len(info[4]) for info in infos]
            for j, info in zip(stale.tolist(), infos):
                self.pa_base[j] = info[2]
                self.blocks[j] = info[4]
        return self


# ---------------------------------------------------------------------------
# Exact LRU stream analysis
# ---------------------------------------------------------------------------

#: Max direct-table span for the linear-time factorization below.
_COMPACT_SPAN_BUDGET = 1 << 26


def _compact(values: np.ndarray, bounds=None):
    """(unique values, int32 inverse) — identical to sorted ``np.unique``.

    ``bounds`` is the values' known ``(min, max)``, saving two passes.

    Page/VPN/walk-block alphabets span narrow ranges (the heap's), so a
    direct presence table (:func:`repro.sim._native.compact`) factorizes
    the stream in linear time instead of ``np.unique``'s sort; the sort
    stays for wide spans.  Like every caller, needs the compiled kernel.
    """
    if not values.size:
        return values.astype(np.int64), np.empty(0, np.int32)
    lo, hi = bounds if bounds is not None else (values.min(), values.max())
    lo, span = int(lo), int(hi) - int(lo) + 1
    # The presence table costs O(span) regardless of input size, which
    # loses badly for short streams over a wide heap: keep it for
    # streams dense in their span, sort the sparse ones.
    if span <= _COMPACT_SPAN_BUDGET and span <= 64 * values.size:
        return _native.compact(values, lo, span)
    uniq, inverse = np.unique(values, return_inverse=True)
    return uniq, inverse.astype(np.int32)


class _StreamLRU:
    """Exact LRU outcome of one compact-id key stream over nsets × ways.

    All positional attributes are in global (chronological) stream
    coordinates: ``miss`` is the exact per-access miss mask (``None``
    for a walk replay, which folds its misses itself); ``last_occ``
    / ``last_fill`` hold each id's final touch and final fill position
    (-1 when absent / never filled).
    """

    __slots__ = ("miss", "k", "counts", "last_occ", "last_fill", "sid_u",
                 "nsets", "ways")

    def __init__(self, k, nsets, ways, sid_u, miss, counts, last_occ,
                 last_fill):
        self.k, self.nsets, self.ways, self.sid_u = k, nsets, ways, sid_u
        self.miss, self.counts = miss, counts
        self.last_occ, self.last_fill = last_occ, last_fill


def _spread(values: np.ndarray, member: np.ndarray, fill) -> np.ndarray:
    """``values`` (one per ``member`` page) scattered onto every page."""
    out = np.full(member.shape[0], fill, values.dtype)
    out[member] = values
    return out


def _replay_lru(idx: np.ndarray, key_of: np.ndarray, prime_ids: np.ndarray,
                k: int, nsets: int, ways: int, sid_u) -> _StreamLRU:
    """Exact LRU outcome of the key stream ``prime_ids`` then
    ``key_of[idx]``.

    ``idx`` is a run -> page index, ``key_of`` a page-scale key table and
    ``prime_ids`` the warm residents (LRU-to-MRU within each set), so
    stream position ``prime + i`` is run ``i``.  A negative key marks a
    page the structure never sees: its runs miss 0 and record nothing.
    The compiled kernel reads the stream through the index — the
    literal scalar algorithm, with O(1) recency lists instead of
    insertion-ordered dicts.
    """
    return _StreamLRU(k, nsets, ways, sid_u, *_native.lru_sim(
        idx, key_of, prime_ids, k, nsets, ways, sid_u))


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
    """Recreate a block cache's end-of-trace contents (last-touch order).

    Pre-existing (warm) blocks were primed into the replay, so they are
    part of ``lru``'s recency order: flush and reinstall everything.
    """
    cache.invalidate_all()
    blocks = ukeys[_residents(lru)].tolist()
    fill = getattr(cache, "fill_blocks", None)
    (fill if fill is not None else cache.install_blocks)(blocks)


def _rebuild_tlb(tlb, lru: _StreamLRU, u_vpns: np.ndarray,
                 upages: np.ndarray, uidx: np.ndarray, table: _WalkTable,
                 member=None, prime_count: int = 0,
                 warm_entries=None) -> None:
    """Recreate the TLB's contents, entries recomputed at each last fill.

    ``lru`` replayed the run stream ``uidx`` (see :func:`_replay_lru`);
    ``table`` holds the walk outcome of every page, or of the ``member``
    pages only.  A fill at run ``r`` walked page ``upages[uidx[r]]``, so
    only the resident entries' runs are gathered.  Stream positions
    below ``prime_count`` are the warm-resident priming prefix: a
    resident whose last fill is a prime touch was never re-walked, so it
    keeps its pre-trace entry value from ``warm_entries``.
    """
    tshift = tlb.page_shift
    install = tlb.install
    bases = table.pa_base
    rows = None if member is None else np.cumsum(member) - 1
    warm_value = dict(warm_entries) if warm_entries else None
    tlb.invalidate_all()
    for u in _residents(lru).tolist():
        vpn = int(u_vpns[u])
        h = int(lru.last_fill[u])
        if h < prime_count:
            install(vpn, warm_value[vpn])
            continue
        page_i = int(uidx[h - prime_count])
        pidx = page_i if rows is None else int(rows[page_i])
        va_page = int(upages[page_i]) << PAGE_SHIFT
        install(vpn, (bases[pidx] - (va_page - (vpn << tshift)),
                      int(table.perm[pidx])))


def _walk_lru(cache, table: _WalkTable, idx: np.ndarray, sel=None,
              member=None, wflag=None, prime_blocks=None):
    """Exact LRU analysis of the walk-block stream of the runs ``idx``.

    Run ``i`` walks page ``idx[i]`` (an index into the batch's unique
    pages) when ``sel[i]`` is set — every run when ``sel`` is ``None`` —
    touching its blocks in walk order.  ``table`` covers every page, or
    only the ``member`` pages (the others are never walked).
    ``prime_blocks`` (resident block ids, LRU-to-MRU within each set)
    prepends one pseudo single-block walk per warm block, so a warm
    cache — a rerun's starting state — replays exactly as if those
    blocks had just been touched.

    Returns ``(lru, ublocks, walks_of, hist)`` — the stream's
    :class:`_StreamLRU` (its ``miss`` mask is ``None``), the real walks
    per page of ``table``, and ``hist[v, w]``: the real walks counted by
    their walk memory ``v`` (the page's fixed, uncached fetches plus the
    walk's cache misses) and their ``wflag`` entry ``w`` (0 without
    ``wflag``).  The compiled kernel replays straight from the run index
    and the per-page block table; the expanded stream is never built.
    """
    flat_blocks = np.array(
        [b for blocks in table.blocks for b in blocks], np.int64)
    counts, fixed = table.counts, table.fixed
    if member is not None:
        counts, fixed = _spread(counts, member, 0), _spread(fixed, member, 0)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    nf = int(flat_blocks.shape[0])
    npages = int(counts.shape[0])
    walks_of = np.zeros(npages, np.int64)
    hist = np.zeros((int((fixed + counts).max(initial=0)) + 1, 2), np.int64)
    prime = len(prime_blocks) if prime_blocks else 0
    if prime:
        # Warm blocks become pseudo pages npages..npages+prime-1, one flat
        # slot each; the priming walks touch them first, in residency
        # order, so the replay starts from the cache's true warm state.
        all_blocks = np.concatenate(
            (flat_blocks, np.asarray(prime_blocks, np.int64)))
        ublocks, flat_ids = _compact(all_blocks)
        offsets = np.concatenate(
            (offsets, (nf + np.arange(1, prime + 1)).astype(np.int32)))
    else:
        ublocks, flat_ids = _compact(flat_blocks)
    k = ublocks.shape[0]
    sid_u = ((ublocks % cache.num_sets).astype(np.int16)
             if cache.num_sets > 1 else None)
    nsets, ways = cache.num_sets, cache.ways
    lru = _StreamLRU(k, nsets, ways, sid_u, None, *_native.lru_walk(
        idx, sel, wflag, prime, offsets, flat_ids, fixed, walks_of, hist,
        k, nsets, ways, sid_u))
    if member is not None:
        walks_of = walks_of[member]
    return lru, ublocks, walks_of, hist


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

    Mirrors :meth:`repro.kernel.fault.FaultHandler._classify` from the
    walk table's columns, without walking or mutating anything: a mapped
    page keeps its walked permission; a swapped page returns at its
    pre-swap permission when a reclaimer exists; an unmapped page inside
    a non-identity allocation comes in at its VMA's protection.
    Everything else services to 0 — meaning the first delivered fault
    escalates, which pre-delivery turns into the scalar loop's abort at
    that site.
    """
    post = np.where(table.ok, table.perm, 0)
    handler = iommu.fault_path.handler
    if getattr(handler.kernel, "reclaimer", None) is not None:
        post = np.where(table.swapped, table.perm, post)
    unmapped = np.flatnonzero(~table.ok & ~table.swapped)
    vmm = handler.process.vmm
    for i in unmapped.tolist():
        alloc = vmm.allocation_at(int(upages[i]) << PAGE_SHIFT)
        if alloc is not None and not alloc.identity:
            post[i] = alloc.vma.perm
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
    vmm = iommu.fault_path.handler.process.vmm
    chunk_size = vmm.policy.page_size
    singles: list[int] = []
    chunks: dict[int, int] = {}
    ok, swapped = table.ok, table.swapped
    for i in np.flatnonzero(first_pos >= 0).tolist():
        pos = int(first_pos[i])
        if ok[i] or swapped[i]:
            singles.append(pos)
            continue
        va = int(upages[i]) << PAGE_SHIFT
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


def _conv_fault_candidates(iommu, tlb, upages: np.ndarray,
                           uidx: np.ndarray, written_u: np.ndarray,
                           starts: np.ndarray, table: _WalkTable,
                           member=None):
    """Fault-candidate analysis of one TLB-fronted (sub)stream.

    ``upages``/``uidx``/``written_u``/``starts`` are the batch's unique
    pages, run -> page index, per-page written flags and run head
    positions.  The substream is the runs of the ``member`` pages (every
    run when ``member`` is ``None``), and ``table`` holds exactly those
    pages' walk outcomes.  Returns ``(status, sites)``:

    * ``"clean"`` — no access of the substream can fault;
    * ``"legacy_fault_path"`` — faults are possible but no fault path is
      attached (the raise-on-fault contract needs the scalar loops end
      to end);
    * ``"order_dependent"`` — a TLB region can hold an entry that
      write-faults on a hit: a mosaic the region-granular TLB makes
      order-dependent, so no fault site can be pinned;
    * ``"faulty"`` — ``sites`` are the sorted global positions of the
      predicted fault sites (first TLB-miss walk of each faultable page,
      reduced by heal window).
    """
    if member is not None:
        upages, written_u = upages[member], written_u[member]
    eff0 = np.where(table.ok, table.perm, 0)
    bad = eff0 < 1
    warm = _warm_tlb_entries(tlb)
    u_vpns, vid_of_upage, prime_vids = _vpn_alphabet(tlb, upages, warm)
    nvr = u_vpns.shape[0]
    fault_path = iommu.fault_path
    post = eff0 if fault_path is None else _post_perms(iommu, upages, table)
    # Region write-unsafety: a store in region R hits whatever entry R
    # holds — filled at some member page's post-service permission, or
    # pre-trace (warm).  If any such entry can carry perm != 2, a store
    # can hit-fault, and the service/refill order is only defined by the
    # scalar loop.
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
        return "clean", None
    if fault_path is None:
        return "legacy_fault_path", None
    if unsafe_r.any():
        return "order_dependent", None
    # Faultable pages can only fault at their first TLB-miss walk (a
    # region hit serves them at the entry's permission, and entry
    # permissions are always >= 1): find each page's first miss with a
    # warm-primed exact replay, then merge heal windows.
    key_of = (vid_of_upage if member is None
              else _spread(vid_of_upage, member, -1))
    sid_u = ((u_vpns % tlb.num_sets).astype(np.int16)
             if tlb.num_sets > 1 else None)
    tlb_lru = _replay_lru(uidx, key_of, prime_vids, nvr, tlb.num_sets,
                          tlb.ways, sid_u)
    miss_heads = np.flatnonzero(tlb_lru.miss[prime_vids.shape[0]:])
    # Each page's first miss, via reverse fancy assignment (last write
    # wins) — O(#misses) instead of a sort.
    first_pos = np.full(key_of.shape[0], -1, np.int64)
    rev = miss_heads[::-1]
    first_pos[uidx[rev]] = starts[rev]
    if member is not None:
        first_pos = first_pos[member]
    first_pos[~bad] = -1
    sites = _first_fault_heads(iommu, upages, table, first_pos)
    if not sites.size:
        # Every faultable page hides behind a warm region entry: whether
        # its accesses fault depends on that entry surviving until then.
        return "order_dependent", None
    return "faulty", sites


# ---------------------------------------------------------------------------
# Engine entry
# ---------------------------------------------------------------------------

def _walk_table(walker, upages: np.ndarray, parent) -> _WalkTable:
    """A batch's walk table — narrowed from the first screen's when
    pre-delivery re-screens, built from the walker otherwise."""
    if parent is not None and "table" in parent:
        return _WalkTable.narrowed(parent["table"], parent["upages"],
                                   walker, upages)
    return _WalkTable(walker, upages)


def _screen_conventional(iommu, batch: PageRunBatch, parent=None):
    """Fault screen for the conventional TLB + PWC configuration."""
    upages, uidx = batch.unique_pages()
    table = _walk_table(iommu.walker, upages, parent)
    status, sites = _conv_fault_candidates(
        iommu, iommu.tlb, upages, uidx, batch.written_pages(), batch.starts,
        table)
    if status == "clean":
        return "clean", {"table": table}
    if status != "faulty":
        return status, None
    return "faulty", {"upages": upages, "table": table, "sites": sites}


def _screen_bitmap(iommu, batch: PageRunBatch, parent=None):
    """Fault screen for DVM-BM (bitmap identity + conventional fallback)."""
    bitmap = iommu.perm_bitmap
    upages, uidx = batch.unique_pages()
    perms = bitmap._perms
    bitmap_perm = np.array([int(perms.get(p, 0)) for p in upages.tolist()],
                           np.int64)
    identity_u = bitmap_perm > 0
    written = batch.written_pages()
    bad_ident = identity_u & written & (bitmap_perm != 2)
    # Fallback (non-identity) pages: the conventional machinery, over
    # only their runs — the scalar loop never walks or TLB-probes
    # identity pages, so neither may the screen.
    fallback = None if identity_u.all() else ~identity_u
    fb_status, fb_sites = "clean", None
    fb_upages = table = None
    if fallback is not None:
        fb_upages = upages[fallback]
        table = _walk_table(iommu.walker, fb_upages, parent)
        fb_status, fb_sites = _conv_fault_candidates(
            iommu, iommu.tlb, upages, uidx, written, batch.starts, table,
            member=fallback)
    if not bad_ident.any() and fb_status == "clean":
        carry = {"bitmap_perm": bitmap_perm, "fallback": fallback,
                 "table": table}
        return "clean", carry
    if iommu.fault_path is None or fb_status == "legacy_fault_path":
        return "legacy_fault_path", None
    if bad_ident.any() or fb_status == "order_dependent":
        # A violating identity store faults on a bitmap hit, and its
        # delivery pops its vpn's TLB entry, which can evict a resident
        # *fallback* translation: the scalar loop alone orders that.
        return "order_dependent", None
    # Only fallback-page first-miss walks remain: site-exact.
    return "faulty", {"upages": fb_upages, "table": table,
                      "sites": fb_sites}


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
        return "walk_set_pressure", None
    eff0 = np.where(table.ok, table.perm, 0)
    bad = eff0 < 1
    fault_path = iommu.fault_path
    post = eff0 if fault_path is None else _post_perms(iommu, upages, table)
    wbad = batch.written_pages() & (post != 2)
    if not bad.any() and not wbad.any():
        return "clean", {"table": table}
    if fault_path is None:
        return "legacy_fault_path", None
    # Every access walks, so a faultable page faults at its very first
    # access; merge heal windows as usual.  Reverse fancy assignment
    # (last write wins) finds each page's first run in O(m) — the runs
    # cover every unique page, so no sort and no presence check needed.
    first_of = np.empty(u, np.int64)
    first_of[uidx[::-1]] = np.arange(uidx.shape[0] - 1, -1, -1)
    first_pos = np.where(bad, batch.starts[first_of], -1)
    sites = _first_fault_heads(iommu, upages, table, first_pos)
    # A store without write permission always escalates (a spurious
    # service would need perm == 2, contradicting wbad), so the scalar
    # run never gets past a page's first written access.
    if wbad.any():
        wr = np.flatnonzero(batch.run_writes > 0)
        first_w = np.full(u, -1, np.int64)
        first_w[uidx[wr[::-1]]] = wr[::-1]
        # wbad pages are written by definition, so first_w is valid here.
        wruns = first_w[wbad]
        writes_arr = np.asarray(batch.writes)
        starts, m = batch.starts, batch.num_runs
        wsites = []
        for r in wruns.tolist():
            s = int(starts[r])
            end = int(starts[r + 1]) if r + 1 < m else batch.num_accesses
            # DAV checks permissions on every access, so the page's
            # first written access — first store of its first written
            # run — is exactly where the scalar loop faults.
            wsites.append(s + int(np.argmax(writes_arr[s:end] > 0)))
        sites = np.sort(np.concatenate((sites, np.array(wsites, np.int64))))
    return "faulty", {"upages": upages, "table": table, "sites": sites}


def run_batch(iommu, batch: PageRunBatch, stats) -> "EngineOutcome":
    """Run ``batch`` through ``iommu``'s configuration on the fast path.

    Fills ``stats`` (a :class:`~repro.hw.iommu.TimingStats` without
    energy, which the caller finalizes once) and mutates the IOMMU's
    lookup structures to their exact end-of-trace state.  A batch that
    can fault replays after its site-exact faults are pre-delivered (see
    the module docstring).  Returns an :class:`EngineOutcome`; a falsy
    outcome means the caller must run the scalar loops, and that no
    state was modified unless the reason is ``"predelivery_miss"``.
    """
    if not _native.available():
        # No compiled LRU kernel on this host (no compiler, a failed
        # compile or an injected compile_fail): the scalar loops run the
        # batch, and fastpath.refused.no_kernel counts the degradation.
        return EngineOutcome(False, reason="no_kernel")
    if faults.active():
        # A chaos injector is configured: perturbing injections
        # (alloc_oom relayouts, mid-trace guest faults) void the batch
        # replay's fault-free-prefix reasoning, so chaos-seeded sweeps
        # intentionally stay on the scalar loops (docs/configuration.md).
        return EngineOutcome(False, reason="chaos")
    mech = iommu.config.mech
    if mech == "ideal":
        _fast_ideal(iommu, batch, stats)
        return EngineOutcome(True)
    if mech == "conventional":
        if iommu.tlb_l2 is not None:
            return EngineOutcome(False, reason="tlb_l2")
        screen, fast = _screen_conventional, _fast_conventional
    elif mech == "dvm_bm":
        screen, fast = _screen_bitmap, _fast_bitmap
    else:
        screen, fast = _screen_dav, functools.partial(
            _fast_dav, preload=(mech == "dvm_pe_plus"))
    status, carry = screen(iommu, batch)
    if status == "clean":
        fast(iommu, batch, stats, carry)
        return EngineOutcome(True)
    if status == "faulty":
        return _run_predelivered(iommu, batch, stats, screen, fast, carry)
    # Every other status is a refusal reason: "legacy_fault_path",
    # "order_dependent", or "walk_set_pressure" — a single walk
    # overflows an AVC set (see _walks_fit_sets), so the per-head
    # replay's residency assumption is unsound and the scalar loop is
    # the only exact model of the thrashing cache.
    return EngineOutcome(False, reason=status)


def _fast_ideal(iommu, batch: PageRunBatch, stats) -> None:
    n = batch.num_accesses
    nwrites = batch.num_writes
    stats.accesses += n
    stats.writes += nwrites
    stats.reads += n - nwrites
    iommu.dram.stats.data_accesses += n
    if n:
        iommu.dram.account_rows_runs(*batch.unique_pages(), n)


# ---------------------------------------------------------------------------
# Conventional: TLB + page-walk cache
# ---------------------------------------------------------------------------

def _tlb_walk_analysis(tlb, walker, upages: np.ndarray, uidx: np.ndarray,
                       table: _WalkTable, member=None):
    """Analyse a TLB-fronted walk stream (the conventional hot path).

    Every run of ``uidx`` probes the TLB — or only the runs of the
    ``member`` pages, the ones ``table`` covers; each TLB miss walks.
    Warm TLB entries and resident walk-cache blocks are primed into the
    LRU replays, so the analysis is exact from any warm state — a rerun
    over warm structures, or a batch after pre-delivered faults.  Pure:
    returns ``(walks, walk_sram, walk_mem, fixed_total, tlb_lru, u_vpns,
    prime, warm, cache_lru, ublocks)`` with the rebuild inputs for the
    caller's commit.
    """
    # vpn = va >> tshift == page >> (tshift - 12), so the TLB alphabet is
    # derived from the (small) unique-page table, not the head stream.
    warm = _warm_tlb_entries(tlb)
    probed = upages if member is None else upages[member]
    u_vpns, vid_of_upage, prime_vids = _vpn_alphabet(tlb, probed, warm)
    if member is not None:
        vid_of_upage = _spread(vid_of_upage, member, -1)
    prime = int(prime_vids.shape[0])
    sid_u = ((u_vpns % tlb.num_sets).astype(np.int16)
             if tlb.num_sets > 1 else None)
    tlb_lru = _replay_lru(uidx, vid_of_upage, prime_vids, u_vpns.shape[0],
                          tlb.num_sets, tlb.ways, sid_u)
    cache_lru, ublocks, walks_of, hist = _walk_lru(
        walker.cache, table, uidx, sel=tlb_lru.miss[prime:], member=member,
        prime_blocks=walker.cache.resident_blocks())
    walks = int(walks_of.sum())
    walk_sram = int(walks_of @ table.counts)
    fixed_total = int(walks_of @ table.fixed)
    walk_mem = int(hist.sum(axis=1) @ np.arange(hist.shape[0]))
    return (walks, walk_sram, walk_mem, fixed_total, tlb_lru, u_vpns,
            prime, warm, cache_lru, ublocks)


def _fast_conventional(iommu, batch: PageRunBatch, stats, carry) -> None:
    tlb = iommu.tlb
    walker = iommu.walker
    n = batch.num_accesses
    m = batch.num_runs
    dram = iommu.dram
    if m == 0:
        return
    upages, uidx = batch.unique_pages()
    table = carry["table"]
    (walks, walk_sram, walk_mem, fixed_total, tlb_lru, u_vpns,
     prime, warm, cache_lru, ublocks) = _tlb_walk_analysis(
         tlb, walker, upages, uidx, table)
    # --- analyses done (pure); state mutation may begin ------------------
    _rebuild_cache(walker.cache, cache_lru, ublocks)
    _rebuild_tlb(tlb, tlb_lru, u_vpns, upages, uidx, table,
                 prime_count=prime, warm_entries=warm)
    cache_misses = walk_mem - fixed_total
    dram.stats.data_accesses += n
    dram.stats.walk_accesses += walk_mem
    dram.account_rows_runs(upages, uidx, n)
    tlb.stats.hits += n - walks
    tlb.stats.misses += walks
    cache = walker.cache
    cache.stats.hits += walk_sram - cache_misses
    cache.stats.misses += cache_misses
    nwrites = batch.num_writes
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


# ---------------------------------------------------------------------------
# DVM-BM: permission bitmap + bitmap cache, TLB fallback
# ---------------------------------------------------------------------------

def _fast_bitmap(iommu, batch: PageRunBatch, stats, carry) -> None:
    bitmap = iommu.perm_bitmap
    tlb = iommu.tlb
    walker = iommu.walker
    bm_cache = bitmap.cache
    n = batch.num_accesses
    m = batch.num_runs
    dram = iommu.dram
    if m == 0:
        return
    upages, uidx = batch.unique_pages()
    bitmap_perm = carry["bitmap_perm"]
    fallback, table = carry["fallback"], carry["table"]
    _run_count, access_count, write_count = batch.page_aggregates()
    identity_pages = bitmap_perm > 0
    fb_analysis = None
    if fallback is not None:
        # Walk state evolves only for fallback pages — the scalar loop
        # never walks identity pages, so neither may the replay.
        fb_analysis = _tlb_walk_analysis(tlb, walker, upages, uidx, table,
                                         member=fallback)
    # Bitmap-cache stream: one probe per head (interiors re-touch at
    # MRU).  Resident bitmap words prime the replay so warm reruns
    # evolve exactly like the scalar probe sequence.
    bm_base_block = bitmap.base_pa >> 3
    warm_words = np.asarray(bm_cache.resident_blocks(), np.int64)
    u_words, wid_ids = _compact(
        np.concatenate((bm_base_block + (upages >> 5), warm_words)))
    u = upages.shape[0]
    bm_sid_u = ((u_words % bm_cache.num_sets).astype(np.int16)
                if bm_cache.num_sets > 1 else None)
    bm_lru = _replay_lru(uidx, wid_ids[:u], wid_ids[u:], u_words.shape[0],
                         bm_cache.num_sets, bm_cache.ways, bm_sid_u)
    bm_mem = int(np.count_nonzero(bm_lru.miss[warm_words.shape[0]:]))
    # --- analyses done (pure); state mutation may begin ------------------
    _rebuild_cache(bm_cache, bm_lru, u_words)
    walks = walk_sram = walk_mem = 0
    if fb_analysis is not None:
        (walks, walk_sram, walk_mem, _fixed, tlb_lru, u_vpns,
         prime, warm, cache_lru, ublocks) = fb_analysis
        _rebuild_cache(walker.cache, cache_lru, ublocks)
        _rebuild_tlb(tlb, tlb_lru, u_vpns, upages, uidx, table,
                     member=fallback, prime_count=prime, warm_entries=warm)
    walk_latency = dram.walk_latency
    identity = int(access_count[identity_pages].sum())
    tlb_lookups = n - identity
    dram.stats.data_accesses += n
    dram.stats.walk_accesses += walk_mem + bm_mem
    dram.account_rows_runs(upages, uidx, n)
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


# ---------------------------------------------------------------------------
# DVM-PE / DVM-PE+: DAV through the AVC
# ---------------------------------------------------------------------------

def _fast_dav(iommu, batch: PageRunBatch, stats, carry, *,
              preload: bool) -> None:
    walker = iommu.walker
    cache = walker.cache
    n = batch.num_accesses
    m = batch.num_runs
    dram = iommu.dram
    if m == 0:
        return
    upages, uidx = batch.unique_pages()
    table = carry["table"]
    run_count, access_count, write_count = batch.page_aggregates()
    # AVC block stream: the blocks each *head* touches, in walk order.
    # Interior accesses re-touch the same blocks back to the same dict
    # order, so the head stream alone determines the cache's evolution.
    # Resident blocks prime the replay for warm reruns.  DVM-PE+ splits
    # the walk histogram by whether the head stores.
    avc_lru, ublocks, _walks_of, hist = _walk_lru(
        cache, table, uidx, wflag=batch.head_writes if preload else None,
        prime_blocks=cache.resident_blocks())
    # --- analyses done (pure); state mutation may begin ------------------
    _rebuild_cache(cache, avc_lru, ublocks)
    walk_latency = dram.walk_latency
    data_latency = dram.data_latency
    walk_sram = int((table.counts * access_count).sum())
    mem_per_head = np.arange(hist.shape[0])
    walk_mem = int(hist.sum(axis=1) @ mem_per_head)
    identity = int(access_count[table.identity].sum())
    if not preload:
        sram_stall = walk_sram
        mem_stall = walk_mem * walk_latency
        squashes = 0
    else:
        # Head reads overlap DAV with the preload; only walk memory time
        # beyond the data fetch is exposed.  Interior accesses have zero
        # walk memory, so their reads expose nothing.  Writes (head or
        # interior) behave like dvm_pe; non-identity reads squash.  A
        # head's walk memory is its page's fixed fetches plus its AVC
        # misses: the histogram's row.
        exposed = mem_per_head * walk_latency - data_latency
        np.maximum(exposed, 0, out=exposed)
        mem_stall = int(exposed @ hist[:, 0])
        squashes = int(
            (access_count - write_count)[~table.identity].sum())
        mem_stall += squashes * data_latency
        sram_stall = int((table.counts * write_count).sum())
        mem_stall += int(mem_per_head @ hist[:, 1]) * walk_latency
    dram.stats.data_accesses += n
    dram.stats.walk_accesses += walk_mem
    dram.stats.squashed_preloads += squashes
    dram.account_rows_runs(upages, uidx, n)
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


# ---------------------------------------------------------------------------
# Fault pre-delivery
# ---------------------------------------------------------------------------

def _snapshot_state(iommu):
    """Snapshot every bulk-committed hardware counter before delivery.

    The scalar loops accumulate structure counters in locals and commit
    them *after* the loop, so a scalar abort (fault escalation,
    ``OutOfMemoryError``) never commits partial counts.  Restoring this
    snapshot when pre-delivery aborts gives the fast engine the same
    abort semantics.  LRU dicts, fault-path and fault-handler stats are
    deliberately *not* snapshotted — the scalar engine mutates those
    live in-loop, so leaving them is exactly scalar behaviour.
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


def _run_predelivered(iommu, batch: PageRunBatch, stats, screen, fast,
                      parent) -> EngineOutcome:
    """Deliver site-exact faults up front, then replay the trace whole.

    Fault delivery mutates no LRU state the replay models: it pops TLB
    entries of vpns that are absent anyway (the site is the page's first
    TLB-miss walk) plus the page's walker memo, and the scalar loops
    charge a faulting access entirely from its *post-service* walk info.
    So servicing every predicted fault first — in trace order, through
    the real fault machinery, exactly as the scalar loop would — leaves
    a trace the batched kernels replay in one clean pass.  The sites go
    through one handler pass (:meth:`IOMMU._deliver_faults`) up to the
    first one that would escalate; that one and the rest are delivered
    one by one, so an escalation aborts with the scalar loop's abort
    semantics (committed counters restored, live kernel state kept).
    The re-screen re-walks every page the services could have healed,
    which is the per-fault path's "fault persists after service" check.

    Refuses with ``"predelivery_miss"`` when the post-delivery screen is
    not clean (the prediction missed; it never should, the screens
    refuse rather than guess).  The delivered faults stay serviced and
    their charges stay in ``stats``, so the caller's scalar loops over
    the healed state see exactly what they would have seen after
    servicing those faults in-loop.
    """
    sites = parent["sites"]
    vas = batch.va_at(sites).tolist()
    site_writes = np.asarray(batch.writes)[sites].tolist()
    walker = iommu.walker
    snap = _snapshot_state(iommu)
    tick = time.perf_counter
    mark = tick()
    try:
        accesses = ["w" if w else "r" for w in site_writes]
        stop = iommu._deliver_faults(vas, accesses, stats)
        # The first site that would escalate, and every later one, take
        # the per-fault path: its AccessViolation and abort state are
        # exactly the scalar loop's.
        for va, w in zip(vas[stop:], site_writes[stop:]):
            info = walker.info_for(va >> PAGE_SHIFT)
            if not info[0]:
                info = iommu._page_fault(va, w, stats)
            if (info[1] != 2) if w else (not info[1]):
                iommu._perm_fault(va, w, stats)
        _charge_phase("fault_service", tick() - mark)
        mark = tick()
        status, carry = screen(iommu, batch, parent)
        _charge_phase("accounting", tick() - mark)
        if status == "clean":
            mark = tick()
            fast(iommu, batch, stats, carry)
            _charge_phase("replay", tick() - mark)
            return EngineOutcome(True)
    except BaseException:
        _restore_state(iommu, snap)
        raise
    return EngineOutcome(False, reason="predelivery_miss")
