"""The IOMMU: per-configuration address translation / access validation.

This is the timing heart of the reproduction.  Each accelerator memory
reference enters the IOMMU, which — depending on the configuration —
consults a TLB and page-walk cache (conventional), the permission bitmap
(DVM-BM), or performs Devirtualized Access Validation through the AVC
(DVM-PE / DVM-PE+).  The IOMMU produces two stall aggregates:

* ``sram_stall_cycles`` — SRAM lookup cycles on the critical path.  These
  pipeline across the accelerator's processing engines, so the system model
  divides them by the memory-level parallelism.
* ``mem_stall_cycles`` — cycles serialized behind the walker's memory
  accesses (page-table / bitmap fetches) plus DVM-PE+ squash retries.

Stall rules per mechanism (Sections 3.2, 4.1, 4.2):

conventional   TLB hit: free (1-cycle, pipelined).  Miss: walk; each
               PWC-eligible level costs 1 SRAM cycle, PWC misses and L1
               PTEs cost one memory fetch each.
dvm_bm         Every access probes the bitmap cache (1 SRAM cycle; miss =
               one memory fetch).  A 00 result means not identity mapped:
               fall back to TLB + full walk.
dvm_pe         Every access walks via the AVC (2–4 SRAM cycles on hits;
               misses go to memory).  DAV is on the critical path.
dvm_pe_plus    Reads overlap DAV with a preload to PA == VA: SRAM cycles
               hide entirely; walk memory fetches expose only what exceeds
               the data access latency.  If DAV finds a non-identity page,
               the preload is squashed (energy + bandwidth) and the read
               retries at the translated PA (one serialized data latency).
               Writes behave like dvm_pe.
ideal          No translation, no protection. Zero overhead.

Implementation note: the per-access loops inline the TLB / walk-cache /
bitmap-cache dictionary operations (rather than calling the model objects'
methods) because they execute millions of times per experiment.  The inline
operations are op-for-op identical to :meth:`TLB.lookup`/:meth:`fill` and
:meth:`SetAssocCache.access`; the unit tests in
``tests/hw/test_iommu_equivalence.py`` verify the equivalence.

On top of the scalar loops sits a batched engine
(:mod:`repro.sim.fastpath`): :meth:`IOMMU.run_trace` compresses the trace
into page runs and replays each lookup structure's run-head stream
through a compiled exact-LRU kernel, rebuilding the dicts from the
replay's last touches.  The fast engine produces bit-identical
:class:`TimingStats` and final structure state
(``tests/sim/test_fastpath_equivalence.py``).  A trace that could
fault has its faults pre-delivered at their predicted sites through the
real fault-delivery machinery (:mod:`repro.hw.fault_queue`,
:mod:`repro.kernel.fault`) and then replays batched.  Traces whose
faults cannot be pinned to sites (permission mosaics), an L2 TLB, a
host without the compiled kernel and raw IOMMUs without a fault path on
faulting traces are refused to the scalar loops, which remain the
ground truth.
Select the engine per call (``engine="scalar"``) or globally via the
``REPRO_TIMING_ENGINE`` environment variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import PageFault, ProtectionFault
from repro.hw.bitmap import PermissionBitmap
from repro.obs import core as obs_core
from repro.obs import record as obs_record
from repro.hw.dram import DRAMModel
from repro.hw.energy import EnergyAccount
from repro.hw.fault_queue import ROUND_TRIP_CYCLES
from repro.hw.tlb import TLB
from repro.hw.walkcache import AccessValidationCache, PageWalkCache
from repro.hw.walker import PageTableWalker
from repro.kernel.page_table import PageTable

if TYPE_CHECKING:  # avoid a circular import; MMUConfig is only a type here
    from repro.core.config import MMUConfig


@dataclass
class TimingStats:
    """Aggregate result of running a trace through one IOMMU configuration."""

    accesses: int = 0
    reads: int = 0
    writes: int = 0
    sram_stall_cycles: int = 0
    mem_stall_cycles: int = 0
    tlb_lookups: int = 0
    tlb_misses: int = 0
    tlb_l2_lookups: int = 0
    tlb_l2_hits: int = 0
    walks: int = 0
    walk_sram_accesses: int = 0
    walk_mem_accesses: int = 0
    bitmap_lookups: int = 0
    bitmap_mem_accesses: int = 0
    identity_accesses: int = 0
    fallback_accesses: int = 0
    squashed_preloads: int = 0
    faults: int = 0                  # recoverable guest faults serviced
    major_faults: int = 0            # serviced by demand page-in
    swap_faults: int = 0             # serviced by reclaimer swap-in
    fault_stall_cycles: int = 0      # engine stall across all services
    energy: EnergyAccount = field(default_factory=EnergyAccount)

    @property
    def tlb_miss_rate(self) -> float:
        """TLB miss rate over the run (0 when the TLB is unused)."""
        return self.tlb_misses / self.tlb_lookups if self.tlb_lookups else 0.0


class IOMMU:
    """One IOMMU instance bound to a process's page table."""

    def __init__(self, config: "MMUConfig", page_table: PageTable,
                 dram: DRAMModel, perm_bitmap: PermissionBitmap | None = None):
        self.config = config
        self.page_table = page_table
        self.dram = dram
        self.perm_bitmap = perm_bitmap
        # Recoverable-fault plumbing (attach_fault_path).  Without one the
        # IOMMU keeps the legacy raise-on-fault behaviour.
        self.fault_path = None
        mech = config.mech
        self.tlb: TLB | None = None
        self.tlb_l2: TLB | None = None
        self.walker: PageTableWalker | None = None
        if mech in ("conventional", "dvm_bm"):
            self.tlb = TLB(config.tlb_entries,
                           page_size=config.tlb_page_size,
                           ways=config.tlb_ways)
            if mech == "conventional" and config.tlb_l2_entries:
                self.tlb_l2 = TLB(config.tlb_l2_entries,
                                  page_size=config.tlb_page_size,
                                  ways=config.tlb_l2_ways)
            cache = PageWalkCache(config.walk_cache_blocks,
                                  config.walk_cache_ways)
            self.walker = PageTableWalker(page_table, cache)
        elif mech in ("dvm_pe", "dvm_pe_plus"):
            cache = AccessValidationCache(config.walk_cache_blocks,
                                          config.walk_cache_ways)
            self.walker = PageTableWalker(page_table, cache)
        if mech == "dvm_bm" and perm_bitmap is None:
            raise ValueError("DVM-BM requires the process's permission bitmap")

    def attach_fault_path(self, fault_path) -> None:
        """Enable recoverable guest faults via a :class:`FaultPath`.

        With a path attached, the per-mechanism loops stop raising bare
        :class:`PageFault`/:class:`ProtectionFault` mid-stream: the fault
        is delivered to the kernel handler, the engine stall is charged
        to the trace's :class:`TimingStats`, and the access resumes (or a
        structured :class:`~repro.common.errors.AccessViolation`
        escapes).  Fault-free traces never hit this machinery, so timing
        stays bit-identical with or without a path.
        """
        self.fault_path = fault_path

    # -- context switching -------------------------------------------------------

    def switch_context(self, page_table: PageTable,
                       perm_bitmap: PermissionBitmap | None = None) -> None:
        """Point the IOMMU at another process (accelerator multiplexing).

        The paper's Section 1 motivates protection precisely because
        accelerators are multiplexed among processes; a context switch
        rebinds the page table (and bitmap) and flushes the
        virtually-tagged and physically-tagged lookup structures (no ASIDs
        are modelled).  DVM's tiny PE working set makes the subsequent
        refill cheap — measured by ``experiments/multiplexing.py``.
        """
        self.page_table = page_table
        # The fault path's kernel handler is bound to the previous
        # process; servicing the new tenant's faults through it would
        # touch the wrong address space.  Detach — the caller re-attaches
        # a path for the new process if it wants recoverable faults.
        self.fault_path = None
        if self.config.mech == "dvm_bm":
            if perm_bitmap is None:
                raise ValueError("DVM-BM context switches need the new "
                                 "process's permission bitmap")
            self.perm_bitmap = perm_bitmap
            self.perm_bitmap.cache.invalidate_all()
        if self.tlb is not None:
            self.tlb.invalidate_all()
        if self.tlb_l2 is not None:
            self.tlb_l2.invalidate_all()
        if self.walker is not None:
            cache = self.walker.cache
            cache.invalidate_all()
            self.walker = PageTableWalker(page_table, cache)

    def invalidate_range(self, va: int, size: int) -> None:
        """IOTLB shootdown for ``[va, va+size)`` (OS unmap/protect path).

        Removes the range's TLB entries and memoized walk outcomes; the
        physically-indexed walk cache is flushed conservatively, since the
        unmapped range's page-table nodes may be freed and their frames
        reused.  Finer-grained than :meth:`switch_context`, mirroring the
        per-range invalidations IOMMU drivers issue on unmap.
        """
        for tlb in (self.tlb, self.tlb_l2):
            if tlb is None:
                continue
            first = va >> tlb.page_shift
            last = (va + size - 1) >> tlb.page_shift
            for tlb_set in tlb._sets:
                for vpn in [v for v in tlb_set if first <= v <= last]:
                    del tlb_set[vpn]
        if self.walker is not None:
            first_page = va >> 12
            last_page = (va + size - 1) >> 12
            memo = self.walker._memo
            for page in [p for p in memo if first_page <= p <= last_page]:
                del memo[page]
            self.walker.cache.invalidate_all()

    # -- trace simulation -------------------------------------------------------

    def run_trace(self, addrs, writes, engine: str | None = None
                  ) -> TimingStats:
        """Simulate a whole trace; returns aggregated timing statistics.

        ``addrs`` is a sequence of virtual addresses, ``writes`` a parallel
        sequence of 0/1 flags.  Both may be numpy arrays.  ``engine``
        selects ``"fast"`` (batched page-run engine, the default) or
        ``"scalar"`` (the per-access loops); unset, the
        ``REPRO_TIMING_ENGINE`` environment variable decides.  The fast
        engine pre-delivers a trace's faults and replays it batched, and
        falls back to the scalar loops entirely for the shapes it
        refuses — results are identical either way.
        """
        from repro.sim import fastpath
        if engine is None:
            engine = fastpath.default_engine()
        elif engine not in ("fast", "scalar"):
            raise ValueError(f"unknown timing engine {engine!r}")
        if engine == "fast":
            return self.run_batch(fastpath.PageRunBatch.from_trace(
                addrs, writes))
        addr_list = addrs.tolist() if hasattr(addrs, "tolist") else list(addrs)
        write_list = (writes.tolist() if hasattr(writes, "tolist")
                      else list(writes))
        if len(addr_list) != len(write_list):
            raise ValueError("addrs and writes must have equal length")
        stats = TimingStats()
        self._maybe_inject_fault(addr_list, write_list, stats)
        return self._run_scalar(addr_list, write_list, stats)

    def run_batch(self, batch) -> TimingStats:
        """Simulate a pre-compressed :class:`~repro.sim.fastpath.PageRunBatch`.

        The batched entry point: callers that already hold a page-run batch
        (the parallel runner shares them across configurations) skip the
        pre-pass.  Falls back to the scalar loops when the fast engine
        declines the trace; after a ``"predelivery_miss"`` they run over
        the healed state, with the delivered faults' charges already in
        ``stats``.
        """
        from repro.sim import fastpath
        stats = TimingStats()
        outcome = fastpath.run_batch(self, batch, stats)
        if outcome:
            self._finalize_energy(stats)
            if obs_core.ENABLED:
                obs_record.record_fastpath(self.config.mech, accepted=True)
                obs_record.record_trace_run(self, stats)
            return stats
        # The fast engine declines every batch while an injector is
        # configured, so the chaos hook fires here, where the scalar loops
        # need the address column anyway.
        self._maybe_inject_fault(batch.addrs, batch.writes, stats)
        if obs_core.ENABLED:
            obs_record.record_fastpath(self.config.mech, accepted=False,
                                       reason=outcome.reason)
        return self._run_scalar(batch.addrs.tolist(), batch.writes.tolist(),
                                stats)

    def _run_scalar(self, addr_list: list, write_list: list,
                    stats: TimingStats | None = None) -> TimingStats:
        """Dispatch to the per-access loops (the ground-truth engine).

        ``stats`` lets an entry point that already charged fault stall
        (the chaos hook, or the faults delivered before a pre-delivery
        miss) pass its accumulator through; the loops assign (not add)
        the trace-wide counters, so pre-charged fault fields survive.
        """
        if stats is None:
            stats = TimingStats()
        mech = self.config.mech
        if mech == "ideal":
            self._run_ideal(addr_list, write_list, stats)
        elif mech == "conventional":
            self._run_conventional(addr_list, write_list, stats)
        elif mech == "dvm_bm":
            self._run_bitmap(addr_list, write_list, stats)
        else:
            self._run_dav(addr_list, write_list, stats,
                          preload=(mech == "dvm_pe_plus"))
        self._finalize_energy(stats)
        if obs_core.ENABLED:
            # Derived, read-only instrumentation — runs after the loops,
            # so the per-access hot path carries zero observability code.
            obs_record.record_trace_run(self, stats)
        return stats

    def access(self, va: int, is_write: bool = False) -> TimingStats:
        """Single-access convenience wrapper (for tests)."""
        return self.run_trace([va], [1 if is_write else 0])

    # -- per-mechanism loops --------------------------------------------------------

    def _run_ideal(self, addrs, writes, stats: TimingStats) -> None:
        n = len(addrs)
        stats.accesses = n
        stats.writes = sum(writes)
        stats.reads = n - stats.writes
        self.dram.stats.data_accesses += n
        if n:
            self.dram.account_rows(np.asarray(addrs, np.int64) >> 12)

    def _run_conventional(self, addrs, writes, stats: TimingStats) -> None:
        tlb = self.tlb
        walker = self.walker
        memo = walker._memo
        info_for = walker.info_for
        cache = walker.cache
        cache_sets = cache._sets
        ncsets = cache.num_sets
        cways = cache.ways
        walk_latency = self.dram.walk_latency
        tshift = tlb.page_shift
        tsets = tlb._sets
        ntsets = tlb.num_sets
        tways = tlb.ways
        tlb_l2 = self.tlb_l2
        if tlb_l2 is not None:
            l2sets = tlb_l2._sets
            nl2sets = tlb_l2.num_sets
            l2ways = tlb_l2.ways
        sram_stall = mem_stall = walk_sram = walk_mem = walks = 0
        cache_misses = 0
        l2_lookups = l2_hits = 0
        nwrites = 0
        for va, w in zip(addrs, writes):
            nwrites += w
            vpn = va >> tshift
            tlb_set = tsets[vpn % ntsets]
            entry = tlb_set.get(vpn)
            if entry is not None:
                del tlb_set[vpn]
                tlb_set[vpn] = entry
                perm = entry[1]
                if w:
                    if perm != 2:
                        self._tlb_hit_fault(va, w, stats, vpn, tshift)
                elif not perm:
                    self._tlb_hit_fault(va, w, stats, vpn, tshift)
                continue
            if tlb_l2 is not None:
                # Second-level probe: one exposed SRAM cycle; a hit refills
                # the first level and skips the walk.
                l2_lookups += 1
                sram_stall += 1
                l2_set = l2sets[vpn % nl2sets]
                entry = l2_set.get(vpn)
                if entry is not None:
                    del l2_set[vpn]
                    l2_set[vpn] = entry
                    l2_hits += 1
                    if len(tlb_set) >= tways:
                        for lru in tlb_set:
                            break
                        del tlb_set[lru]
                    tlb_set[vpn] = entry
                    perm = entry[1]
                    if w:
                        if perm != 2:
                            self._tlb_hit_fault(va, w, stats, vpn, tshift)
                    elif not perm:
                        self._tlb_hit_fault(va, w, stats, vpn, tshift)
                    continue
            page = va >> 12
            info = memo.get(page) or info_for(page)
            if not info[0]:
                info = self._page_fault(va, w, stats)
            fixed = info[5]
            mem = fixed
            blocks = info[4]
            sram = len(blocks)
            for blk in blocks:
                cache_set = cache_sets[blk % ncsets]
                if blk in cache_set:
                    del cache_set[blk]
                else:
                    mem += 1
                    if len(cache_set) >= cways:
                        for lru in cache_set:
                            break
                        del cache_set[lru]
                cache_set[blk] = True
            walks += 1
            walk_sram += sram
            walk_mem += mem
            cache_misses += mem - fixed
            sram_stall += sram
            mem_stall += mem * walk_latency
            perm = info[1]
            if w:
                if perm != 2:
                    info = self._perm_fault(va, w, stats)
                    perm = info[1]
            elif not perm:
                info = self._perm_fault(va, w, stats)
                perm = info[1]
            if len(tlb_set) >= tways:
                for lru in tlb_set:
                    break
                del tlb_set[lru]
            filled = (info[2] - ((va & ~0xFFF) - (vpn << tshift)), perm)
            tlb_set[vpn] = filled
            if tlb_l2 is not None:
                l2_set = l2sets[vpn % nl2sets]
                if vpn in l2_set:
                    del l2_set[vpn]
                elif len(l2_set) >= l2ways:
                    for lru in l2_set:
                        break
                    del l2_set[lru]
                l2_set[vpn] = filled
        n = len(addrs)
        self.dram.stats.data_accesses += n
        self.dram.stats.walk_accesses += walk_mem
        if n:
            self.dram.account_rows(np.asarray(addrs, np.int64) >> 12)
        tlb.stats.hits += n - walks - l2_hits
        tlb.stats.misses += walks + l2_hits
        if tlb_l2 is not None:
            tlb_l2.stats.hits += l2_hits
            tlb_l2.stats.misses += l2_lookups - l2_hits
        cache.stats.hits += walk_sram - cache_misses
        cache.stats.misses += cache_misses
        stats.accesses = n
        stats.writes = nwrites
        stats.reads = n - nwrites
        stats.sram_stall_cycles = sram_stall
        stats.mem_stall_cycles = mem_stall
        stats.tlb_lookups = n
        stats.tlb_misses = walks
        stats.tlb_l2_lookups = l2_lookups
        stats.tlb_l2_hits = l2_hits
        stats.walks = walks
        stats.walk_sram_accesses = walk_sram
        stats.walk_mem_accesses = walk_mem

    def _run_bitmap(self, addrs, writes, stats: TimingStats) -> None:
        bitmap = self.perm_bitmap
        perms = bitmap._perms
        bm_cache = bitmap.cache
        bm_sets = bm_cache._sets
        nbsets = bm_cache.num_sets
        bways = bm_cache.ways
        # Bitmap words are 8 B: the word for a page sits (page >> 2) bytes
        # past the base, i.e. word number (base >> 3) + (page >> 5).
        bm_base_block = bitmap.base_pa >> 3
        tlb = self.tlb
        walker = self.walker
        memo = walker._memo
        info_for = walker.info_for
        cache = walker.cache
        cache_sets = cache._sets
        ncsets = cache.num_sets
        cways = cache.ways
        walk_latency = self.dram.walk_latency
        tshift = tlb.page_shift
        tsets = tlb._sets
        ntsets = tlb.num_sets
        tways = tlb.ways
        sram_stall = mem_stall = bm_mem = 0
        walks = walk_sram = walk_mem = 0
        tlb_lookups = tlb_misses = identity = 0
        nwrites = 0
        for va, w in zip(addrs, writes):
            nwrites += w
            page = va >> 12
            # Bitmap probe: the page's 2 bits live (page >> 2) bytes in.
            blk = bm_base_block + (page >> 5)
            bm_set = bm_sets[blk % nbsets]
            sram_stall += 1
            if blk in bm_set:
                del bm_set[blk]
            else:
                bm_mem += 1
                mem_stall += walk_latency
                if len(bm_set) >= bways:
                    for lru in bm_set:
                        break
                    del bm_set[lru]
            bm_set[blk] = True
            perm = perms.get(page, 0)
            if perm:
                identity += 1
                perm = int(perm)
                if w:
                    if perm != 2:
                        self._perm_fault(va, w, stats)
                continue
            # Not identity mapped: conventional translation fallback.
            tlb_lookups += 1
            vpn = va >> tshift
            tlb_set = tsets[vpn % ntsets]
            entry = tlb_set.get(vpn)
            if entry is not None:
                del tlb_set[vpn]
                tlb_set[vpn] = entry
                perm = entry[1]
                if w:
                    if perm != 2:
                        self._tlb_hit_fault(va, w, stats, vpn, tshift)
                elif not perm:
                    self._tlb_hit_fault(va, w, stats, vpn, tshift)
                continue
            tlb_misses += 1
            info = memo.get(page) or info_for(page)
            if not info[0]:
                info = self._page_fault(va, w, stats)
            mem = info[5]
            blocks = info[4]
            sram = len(blocks)
            for pblk in blocks:
                cache_set = cache_sets[pblk % ncsets]
                if pblk in cache_set:
                    del cache_set[pblk]
                else:
                    mem += 1
                    if len(cache_set) >= cways:
                        for lru in cache_set:
                            break
                        del cache_set[lru]
                cache_set[pblk] = True
            walks += 1
            walk_sram += sram
            walk_mem += mem
            sram_stall += sram
            mem_stall += mem * walk_latency
            perm = info[1]
            if w:
                if perm != 2:
                    info = self._perm_fault(va, w, stats)
                    perm = info[1]
            elif not perm:
                info = self._perm_fault(va, w, stats)
                perm = info[1]
            if len(tlb_set) >= tways:
                for lru in tlb_set:
                    break
                del tlb_set[lru]
            tlb_set[vpn] = (
                info[2] - ((va & ~0xFFF) - (vpn << tshift)), perm
            )
        n = len(addrs)
        self.dram.stats.data_accesses += n
        self.dram.stats.walk_accesses += walk_mem + bm_mem
        if n:
            self.dram.account_rows(np.asarray(addrs, np.int64) >> 12)
        bm_cache.stats.hits += n - bm_mem
        bm_cache.stats.misses += bm_mem
        tlb.stats.hits += tlb_lookups - tlb_misses
        tlb.stats.misses += tlb_misses
        stats.accesses = n
        stats.writes = nwrites
        stats.reads = n - nwrites
        stats.sram_stall_cycles = sram_stall
        stats.mem_stall_cycles = mem_stall
        stats.tlb_lookups = tlb_lookups
        stats.tlb_misses = tlb_misses
        stats.walks = walks
        stats.walk_sram_accesses = walk_sram
        stats.walk_mem_accesses = walk_mem
        stats.bitmap_lookups = n
        stats.bitmap_mem_accesses = bm_mem
        stats.identity_accesses = identity
        stats.fallback_accesses = n - identity

    def _run_dav(self, addrs, writes, stats: TimingStats, *,
                 preload: bool) -> None:
        walker = self.walker
        memo = walker._memo
        info_for = walker.info_for
        cache = walker.cache
        cache_sets = cache._sets
        ncsets = cache.num_sets
        cways = cache.ways
        walk_latency = self.dram.walk_latency
        data_latency = self.dram.data_latency
        sram_stall = mem_stall = 0
        walk_sram = walk_mem = identity = squashes = 0
        nwrites = 0
        for va, w in zip(addrs, writes):
            nwrites += w
            page = va >> 12
            info = memo.get(page) or info_for(page)
            if not info[0]:
                info = self._page_fault(va, w, stats)
            perm = info[1]
            if w:
                if perm != 2:
                    info = self._perm_fault(va, w, stats)
            elif not perm:
                info = self._perm_fault(va, w, stats)
            mem = info[5]
            blocks = info[4]
            sram = len(blocks)
            for blk in blocks:
                cache_set = cache_sets[blk % ncsets]
                if blk in cache_set:
                    del cache_set[blk]
                else:
                    mem += 1
                    if len(cache_set) >= cways:
                        for lru in cache_set:
                            break
                        del cache_set[lru]
                cache_set[blk] = True
            walk_sram += sram
            walk_mem += mem
            is_identity = info[3]
            identity += is_identity
            if preload and not w:
                # DAV overlaps the preload: SRAM cycles hide entirely; only
                # walk memory time beyond the data fetch is exposed.
                if mem:
                    exposed = mem * walk_latency - data_latency
                    if exposed > 0:
                        mem_stall += exposed
                if not is_identity:
                    squashes += 1
                    mem_stall += data_latency
            else:
                sram_stall += sram
                mem_stall += mem * walk_latency
        n = len(addrs)
        self.dram.stats.data_accesses += n
        self.dram.stats.walk_accesses += walk_mem
        self.dram.stats.squashed_preloads += squashes
        if n:
            self.dram.account_rows(np.asarray(addrs, np.int64) >> 12)
        walker.walks += n
        cache.stats.hits += walk_sram - walk_mem
        cache.stats.misses += walk_mem
        stats.accesses = n
        stats.writes = nwrites
        stats.reads = n - nwrites
        stats.sram_stall_cycles = sram_stall
        stats.mem_stall_cycles = mem_stall
        stats.walks = n
        stats.walk_sram_accesses = walk_sram
        stats.walk_mem_accesses = walk_mem
        stats.identity_accesses = identity
        stats.fallback_accesses = n - identity
        stats.squashed_preloads = squashes

    # -- recoverable faults (cold paths) ---------------------------------------

    def _page_fault(self, va: int, w: int, stats: TimingStats):
        """Cold path: an access touched an unmapped page.

        Legacy raise without a fault path; otherwise the fault is
        delivered, serviced and the fresh post-service WalkInfo returned
        so the access resumes.
        """
        if self.fault_path is None:
            raise PageFault(va)
        return self._deliver_fault(va, "w" if w else "r", stats)

    def _perm_fault(self, va: int, w: int, stats: TimingStats):
        """Cold path: an access was denied by the permission check."""
        if self.fault_path is None:
            raise ProtectionFault(va, "w" if w else "r")
        return self._deliver_fault(va, "w" if w else "r", stats)

    def _tlb_hit_fault(self, va: int, w: int, stats: TimingStats,
                       vpn: int, tshift: int) -> None:
        """Cold path: permission fault on a TLB hit.

        After a successful service the stale entries (popped by
        :meth:`_deliver_fault`) are refilled from the fresh walk, so
        later accesses see the corrected permission.
        """
        info = self._perm_fault(va, w, stats)
        filled = (info[2] - ((va & ~0xFFF) - (vpn << tshift)), info[1])
        for tlb in (self.tlb, self.tlb_l2):
            if tlb is not None:
                tlb._sets[vpn % tlb.num_sets][vpn] = filled

    def _deliver_fault(self, va: int, access: str, stats: TimingStats):
        """Deliver one guest fault through the fault path.

        Charges the fault (:meth:`_charge_faults`) and re-walks
        authoritatively.  Raises
        :class:`~repro.common.errors.AccessViolation` — from the handler,
        or here if the fault persists after service — otherwise returns
        the fresh WalkInfo.
        """
        path = self.fault_path
        kind = path.deliver(va, access)
        self._charge_faults([va], [kind], stats)
        walker = self.walker
        if walker is None:
            return None
        info = walker.info_for(va >> 12)
        perm = info[1]
        if not info[0] or (perm != 2 if access == "w" else not perm):
            path.escalate(va, access,
                          reason=f"fault persists after {kind} service")
        return info

    def _deliver_faults(self, vas: list, accesses: list,
                        stats: TimingStats) -> int:
        """Batch twin of :meth:`_deliver_fault` for fault pre-delivery.

        Services the sites in order through
        :meth:`~repro.hw.fault_queue.FaultPath.deliver_batch` and returns
        the index of the first site that would escalate (``len(vas)``
        when none does); the caller delivers it and the rest one by one.
        The served sites are charged once after the pass — also when a
        service raises mid-pass.  No post-service re-walk: pre-delivery's
        re-screen re-walks every page a service could have healed.
        """
        served: list = []
        try:
            return self.fault_path.deliver_batch(vas, accesses, served)
        finally:
            self._charge_faults([vas[i] for i, _ in served],
                                [kind for _, kind in served], stats)

    def _charge_faults(self, vas: list, kinds: list,
                       stats: TimingStats) -> None:
        """Charge served faults to ``stats``, one PRI round trip each.

        Counts major and swap services by kind (a spurious service counts
        toward ``faults`` only) and drops each page's stale cached state:
        TLB entries and the walker memo.
        """
        count = len(vas)
        stats.faults += count
        stats.major_faults += kinds.count("major")
        stats.swap_faults += kinds.count("swap")
        stats.fault_stall_cycles += count * ROUND_TRIP_CYCLES
        for tlb in (self.tlb, self.tlb_l2):
            if tlb is not None:
                shift, tsets = tlb.page_shift, tlb._sets
                for va in vas:
                    vpn = va >> shift
                    tsets[vpn % tlb.num_sets].pop(vpn, None)
        if self.walker is not None:
            memo = self.walker._memo
            for va in vas:
                memo.pop(va >> 12, None)

    def _maybe_inject_fault(self, addrs, writes, stats: TimingStats) -> None:
        """Chaos hook: synthesize one guest fault for this trace.

        ``page_fault`` delivers a spurious-serviceable fault for the
        middle access (the stall perturbs timing — the runner's barrier
        discards and re-runs); ``perm_fault`` escalates an injected
        violation (the pair is quarantined).  Only fires on IOMMUs with a
        fault path — raw IOMMUs keep chaos-free legacy semantics.
        ``addrs``/``writes`` are the per-access columns; :meth:`run_batch`
        calls the hook only on its scalar fallback, so batches the fast
        engine accepts never build their address column for it.
        """
        from repro.common import faults
        if self.fault_path is None or not faults.active():
            return
        if self.config.mech == "ideal":
            return      # no translation, no protection — nothing to fault
        n = len(addrs)
        if not n:
            return
        i = n // 2
        va, w = int(addrs[i]), int(writes[i])
        if faults.should_fire("page_fault"):
            self._deliver_fault(va, "w" if w else "r", stats)
        if faults.should_fire("perm_fault"):
            self.fault_path.escalate(
                va, "w" if w else "r", kind="injected", index=i,
                reason="injected permission violation")

    # -- helpers -----------------------------------------------------------------

    def _finalize_energy(self, stats: TimingStats) -> None:
        """Fill the MMU dynamic-energy account (Figure 9's methodology).

        Finalization is additive over the trace-wide totals, so it runs
        exactly once per trace, from the batch-level caller.
        """
        if self.config.mech == "ideal":
            return
        tlb_event = ("tlb_fa_lookup" if self.config.tlb_ways is None
                     else "tlb_sa_lookup")
        # DVM-BM probes its fallback FA TLB in parallel with the bitmap
        # cache on every access (the latency model charges only the
        # bitmap, but the energy is spent) — this parallel probe is why
        # the paper's DVM-BM saves only ~15% energy over the baseline.
        tlb_lookups = (stats.accesses if self.config.mech == "dvm_bm"
                       else stats.tlb_lookups)
        events = {tlb_event: tlb_lookups}
        # An L2 TLB is always set-associative; fold into the same event
        # when the L1 is too.
        events["tlb_sa_lookup"] = (events.get("tlb_sa_lookup", 0)
                                   + stats.tlb_l2_lookups)
        events["sram_lookup"] = (stats.walk_sram_accesses
                                 + stats.bitmap_lookups)
        events["dram_access"] = (stats.walk_mem_accesses
                                 + stats.bitmap_mem_accesses
                                 + stats.squashed_preloads)
        events["fault_service"] = stats.faults
        stats.energy.add_batch(events)
