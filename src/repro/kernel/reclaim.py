"""Low-memory reclamation and identity re-establishment (Section 4.3.2).

The paper sketches — but does not implement — the low-memory path: "to
reclaim memory, the OS could convert permission entries to standard PTEs
and swap out memory ... once there is sufficient free memory, the OS can
reorganize memory to reestablish identity mappings."  This module
implements that sketch:

* :meth:`Reclaimer.reclaim_allocation` — convert a victim's PEs to standard
  PTEs, mark its pages swapped out and free the frames (the allocation is
  demoted to demand-paged bookkeeping);
* :meth:`Reclaimer.swap_in` — demand swap-in on access: the page returns at
  whatever frame is available, so identity is generally broken — exactly
  the degradation the paper accepts;
* :meth:`Reclaimer.reestablish_identity` — once memory frees up, migrate a
  fully-resident allocation's frames back to PA == VA and re-install its
  Permission Entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.consts import PAGE_SIZE
from repro.common.perms import Perm
from repro.common.errors import ReproError
from repro.kernel.process import Process
from repro.kernel.vm_syscalls import Allocation
from repro.obs import core as obs_core


class ReclaimError(ReproError):
    """Raised on invalid reclamation operations."""


@dataclass
class SwapSlot:
    """One swapped-out page (contents are not modelled, only residency)."""

    perm: Perm
    was_identity: bool


@dataclass
class ReclaimStats:
    """Counters for the reclamation machinery."""

    pages_swapped_out: int = 0
    pages_swapped_in: int = 0
    bytes_reclaimed: int = 0
    identity_reestablished: int = 0


@dataclass
class Reclaimer:
    """Swap-based reclamation for one kernel."""

    kernel: object
    stats: ReclaimStats = field(default_factory=ReclaimStats)
    _swap: dict[tuple[int, int], SwapSlot] = field(default_factory=dict)

    # -- reclaiming ---------------------------------------------------------------

    def reclaim_allocation(self, process: Process,
                           alloc: Allocation) -> int:
        """Swap out one identity allocation entirely; returns bytes freed."""
        if not alloc.identity:
            raise ReclaimError("victims must be identity-mapped allocations")
        pages = process.page_table.swap_out_range(alloc.va, alloc.size)
        freed = 0
        for page_va, old_pa, was_identity, perm in pages:
            self._swap[(process.pid, page_va)] = SwapSlot(
                perm=perm, was_identity=was_identity)
            self.kernel.phys.free_frame(old_pa)
            freed += PAGE_SIZE
        if process.vmm.perm_bitmap is not None:
            # DVM-BM validates identity accesses against the flat bitmap
            # alone; a stale grant here would let the IOMMU sail past a
            # swapped-out page without faulting.
            process.vmm.perm_bitmap.clear_range(alloc.va, alloc.size)
        self._demote_bookkeeping(process, alloc)
        self.stats.pages_swapped_out += len(pages)
        self.stats.bytes_reclaimed += freed
        if obs_core.ENABLED:
            obs_core.REGISTRY.counter(
                "kernel.reclaim.pages_swapped_out").inc(len(pages))
            obs_core.REGISTRY.counter(
                "kernel.reclaim.bytes_reclaimed").inc(freed)
        return freed

    def reclaim(self, process: Process, target_bytes: int) -> int:
        """Reclaim at least ``target_bytes`` from a process if possible.

        Victims are identity-mapped heap allocations, largest first (they
        free the most contiguity per page-table surgery).
        """
        victims = sorted(
            (a for a in process.vmm.allocations() if a.identity),
            key=lambda a: a.size, reverse=True,
        )
        freed = 0
        for alloc in victims:
            if freed >= target_bytes:
                break
            freed += self.reclaim_allocation(process, alloc)
        return freed

    # -- swap-in ------------------------------------------------------------------

    def swap_in(self, process: Process, va: int) -> int:
        """Demand swap-in of the page containing ``va``; returns the new PA.

        The frame comes from wherever the allocator has space, so the page
        usually returns non-identity — DAV falls back to translation for
        it until :meth:`reestablish_identity` runs.
        """
        page_va = va & ~(PAGE_SIZE - 1)
        key = (process.pid, page_va)
        if key not in self._swap:
            raise ReclaimError(f"page {page_va:#x} is not in swap")
        # Allocate before dropping the slot: an out-of-memory swap-in
        # must leave the page swapped (slot and SwappedPTE together) so
        # a retry after memory frees up can still bring it back.
        frame = self.kernel.phys.alloc_frame()
        del self._swap[key]
        process.page_table.swap_in_page(page_va, frame)
        alloc = process.vmm.allocation_at(page_va)
        if alloc is not None:
            alloc.phys_chunks.append((frame, PAGE_SIZE))
        self.stats.pages_swapped_in += 1
        if obs_core.ENABLED:
            obs_core.REGISTRY.counter("kernel.reclaim.pages_swapped_in").inc()
        return frame + (va - page_va)

    def swap_in_allocation(self, process: Process,
                           alloc: Allocation) -> int:
        """Swap in every still-swapped page of an allocation."""
        count = 0
        for page_va in range(alloc.va, alloc.va + alloc.size, PAGE_SIZE):
            if (process.pid, page_va) in self._swap:
                self.swap_in(process, page_va)
                count += 1
        return count

    def is_swapped(self, process: Process, va: int) -> bool:
        """Whether the page containing ``va`` is currently swapped out."""
        return (process.pid, va & ~(PAGE_SIZE - 1)) in self._swap

    # -- re-establishing identity ----------------------------------------------------

    def reestablish_identity(self, process: Process,
                             alloc: Allocation) -> bool:
        """Migrate an allocation back to PA == VA and restore its PEs.

        Every page must be resident (use :meth:`swap_in_allocation` first).
        Returns False — with nothing changed — when some frame of the
        identity range is owned by someone else.
        """
        table = process.page_table
        resident: list[tuple[int, int]] = []
        perm = None
        for page_va in range(alloc.va, alloc.va + alloc.size, PAGE_SIZE):
            if (process.pid, page_va) in self._swap:
                raise ReclaimError(
                    f"page {page_va:#x} is swapped out; swap in first")
            result = table.walk(page_va)
            if not result.ok:
                raise ReclaimError(f"page {page_va:#x} is unmapped")
            perm = result.perm if perm is None else perm
            resident.append((page_va, result.pa))
        # The allocation's frames may permute within the target range (a
        # swap-in often reuses the just-freed identity frames), so work in
        # sets: frames we must claim are target-minus-owned; frames we must
        # release are owned-minus-target.  Check claimability first, then
        # commit — claims of distinct pages are independent.
        target = set(range(alloc.va, alloc.va + alloc.size, PAGE_SIZE))
        owned = {pa for _va, pa in resident}
        to_claim = sorted(target - owned)
        to_free = sorted(owned - target)
        phys = self.kernel.phys
        if any(phys.allocator._free_ancestor(frame, 0) is None
               for frame in to_claim):
            return False
        for frame in to_claim:
            claimed = phys.alloc_exact(frame, PAGE_SIZE)
            assert claimed, "checked free above"
        # Migrate (data copy not modelled): drop the old mapping, re-install
        # the identity range with PEs, release the scattered frames.
        table.unmap_range(alloc.va, alloc.size)
        restored = perm if perm is not None else Perm.READ_WRITE
        table.map_identity_range(alloc.va, alloc.size, restored)
        if process.vmm.perm_bitmap is not None:
            process.vmm.perm_bitmap.set_range(alloc.va, alloc.size, restored)
        for frame in to_free:
            phys.free_frame(frame)
        self._promote_bookkeeping(process, alloc)
        self.stats.identity_reestablished += 1
        if obs_core.ENABLED:
            obs_core.REGISTRY.counter(
                "kernel.reclaim.identity_reestablished").inc()
        return True

    # -- internals --------------------------------------------------------------------

    @staticmethod
    def _demote_bookkeeping(process: Process, alloc: Allocation) -> None:
        alloc.identity = False
        alloc.vma.identity = False
        stats = process.vmm.stats
        stats.identity_bytes -= alloc.size
        stats.identity_allocs -= 1
        stats.demand_bytes += alloc.size
        stats.demand_allocs += 1

    @staticmethod
    def _promote_bookkeeping(process: Process, alloc: Allocation) -> None:
        alloc.identity = True
        alloc.vma.identity = True
        alloc.phys_chunks.clear()
        stats = process.vmm.stats
        stats.identity_bytes += alloc.size
        stats.identity_allocs += 1
        stats.demand_bytes -= alloc.size
        stats.demand_allocs -= 1
