"""Identity mapping: the OS half of DVM (paper Section 4.3, Figure 7).

The allocation algorithm is the paper's Figure 7 pseudocode::

    Memory-Allocation(Size S):
        PA <- contiguous-PM-allocation(S)          # eager paging
        if PA != NULL:
            move region to VA2 == PA               # flexible address space
            if move succeeds: return VA2           # identity mapped
            else: free PM; fall back to demand paging
        else: fall back to demand paging

Identity mapping can fail for two distinct reasons, both tracked separately
because the Table 4 study distinguishes them:

* *physical contiguity failure* — the buddy allocator has no contiguous
  block large enough (fragmentation / low memory);
* *VA conflict* — the VA range equal to the allocated PA range is already
  occupied in this address space (e.g. by the code segment or an earlier
  demand-paged mapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.consts import (
    ENTRIES_PER_NODE,
    LEVEL_SPAN,
    PAGE_SHIFT,
    PAGE_SIZE,
)
from repro.common.errors import AddressSpaceError, OutOfMemoryError
from repro.common.perms import Perm
from repro.common.util import align_up
from repro.kernel.address_space import USER_VA_LIMIT, AddressSpace, VMA
from repro.kernel.page_table import PageTable
from repro.kernel.phys import PhysicalMemory

#: A VA's L1 node (2 MB of VA) and its slot there.
_L1_BASE_MASK = ~(LEVEL_SPAN[2] - 1)
_L1_INDEX_MASK = ENTRIES_PER_NODE - 1


@dataclass
class IdentityStats:
    """Outcome counters for identity-mapping attempts."""

    attempts: int = 0
    successes: int = 0
    contiguity_failures: int = 0
    va_conflicts: int = 0
    identity_bytes: int = 0

    @property
    def failures(self) -> int:
        """Total failed attempts (either failure mode)."""
        return self.contiguity_failures + self.va_conflicts


@dataclass
class IdentityMapper:
    """Applies Figure 7's identity-mapping algorithm to one address space."""

    phys: PhysicalMemory
    aspace: AddressSpace
    page_table: PageTable
    stats: IdentityStats = field(default_factory=IdentityStats)

    def try_map(self, size: int, perm: Perm, *, kind: str = "mmap",
                name: str = "") -> VMA | None:
        """Attempt an identity-mapped allocation of ``size`` bytes.

        Returns the VMA (whose start VA equals the backing PA) on success,
        or None when the caller must fall back to demand paging.
        """
        usable = align_up(size, PAGE_SIZE)
        try:
            pa = self.phys.alloc_contiguous(usable)
        except OutOfMemoryError:
            pa = None
        return self.place(pa, usable, perm, kind=kind, name=name)

    def place(self, pa: int | None, size: int, perm: Perm, *,
              kind: str = "mmap", name: str = "") -> VMA | None:
        """The rest of :meth:`try_map` once the contiguous allocation of
        ``size`` (page-aligned) bytes returned ``pa`` (None: it failed):
        move the region to VA == ``pa`` and map it, or give the frames
        back on a VA conflict.
        """
        self.stats.attempts += 1
        if pa is None:
            self.stats.contiguity_failures += 1
            return None
        try:
            vma = self.aspace.reserve_exact(
                pa, size, perm, kind=kind, identity=True, name=name
            )
        except AddressSpaceError:
            # The move to VA2 == PA failed: the VA range is taken.
            self.phys.free_contiguous(pa, size)
            self.stats.va_conflicts += 1
            return None
        self.page_table.map_identity_range(pa, size, perm)
        self.stats.successes += 1
        self.stats.identity_bytes += size
        return vma

    def map_pages(self, count: int, perm: Perm, *, name: str = ""
                  ) -> tuple[list[VMA], int | None]:
        """Identity-map up to ``count`` one-page areas in one pass.

        Equal in every piece of state to ``try_map(PAGE_SIZE, perm,
        name=f"{name}{i}")`` for each ``i`` in order, for as long as each
        page's frame is allocated, its VA ascends past every area and
        table pointers (or missing nodes) lead to its vacant L1 slot.
        Nodes are created when the first page reaches them, so their
        frames interleave with the data frames as one call per page
        allocates them; the areas are appended and the slots filled once.

        Returns the areas mapped and, when it stopped short of ``count``,
        the frame it allocated for the next page (None when that
        allocation failed): :meth:`place` finishes that page.
        """
        phys, table = self.phys, self.page_table
        floor = self.aspace.top()
        vmas: list[VMA] = []
        slots: list = []
        node = None
        node_base = -1
        frame = None
        for i in range(count):
            try:
                pa = phys.alloc_contiguous(PAGE_SIZE)
            except OutOfMemoryError:
                break
            if pa < floor or pa + PAGE_SIZE > USER_VA_LIMIT:
                frame = pa
                break
            if pa & _L1_BASE_MASK != node_base:
                node = table.identity_l1_node(pa)
                if node is None:
                    frame = pa
                    break
                node_base = pa & _L1_BASE_MASK
                indices: list[int] = []
                slots.append((node, indices))
            index = (pa >> PAGE_SHIFT) & _L1_INDEX_MASK
            if index in node.entries:
                frame = pa
                break
            indices.append(index)
            floor = pa + PAGE_SIZE
            vmas.append(VMA(pa, floor, perm, "mmap", True, f"{name}{i}"))
        table.fill_identity_slots(slots, perm)
        self.aspace.append(vmas)
        mapped = len(vmas)
        self.stats.attempts += mapped
        self.stats.successes += mapped
        self.stats.identity_bytes += mapped * PAGE_SIZE
        return vmas, frame

    def unmap(self, vma: VMA) -> None:
        """Release an identity mapping created by :func:`try_map`."""
        if not vma.identity:
            raise ValueError("unmap() only handles identity VMAs")
        self.page_table.unmap_range(vma.start, vma.size)
        self.aspace.remove(vma)
        self.phys.free_contiguous(vma.start, vma.size)
        self.stats.identity_bytes -= vma.size

    def unmap_pages(self, vmas: list[VMA]) -> int:
        """Release one-page identity areas in one pass; returns how many.

        Equal to :meth:`unmap` on each area in order, for as long as each
        is a one-page identity area over an L1 leaf: its slot is popped
        (freeing the nodes that empty), its frame freed, and the released
        areas leave the address space in one rebuild.  Stops at the
        first area that cannot take this path.
        """
        table, phys = self.page_table, self.phys
        done = 0
        for vma in vmas:
            if not (vma.identity and vma.size == PAGE_SIZE
                    and table.unmap_l1_page(vma.start)):
                break
            phys.free_frame(vma.start)
            done += 1
        self.aspace.remove_all(vmas[:done])
        self.stats.identity_bytes -= done * PAGE_SIZE
        return done
