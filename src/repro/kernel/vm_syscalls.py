"""mmap/munmap emulation: the per-process virtual memory manager.

This is where the memory-management *policy* lives.  A process's VMM is
configured with one of three policies:

* ``conventional`` — demand paging with a chosen page size (4 KB, 2 MB or
  1 GB), THP-style: huge pages where alignment allows, 4 KB elsewhere.
  This backs the paper's ``4K/2M/1G TLB+PWC`` baselines.
* ``dvm`` — identity mapping first (Figure 7), Permission Entries in the
  page table, demand-paged 4 KB fallback.  Backs ``DVM-PE``/``DVM-PE+``.
* ``dvm_bitmap`` — identity mapping first, permissions additionally
  recorded in a flat physical-memory bitmap (Border-Control style); the
  page table keeps plain identity PTEs for the translation fallback.
  Backs ``DVM-BM``.

For demand-paged mappings the simulator pre-faults eagerly (physical frames
are allocated and mapped at mmap time) because the trace-driven timing model
measures steady-state MMU behaviour, as the paper's gem5 runs do.  Frames
for a demand mapping are allocated per page-size chunk, so PA != VA and
physical contiguity matches the page size — exactly what a first-touch
allocator converges to.

With ``MemPolicy(demand_faulting=True)`` the eager pre-fault is disabled:
mmap only reserves the VMA, and frames are allocated one policy-size chunk
at a time by :meth:`VMM.populate_for_fault` when the kernel fault handler
(:mod:`repro.kernel.fault`) services a major fault.  This makes the cost
DVM's eager identity mapping avoids (paper Section 4.3) measurable.

:meth:`VMM.mmap_pages` and :meth:`VMM.munmap_pages` are batch twins of
one-page ``mmap``/``munmap`` (the fragment prelude of :mod:`repro.gen`
maps and unmaps hundreds of single pages): each equals the sequence of
per-page calls in every piece of kernel state, takes the one-pass path
(:meth:`IdentityMapper.map_pages`/``unmap_pages``) while it applies, and
hands the rest to the per-page calls from the first page it cannot take.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.consts import PAGE_SIZE, SIZE_1G, SIZE_2M
from repro.common.errors import AddressSpaceError, OutOfMemoryError
from repro.common.perms import Perm
from repro.common.util import align_up, is_aligned
from repro.kernel.address_space import AddressSpace, VMA
from repro.kernel.identity import IdentityMapper
from repro.kernel.page_table import PageTable
from repro.kernel.phys import PhysicalMemory

def _valid_page_size(size: int) -> bool:
    """Demand-paging granularities: power-of-two multiples of 4 KB up to 1 GB.

    Besides the native x86-64 sizes, scaled analog sizes (e.g. 64 KB
    standing in for 2 MB; see DESIGN.md "Scaling") are allowed: a chunk of
    such a size is physically contiguous and mapped with the largest native
    pages that fit, and the TLB models reach at the analog granularity.
    """
    return (PAGE_SIZE <= size <= SIZE_1G and size % PAGE_SIZE == 0
            and size & (size - 1) == 0)


@dataclass(frozen=True)
class MemPolicy:
    """Memory-management policy for one process."""

    mode: str = "conventional"      # "conventional" | "dvm" | "dvm_bitmap"
    page_size: int = PAGE_SIZE      # demand-paging page size (THP-style)
    use_pes: bool = True            # install Permission Entries (dvm mode)
    pe_format: str = "pe16"         # "pe16" | "spare_bits" (Section 4.1.1)
    demand_faulting: bool = False   # lazy backing: populate on major fault

    def __post_init__(self):
        if self.mode not in ("conventional", "dvm", "dvm_bitmap"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if not _valid_page_size(self.page_size):
            raise ValueError(f"unsupported page size {self.page_size}")
        if self.pe_format not in ("pe16", "spare_bits"):
            raise ValueError(f"unknown PE format {self.pe_format!r}")

    @property
    def wants_identity(self) -> bool:
        """Whether this policy attempts identity mapping."""
        return self.mode in ("dvm", "dvm_bitmap")


@dataclass
class Allocation:
    """One mmap'd region and its physical backing."""

    vma: VMA
    phys_chunks: list[tuple[int, int]]   # (pa, size); empty for identity
    identity: bool

    @property
    def va(self) -> int:
        """Base virtual address."""
        return self.vma.start

    @property
    def size(self) -> int:
        """Mapped size in bytes (page aligned)."""
        return self.vma.size


@dataclass
class VMMStats:
    """Aggregate allocation statistics for one process."""

    identity_allocs: int = 0
    demand_allocs: int = 0
    identity_bytes: int = 0
    demand_bytes: int = 0
    faulted_chunks: int = 0         # chunks populated by the fault handler

    @property
    def total_bytes(self) -> int:
        """All mapped bytes."""
        return self.identity_bytes + self.demand_bytes


class VMM:
    """Virtual memory manager for a single process."""

    def __init__(self, phys: PhysicalMemory, aspace: AddressSpace,
                 page_table: PageTable, policy: MemPolicy,
                 perm_bitmap=None):
        if policy.mode == "dvm_bitmap" and perm_bitmap is None:
            raise ValueError("dvm_bitmap policy requires a permission bitmap")
        self.phys = phys
        self.aspace = aspace
        self.page_table = page_table
        self.policy = policy
        self.perm_bitmap = perm_bitmap
        self.identity_mapper = IdentityMapper(phys, aspace, page_table)
        self.stats = VMMStats()
        self._allocations: dict[int, Allocation] = {}

    # -- public API -----------------------------------------------------------

    def mmap(self, size: int, perm: Perm = Perm.READ_WRITE, *,
             kind: str = "mmap", name: str = "",
             alignment: int | None = None) -> Allocation:
        """Allocate and map ``size`` bytes; returns the allocation record.

        ``alignment`` constrains the VA (and, for demand mappings, the
        placement) beyond the paging granularity — e.g. a hypervisor
        aligning guest RAM so guest-relative alignments hold absolutely.
        """
        if size <= 0:
            raise ValueError(f"mmap size must be positive, got {size}")
        if self.policy.wants_identity:
            vma = self.identity_mapper.try_map(size, perm, kind=kind, name=name)
            if vma is not None:
                return self._identity_alloc(vma, perm)
        return self._demand_alloc(size, perm, kind=kind, name=name,
                                  alignment=alignment)

    def mmap_pages(self, count: int, perm: Perm = Perm.READ_WRITE, *,
                   name: str = "") -> list[Allocation]:
        """Map ``count`` one-page allocations named ``f"{name}{i}"``.

        The batch twin of :meth:`mmap`: equal in every piece of state to
        ``count`` sequential ``mmap(PAGE_SIZE, perm, name=f"{name}{i}")``
        calls.  Identity policies place the pages in one pass
        (:meth:`IdentityMapper.map_pages`); the page that pass stops at is
        finished as :meth:`mmap` would, and every later page goes through
        :meth:`mmap` one at a time.
        """
        allocs: list[Allocation] = []
        if self.policy.wants_identity:
            mapper = self.identity_mapper
            vmas, frame = mapper.map_pages(count, perm, name=name)
            allocs = self._identity_pages(vmas, perm)
            if len(allocs) < count:
                page_name = f"{name}{len(allocs)}"
                vma = mapper.place(frame, PAGE_SIZE, perm, name=page_name)
                allocs.append(
                    self._demand_alloc(PAGE_SIZE, perm, kind="mmap",
                                       name=page_name)
                    if vma is None else self._identity_alloc(vma, perm))
        allocs.extend(self.mmap(PAGE_SIZE, perm, name=f"{name}{i}")
                      for i in range(len(allocs), count))
        return allocs

    def munmap(self, alloc: Allocation) -> None:
        """Unmap and free an allocation returned by :func:`mmap`."""
        if alloc.va not in self._allocations:
            raise AddressSpaceError(f"no allocation at {alloc.va:#x}")
        del self._allocations[alloc.va]
        if alloc.identity:
            if self.perm_bitmap is not None:
                self.perm_bitmap.clear_range(alloc.va, alloc.size)
            self.identity_mapper.unmap(alloc.vma)
            self.stats.identity_bytes -= alloc.size
            self.stats.identity_allocs -= 1
            return
        self.page_table.unmap_range(alloc.va, alloc.size)
        self.aspace.remove(alloc.vma)
        for pa, chunk_size in alloc.phys_chunks:
            self.phys.free_contiguous(pa, chunk_size)
        self.stats.demand_bytes -= alloc.size
        self.stats.demand_allocs -= 1

    def munmap_pages(self, allocs: list[Allocation]) -> None:
        """Unmap allocations in order, as sequential :meth:`munmap` calls.

        The batch twin of :meth:`munmap`: a leading run of live one-page
        identity allocations is released in one pass
        (:meth:`IdentityMapper.unmap_pages`, which stops at the first
        area that is not one); from the first allocation that pass stops
        at, the rest go through :meth:`munmap` one at a time.
        """
        live = self._allocations
        run = 0
        for alloc in allocs:
            if live.get(alloc.va) is not alloc:
                break
            run += 1
        done = self.identity_mapper.unmap_pages(
            [alloc.vma for alloc in allocs[:run]])
        bitmap = self.perm_bitmap
        for alloc in allocs[:done]:
            del live[alloc.va]
            if bitmap is not None:
                bitmap.clear_range(alloc.va, PAGE_SIZE)
        self.stats.identity_bytes -= done * PAGE_SIZE
        self.stats.identity_allocs -= done
        for alloc in allocs[done:]:
            self.munmap(alloc)

    def allocations(self) -> list[Allocation]:
        """Live allocations, ordered by VA."""
        return [self._allocations[va] for va in sorted(self._allocations)]

    def allocation_at(self, va: int) -> Allocation | None:
        """The live allocation containing ``va``, if any."""
        vma = self.aspace.find(va)
        return None if vma is None else self._allocations.get(vma.start)

    def populate_for_fault(self, va: int,
                           alloc: Allocation | None = None) -> bool:
        """Back the policy-size chunk containing ``va`` (major fault).

        Returns True when a chunk was allocated and mapped, False when
        ``va`` has no demand allocation to back (a true violation — the
        fault handler escalates).  Chunk boundaries match the eager
        :meth:`_populate` walk: demand VMAs are reserved aligned to the
        policy page size, so every chunk is a whole, naturally aligned
        (analog) huge page and a fault maps all of it at once.  ``alloc``
        is :meth:`allocation_at`'s answer for ``va`` when the caller (the
        fault handler's classifier) already has it.
        """
        if alloc is None:
            alloc = self.allocation_at(va)
        if alloc is None or alloc.identity:
            return False
        page_size = self.policy.page_size
        chunk_start = max(va & ~(page_size - 1), alloc.va)
        chunk = min(page_size, alloc.va + alloc.size - chunk_start)
        if not is_aligned(chunk_start, page_size) or chunk < page_size:
            chunk = PAGE_SIZE
            chunk_start = va & ~(PAGE_SIZE - 1)
        pa = self.phys.alloc_contiguous(chunk)
        perm = alloc.vma.perm
        if chunk >= SIZE_2M:
            self.page_table.map_range_best_effort(
                chunk_start, pa, chunk, perm, preferred_page_size=SIZE_2M)
        else:
            self.page_table.map_range(chunk_start, pa, chunk, perm,
                                      page_size=PAGE_SIZE)
        alloc.phys_chunks.append((pa, chunk))
        self.stats.faulted_chunks += 1
        return True

    # -- internals ---------------------------------------------------------------

    def _register(self, alloc: Allocation) -> None:
        self._allocations[alloc.va] = alloc
        if alloc.identity:
            self.stats.identity_allocs += 1
            self.stats.identity_bytes += alloc.size
        else:
            self.stats.demand_allocs += 1
            self.stats.demand_bytes += alloc.size

    def _identity_alloc(self, vma: VMA, perm: Perm) -> Allocation:
        """Record a mapped identity area: bitmap permissions, registration."""
        if self.perm_bitmap is not None:
            self.perm_bitmap.set_range(vma.start, vma.size, perm)
        alloc = Allocation(vma=vma, phys_chunks=[], identity=True)
        self._register(alloc)
        return alloc

    def _identity_pages(self, vmas: list[VMA], perm: Perm) -> list[Allocation]:
        """:meth:`_identity_alloc` for one-page areas, registered at once."""
        allocs = [Allocation(vma, [], True) for vma in vmas]
        if self.perm_bitmap is not None:
            for vma in vmas:
                self.perm_bitmap.set_range(vma.start, PAGE_SIZE, perm)
        self._allocations.update(zip([vma.start for vma in vmas], allocs))
        self.stats.identity_allocs += len(allocs)
        self.stats.identity_bytes += len(allocs) * PAGE_SIZE
        return allocs

    def _demand_alloc(self, size: int, perm: Perm, *, kind: str, name: str,
                      alignment: int | None = None) -> Allocation:
        alloc = self._demand_map(size, perm, kind=kind, name=name,
                                 alignment=alignment)
        self._register(alloc)
        return alloc

    def _demand_map(self, size: int, perm: Perm, *, kind: str,
                    name: str, alignment: int | None = None) -> Allocation:
        # Round up to the paging granularity so every chunk is a whole,
        # naturally aligned (analog) huge page — the property that makes a
        # huge-page TLB entry's reach valid.
        usable = align_up(size, self.policy.page_size)
        vma = self.aspace.reserve_anywhere(
            usable, perm, kind=kind, name=name,
            alignment=max(self.policy.page_size, alignment or 0))
        if self.policy.demand_faulting:
            # Lazy backing: frames arrive chunk-by-chunk when the fault
            # handler calls populate_for_fault on first touch.
            return Allocation(vma=vma, phys_chunks=[], identity=False)
        try:
            chunks = self._populate(vma, perm)
        except OutOfMemoryError:
            self.aspace.remove(vma)
            raise
        return Allocation(vma=vma, phys_chunks=chunks, identity=False)

    def _populate(self, vma: VMA, perm: Perm) -> list[tuple[int, int]]:
        """Back a demand VMA with frames, chunked at the policy page size."""
        page_size = self.policy.page_size
        chunks: list[tuple[int, int]] = []
        cursor = vma.start
        end = vma.end
        try:
            while cursor < end:
                # Head/tail not aligned to the huge page size get 4 KB pages.
                chunk = page_size
                if not is_aligned(cursor, page_size) or cursor + page_size > end:
                    chunk = PAGE_SIZE
                pa = self.phys.alloc_contiguous(chunk)
                chunks.append((pa, chunk))
                if chunk >= SIZE_2M:
                    self.page_table.map_range_best_effort(
                        cursor, pa, chunk, perm, preferred_page_size=SIZE_2M
                    )
                else:
                    self.page_table.map_range(cursor, pa, chunk, perm,
                                              page_size=PAGE_SIZE)
                cursor += chunk
        except OutOfMemoryError:
            for pa, chunk in chunks:
                self.phys.free_contiguous(pa, chunk)
            if cursor > vma.start:
                self.page_table.unmap_range(vma.start, cursor - vma.start)
            raise
        return chunks
