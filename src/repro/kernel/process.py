"""Processes: segments, fork/COW, vfork and posix_spawn semantics.

Models the process-lifecycle behaviour the paper discusses in Section 5:

* **fork + copy-on-write** works correctly with DVM but breaks identity
  mapping for the first-written page: the private copy gets a fresh frame,
  whose PA cannot equal the (already visible) VA.  The covering Permission
  Entry is demoted so the single page can be repointed while its neighbours
  stay identity mapped.
* **vfork** shares the parent's address space without copying, preserving
  all identity mappings (the paper's recommended alternative).
* **posix_spawn** creates a fresh process with no inherited mappings.

Segment layout follows Section 7.2 for cDVM: with ``identity_segments=True``
the code+data blob and the eagerly-allocated 8 MB stack are identity mapped
(the stack is "moved" to VA == PA before control reaches the application).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.consts import PAGE_SIZE
from repro.common.errors import PageFault, ProtectionFault
from repro.common.perms import Perm, allows
from repro.common.util import align_down, align_up
from repro.kernel.address_space import (
    ASLR_BITS,
    DEFAULT_CODE_BASE,
    DEFAULT_STACK_TOP,
    AddressSpace,
)
from repro.kernel.malloc import Malloc
from repro.kernel.page_table import PageTable
from repro.kernel.vm_syscalls import VMM, MemPolicy

#: Eager stack size (paper Section 7.2: "we eagerly allocate an 8MB stack").
DEFAULT_STACK_SIZE = 8 << 20


@dataclass
class Segment:
    """A classic process segment (code/data/stack) and its placement."""

    name: str
    va: int
    size: int
    perm: Perm
    identity: bool


class Process:
    """One simulated process. Create via :meth:`repro.kernel.kernel.Kernel.spawn`."""

    def __init__(self, kernel, pid: int, policy: MemPolicy,
                 aspace: AddressSpace | None = None, name: str = ""):
        self.kernel = kernel
        self.pid = pid
        self.policy = policy
        self.name = name or f"proc-{pid}"
        self.alive = True
        self.aspace = aspace if aspace is not None else AddressSpace(
            aslr_pages=kernel.aslr_pages(pid, ASLR_BITS))
        self.page_table = PageTable(kernel.phys, use_pes=policy.use_pes,
                                    pe_format=policy.pe_format)
        self.vmm = VMM(kernel.phys, self.aspace, self.page_table, policy,
                       perm_bitmap=kernel.bitmap_for(self))
        self.malloc = Malloc(self.vmm)
        self.segments: list[Segment] = []
        # COW state: frames shared with relatives, and our private copies.
        self._cow_chunks: list[tuple[int, int]] = []   # (pa, size) refcounted
        self._cow_ranges: list[tuple[int, int]] = []   # (va, size) still COW
        self._private_pages: dict[int, int] = {}       # va -> private frame

    # -- segments ----------------------------------------------------------------

    def setup_segments(self, *, code_size: int = 1 << 20,
                       data_size: int = 1 << 20,
                       stack_size: int = DEFAULT_STACK_SIZE,
                       identity_segments: bool = False) -> None:
        """Lay out code+globals and the main-thread stack.

        With ``identity_segments`` (cDVM, Section 7.2) the PIE code/data
        blob and the stack are identity mapped; otherwise they sit at the
        conventional anchors.
        """
        if self.segments:
            raise RuntimeError("segments are already set up")
        code_size = align_up(code_size, PAGE_SIZE)
        data_size = align_up(data_size, PAGE_SIZE)
        stack_size = align_up(stack_size, PAGE_SIZE)
        if identity_segments:
            # PIE: code, data and bss are one logical blob (Section 7.2);
            # code gets RX, the data tail RW, both inside one identity VMA
            # modelled as two adjacent identity mappings.
            self._identity_segment("code", code_size, Perm.READ_EXECUTE)
            self._identity_segment("data", data_size, Perm.READ_WRITE)
            self._identity_segment("stack", stack_size, Perm.READ_WRITE)
            return
        self._fixed_segment("code", DEFAULT_CODE_BASE, code_size,
                            Perm.READ_EXECUTE)
        self._fixed_segment("data", DEFAULT_CODE_BASE + code_size, data_size,
                            Perm.READ_WRITE)
        stack_base = align_down(DEFAULT_STACK_TOP - stack_size, PAGE_SIZE)
        self._fixed_segment("stack", stack_base, stack_size, Perm.READ_WRITE)

    def _identity_segment(self, name: str, size: int, perm: Perm) -> None:
        vma = self.vmm.identity_mapper.try_map(size, perm, kind=name, name=name)
        if vma is None:
            raise PageFault(0, f"could not identity map segment {name!r}")
        self.segments.append(Segment(name=name, va=vma.start, size=size,
                                     perm=perm, identity=True))

    def _fixed_segment(self, name: str, va: int, size: int, perm: Perm) -> None:
        vma = self.aspace.reserve_exact(va, size, perm, kind=name, name=name)
        pa = self.kernel.phys.alloc_contiguous(size)
        self.page_table.map_range(va, pa, size, perm, page_size=PAGE_SIZE)
        self.segments.append(Segment(name=name, va=vma.start, size=size,
                                     perm=perm, identity=(pa == va)))

    def segment(self, name: str) -> Segment:
        """Look up a segment by name."""
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"no segment named {name!r}")

    # -- memory access (functional: permission checks + COW) ----------------------

    def access(self, va: int, kind: str) -> int:
        """Perform an access of ``kind`` at ``va``; returns the PA.

        Raises :class:`PageFault` for unmapped addresses.  Write accesses to
        copy-on-write pages trigger the COW break-in; other permission
        violations raise :class:`ProtectionFault` (the exception the IOMMU
        would raise on the host CPU).
        """
        result = self.page_table.walk(va)
        if not result.ok:
            if result.swapped and self.kernel.reclaimer is not None:
                # Demand swap-in (Section 4.3.2's low-memory path).
                self.kernel.reclaimer.swap_in(self, va)
                result = self.page_table.walk(va)
            else:
                raise PageFault(va)
        if not result.ok:
            raise PageFault(va)
        if allows(result.perm, kind):
            return result.pa
        if kind == "w" and self._in_cow_range(va):
            return self._cow_break(va)
        raise ProtectionFault(va, kind)

    def read(self, va: int) -> int:
        """Convenience read access."""
        return self.access(va, "r")

    def write(self, va: int) -> int:
        """Convenience write access."""
        return self.access(va, "w")

    def is_identity(self, va: int) -> bool:
        """Whether ``va`` is currently identity mapped (PA == VA)."""
        result = self.page_table.walk(va)
        return result.ok and result.identity

    # -- process lifecycle ------------------------------------------------------

    def fork(self) -> "Process":
        """Create a child whose address space is a copy-on-write duplicate.

        Every private writable mapping in the parent is dropped to
        read-only in *both* page tables; frames become shared (refcounted
        by the kernel).  Identity mappings stay identity mapped — until a
        write, when the writer's page is privatised (Section 5).
        """
        child = self.kernel.spawn(policy=self.policy,
                                  name=f"{self.name}-child")
        for vma in self.aspace.vmas():
            child.aspace.reserve_exact(
                vma.start, vma.size, vma.perm, kind=vma.kind,
                identity=vma.identity, name=vma.name,
            )
            self._duplicate_mapping(child, vma)
            writable = vma.perm == Perm.READ_WRITE
            if writable:
                self.page_table.protect_range(vma.start, vma.size,
                                              Perm.READ_ONLY)
                child.page_table.protect_range(vma.start, vma.size,
                                               Perm.READ_ONLY)
                self._cow_ranges.append((vma.start, vma.size))
                child._cow_ranges.append((vma.start, vma.size))
            for chunk in self._backing_chunks(vma):
                self.kernel.share_frames(chunk)
                child._cow_chunks.append(chunk)
        return child

    def vfork(self) -> "Process":
        """Create a child sharing this address space (no copying).

        The child borrows the parent's page table and address space, so all
        identity mappings remain intact — the paper's recommended way to
        create processes after allocating shared structures.
        """
        child = self.kernel.spawn(policy=self.policy, aspace=self.aspace,
                                  name=f"{self.name}-vfork")
        child.page_table = self.page_table
        child.vmm = self.vmm
        child.malloc = self.malloc
        child.segments = self.segments
        return child

    def exit(self) -> None:
        """Terminate the process, releasing private frames and COW shares."""
        if not self.alive:
            return
        self.alive = False
        for frame in self._private_pages.values():
            self.kernel.phys.free_frame(frame)
        self._private_pages.clear()
        for chunk in self._cow_chunks:
            self.kernel.release_frames(chunk)
        self._cow_chunks.clear()

    # -- internals -----------------------------------------------------------------

    def _in_cow_range(self, va: int) -> bool:
        return any(start <= va < start + size
                   for start, size in self._cow_ranges)

    def _cow_break(self, va: int) -> int:
        """Privatise the page containing ``va``; returns the new PA."""
        page_va = align_down(va, PAGE_SIZE)
        frame = self.kernel.phys.alloc_frame()
        # (Data copy would happen here; contents are not modelled.)
        self.page_table.set_l1(page_va, frame, Perm.READ_WRITE)
        self._private_pages[page_va] = frame
        return frame + (va - page_va)

    def _duplicate_mapping(self, child: "Process", vma) -> None:
        """Install ``vma``'s translations into the child's page table."""
        if vma.identity:
            child.page_table.map_identity_range(vma.start, vma.size, vma.perm)
            return
        # Copy translations page by page, coalescing runs of contiguous PAs.
        run_va = run_pa = None
        run_len = 0
        for offset in range(0, vma.size, PAGE_SIZE):
            result = self.page_table.walk(vma.start + offset)
            if not result.ok:
                continue
            if run_va is not None and result.pa == run_pa + run_len:
                run_len += PAGE_SIZE
                continue
            if run_va is not None:
                child.page_table.map_range(run_va, run_pa, run_len, vma.perm)
            run_va = vma.start + offset
            run_pa = result.pa
            run_len = PAGE_SIZE
        if run_va is not None:
            child.page_table.map_range(run_va, run_pa, run_len, vma.perm)

    def _backing_chunks(self, vma) -> list[tuple[int, int]]:
        """Physical chunks backing a VMA (for COW refcounting)."""
        if vma.identity:
            return [(vma.start, vma.size)]
        chunks: list[tuple[int, int]] = []
        for alloc in self.vmm.allocations():
            if alloc.va == vma.start:
                return list(alloc.phys_chunks)
        # Segments mapped outside the VMM (code/data/stack).
        result = self.page_table.walk(vma.start)
        if result.ok:
            chunks.append((result.pa, vma.size))
        return chunks
