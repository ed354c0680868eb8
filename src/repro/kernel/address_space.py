"""Per-process virtual address spaces with a flexible layout.

DVM's identity mapping places heap allocations at VAs equal to their backing
PAs, which can land *anywhere* — even below the code segment.  The paper
(Section 4.3.2) therefore extends Linux's semi-flexible ASLR layout to a
fully flexible one with no hard constraints on segment positions.  This
module models that: a sorted set of VMAs, exact-placement reservation for
identity mappings, and ASLR-randomised top-down placement for conventional
demand-paged mappings.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.common.consts import PAGE_SIZE, VA_LIMIT
from repro.common.errors import AddressSpaceError
from repro.common.perms import Perm
from repro.common.util import align_down, align_up, is_aligned

#: User virtual addresses live in the canonical lower half.
USER_VA_LIMIT = VA_LIMIT // 2

#: Conventional layout anchors (overridable per address space).
DEFAULT_CODE_BASE = 0x0000_0000_0040_0000        # 4 MB, like x86-64 Linux
DEFAULT_STACK_TOP = USER_VA_LIMIT - PAGE_SIZE    # just below the canonical gap
DEFAULT_MMAP_BASE = USER_VA_LIMIT - (1 << 34)    # 16 GB below the stack area

#: Bits of ASLR entropy in the mmap base (Linux heap entropy, per the paper).
ASLR_BITS = 28


@dataclass
class VMA:
    """One virtual memory area: ``[start, end)`` with uniform permissions."""

    start: int
    end: int
    perm: Perm
    kind: str = "mmap"        # "code" | "data" | "heap" | "mmap" | "stack"
    identity: bool = False    # VA == PA for every byte of the area
    name: str = ""

    @property
    def size(self) -> int:
        """Length of the area in bytes."""
        return self.end - self.start

    def contains(self, va: int) -> bool:
        """Whether ``va`` falls inside the area."""
        return self.start <= va < self.end


class AddressSpace:
    """A process's VMAs plus placement policy.

    Parameters
    ----------
    rng:
        Seeded generator supplying ASLR entropy; placement is fully
        deterministic given the seed.
    aslr_bits:
        Bits of randomness applied to the mmap base (the paper cites 28 bits
        of Linux heap entropy; the default mirrors that).
    aslr_pages:
        The draw itself, ``rng.integers(0, 1 << aslr_bits)``, when the
        caller already has it (``Kernel.aslr_pages``); ``rng`` is then
        not used.
    """

    def __init__(self, rng: np.random.Generator | None = None,
                 aslr_bits: int = ASLR_BITS, aslr_pages: int | None = None):
        self._starts: list[int] = []
        self._vmas: list[VMA] = []
        if aslr_pages is None:
            rng = rng or np.random.default_rng(0)
            aslr_pages = int(rng.integers(0, 1 << aslr_bits))
        offset = aslr_pages * PAGE_SIZE
        # Randomised top-down mmap base, clamped into the user range.
        self.mmap_base = align_down(
            max(DEFAULT_MMAP_BASE - offset, USER_VA_LIMIT // 4), PAGE_SIZE
        )

    # -- queries ---------------------------------------------------------------

    def vmas(self) -> list[VMA]:
        """All areas, sorted by start address."""
        return list(self._vmas)

    def find(self, va: int) -> VMA | None:
        """The VMA containing ``va``, or None."""
        idx = bisect.bisect_right(self._starts, va) - 1
        if idx >= 0 and self._vmas[idx].contains(va):
            return self._vmas[idx]
        return None

    def is_free(self, start: int, size: int) -> bool:
        """Whether ``[start, start+size)`` overlaps no existing VMA."""
        if start < 0 or start + size > USER_VA_LIMIT:
            return False
        idx = bisect.bisect_right(self._starts, start) - 1
        if idx >= 0 and self._vmas[idx].end > start:
            return False
        if idx + 1 < len(self._vmas) and self._vmas[idx + 1].start < start + size:
            return False
        return True

    def total_mapped(self) -> int:
        """Total bytes currently mapped."""
        return sum(v.size for v in self._vmas)

    def top(self) -> int:
        """End of the highest area (0 when there is none)."""
        return self._vmas[-1].end if self._vmas else 0

    # -- placement ---------------------------------------------------------------

    def reserve_exact(self, start: int, size: int, perm: Perm, *,
                      kind: str = "mmap", identity: bool = False,
                      name: str = "") -> VMA:
        """Reserve an area at an exact address (identity mapping's move step).

        Raises :class:`AddressSpaceError` when the range is unavailable —
        the condition under which identity mapping falls back to demand
        paging (Figure 7).
        """
        if not is_aligned(start, PAGE_SIZE):
            raise AddressSpaceError(f"start {start:#x} is not page aligned")
        size = align_up(size, PAGE_SIZE)
        if size == 0:
            raise AddressSpaceError("cannot reserve an empty area")
        if not self.is_free(start, size):
            raise AddressSpaceError(
                f"va range [{start:#x}, {start + size:#x}) is unavailable"
            )
        vma = VMA(start=start, end=start + size, perm=perm, kind=kind,
                  identity=identity, name=name)
        self._insert(vma)
        return vma

    def reserve_anywhere(self, size: int, perm: Perm, *, kind: str = "mmap",
                         name: str = "", alignment: int = PAGE_SIZE) -> VMA:
        """Reserve an area top-down from the (ASLR-randomised) mmap base.

        ``alignment`` lets huge-page-backed mappings start on a huge-page
        boundary (what ``mmap`` + THP alignment achieves on Linux).
        """
        size = align_up(size, PAGE_SIZE)
        start = self._find_gap_top_down(size, below=self.mmap_base,
                                        alignment=alignment)
        if start is None:
            # Fully flexible layout: fall back to searching the whole space.
            start = self._find_gap_top_down(size, below=USER_VA_LIMIT,
                                            alignment=alignment)
        if start is None:
            raise AddressSpaceError(f"no free VA gap of {size:#x} bytes")
        vma = VMA(start=start, end=start + size, perm=perm, kind=kind,
                  identity=False, name=name)
        self._insert(vma)
        return vma

    def append(self, vmas: list[VMA]) -> None:
        """Add areas that ascend past every existing one, in order.

        The bulk form of :meth:`reserve_exact` for areas above :meth:`top`
        (identity mapping's batch path): the caller keeps each area at or
        above the end of the one before it.
        """
        if vmas and (vmas[0].start < self.top()
                     or vmas[-1].end > USER_VA_LIMIT):
            raise AddressSpaceError(
                f"va range [{vmas[0].start:#x}, {vmas[-1].end:#x}) does not "
                f"ascend past the mapped areas")
        self._vmas.extend(vmas)
        self._starts.extend(vma.start for vma in vmas)

    def remove(self, vma: VMA) -> None:
        """Remove an area previously returned by a reserve call."""
        idx = bisect.bisect_left(self._starts, vma.start)
        if idx >= len(self._vmas) or self._vmas[idx] is not vma:
            raise AddressSpaceError(f"VMA at {vma.start:#x} is not mapped")
        del self._vmas[idx]
        del self._starts[idx]

    def remove_all(self, vmas: list[VMA]) -> None:
        """Remove mapped areas in one rebuild of the area lists."""
        gone = {vma.start: vma for vma in vmas}
        kept = [vma for vma in self._vmas if gone.get(vma.start) is not vma]
        if len(kept) != len(self._vmas) - len(gone):
            raise AddressSpaceError("an area to remove is not mapped")
        self._vmas[:] = kept
        self._starts[:] = [vma.start for vma in kept]

    # -- internals ------------------------------------------------------------------

    def _insert(self, vma: VMA) -> None:
        idx = bisect.bisect_left(self._starts, vma.start)
        self._starts.insert(idx, vma.start)
        self._vmas.insert(idx, vma)

    def _find_gap_top_down(self, size: int, below: int,
                           alignment: int = PAGE_SIZE) -> int | None:
        """Highest aligned free gap of ``size`` bytes ending <= below."""
        ceiling = min(below, USER_VA_LIMIT)
        # Walk VMAs from the top; candidate gap is between each VMA's end
        # and the floor of the area above it.
        for vma in reversed(self._vmas):
            if vma.end >= ceiling:
                ceiling = min(ceiling, vma.start)
                continue
            candidate = align_down(ceiling - size, alignment)
            if candidate >= vma.end and candidate + size <= ceiling:
                return candidate
            ceiling = min(ceiling, vma.start)
        candidate = align_down(ceiling - size, alignment)
        if candidate >= PAGE_SIZE:  # never hand out page zero
            return candidate
        return None
