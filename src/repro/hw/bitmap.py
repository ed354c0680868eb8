"""DVM-BM: flat permission bitmap with a small bitmap cache.

The paper's first DAV implementation (Section 6.3, "DVM-BM") stores 2-bit
permissions for every identity-mapped 4 KB page in a flat bitmap in
physical memory — Border Control's approach optimised for DVM.  One 64 B
bitmap block covers 256 pages (1 MB of address space).  A dedicated cache
holds recently-used bitmap blocks; misses cost one memory access.

A ``00`` (no-permission) result means the VA is *not* identity mapped, and
the IOMMU falls back to full address translation through its TLB.

The bitmap cache holds 8-byte bitmap *words*: one cached entry covers
32 pages (128 KB of address space), so the paper's 128-entry cache reaches
16 MB — far below big-memory heaps, which is why DVM-BM's hit rate trails
the AVC's (Section 6.3.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

from repro.common.consts import PAGE_SHIFT, PAGE_SIZE
from repro.common.perms import Perm
from repro.common.util import is_aligned
from repro.hw.cache import SetAssocCache

#: Bytes per cached bitmap word.
WORD_BYTES = 8

#: Bytes of address space covered by one cached bitmap word.
WORD_COVERAGE = WORD_BYTES * 4 * PAGE_SIZE  # 32 pages = 128 KB


@dataclass
class BitmapLookup:
    """Result of one bitmap probe."""

    perm: Perm
    cache_hit: bool

    @property
    def identity(self) -> bool:
        """Non-00 permission implies the page is identity mapped."""
        return self.perm != Perm.NONE


class PermissionBitmap:
    """The kernel-maintained bitmap plus its IOMMU-side cache.

    Parameters
    ----------
    base_pa:
        Physical address where the kernel placed the bitmap (used to index
        the physically-tagged bitmap cache).
    cache_blocks / cache_ways:
        Geometry of the bitmap cache (scaled default mirrors the AVC).
    """

    def __init__(self, base_pa: int = 0x10_0000, cache_blocks: int = 16,
                 cache_ways: int = 4):
        self.base_pa = base_pa
        self.cache = SetAssocCache(num_blocks=cache_blocks, ways=cache_ways,
                                   block_size=WORD_BYTES)
        self._perms: dict[int, Perm] = {}  # page number -> permission
        self.memory_accesses = 0           # bitmap fetches that went to DRAM

    # -- kernel-side maintenance -------------------------------------------------

    def set_range(self, va: int, size: int, perm: Perm) -> None:
        """Record ``perm`` for every page of an identity-mapped range."""
        self._check_range(va, size)
        # Pages already present keep their place in the dict, new ones
        # join at the end in ascending order: the order a per-page loop
        # of assignments leaves.
        self._perms.update(dict.fromkeys(
            range(va >> PAGE_SHIFT, (va + size) >> PAGE_SHIFT), perm))

    def clear_range(self, va: int, size: int) -> None:
        """Drop permissions for a range (unmap)."""
        self._check_range(va, size)
        # pop(page, None) for each page, driven from C; the remaining
        # pages keep their order.
        deque(map(self._perms.pop,
                  range(va >> PAGE_SHIFT, (va + size) >> PAGE_SHIFT),
                  repeat(None)), maxlen=0)

    # -- IOMMU-side lookup ----------------------------------------------------------

    def lookup(self, va: int) -> BitmapLookup:
        """One-step DAV: fetch the bitmap word for ``va`` and read 2 bits."""
        page = va >> PAGE_SHIFT
        # Each page occupies 2 bits; its word lives at base + page/4 bytes.
        block_addr = self.base_pa + (page >> 2)
        hit = self.cache.access(block_addr)
        if not hit:
            self.memory_accesses += 1
        return BitmapLookup(perm=self._perms.get(page, Perm.NONE),
                            cache_hit=hit)

    def bitmap_bytes(self, heap_span: int) -> int:
        """Bitmap storage needed to cover ``heap_span`` bytes (2 bits/page)."""
        return (heap_span // PAGE_SIZE) // 4

    # -- internals -------------------------------------------------------------------

    @staticmethod
    def _check_range(va: int, size: int) -> None:
        if not is_aligned(va, PAGE_SIZE) or not is_aligned(size, PAGE_SIZE):
            raise ValueError(
                f"bitmap ranges must be page aligned: [{va:#x}, +{size:#x})"
            )
