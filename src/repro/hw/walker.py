"""The IOMMU's page-table walker, with walk-cache timing.

The walker consumes the *functional* walk from :class:`PageTable` (which
entry addresses a walk touches and what it finds) and adds *timing*: each
touched entry block is looked up in the walk cache (PWC or AVC); hits cost
one SRAM cycle, misses cost one memory access.  L1-level blocks are only
eligible when the cache says so — the PWC/AVC policy split at the heart of
Section 4.1.2.

Functional outcomes of mapped pages are memoized per 4 KB virtual page:
existing mappings are immutable during a trace run (fault services only
create mappings), and every VA in a page shares its walk path (PE
sub-regions are >= 128 KB, so a page never straddles fields).  The memo
stores exactly what the IOMMU's hot loop needs:

``(ok, perm, pa_page_base, identity, cacheable_block_ids, fixed_mem)``

where ``cacheable_block_ids`` are the 64 B-block numbers of the touched
entries this walk cache may hold, and ``fixed_mem`` counts the touched
levels it refuses (always-memory accesses: L1 entries under a PWC).
"""

from __future__ import annotations

from repro.common.consts import PAGE_SHIFT
from repro.hw.walkcache import PageWalkCache
from repro.kernel.page_table import PageTable

#: Memo entry layout (see module docstring).
WalkInfo = tuple[bool, int, int, bool, tuple[int, ...], int]

#: 64 B block shift for page-table entry addresses.
_BLOCK_SHIFT = 6


class PageTableWalker:
    """Timed walker over one page table and one walk cache."""

    def __init__(self, page_table: PageTable, walk_cache: PageWalkCache):
        self.page_table = page_table
        self.cache = walk_cache
        self.walks = 0
        self._memo: dict[int, WalkInfo] = {}
        # Whether each walk step (L4 first) may live in the walk cache.
        self._cached = tuple(walk_cache.caches_level(level)
                             for level in (4, 3, 2, 1))

    def info_for(self, page: int) -> WalkInfo:
        """Functional walk outcome for a 4 KB page number (memoized)."""
        info = self._memo.get(page)
        if info is None:
            info = self.outcome(page)[0]
        return info

    def outcome(self, page: int) -> tuple[WalkInfo, bool]:
        """``(info, swapped)`` for a page: :meth:`info_for` plus whether
        a not-ok page is swapped out rather than unmapped.

        Only ``ok`` outcomes are memoized: a fault service can heal a
        not-ok page at any time, so its next lookup walks again — and a
        memoized page is never swapped.
        """
        info = self._memo.get(page)
        if info is not None:
            return info, False
        result = self.page_table.walk(page << PAGE_SHIFT)
        pa_base = (result.pa - (result.pa & 0xFFF)) if result.ok else 0
        visited = result.visited
        cacheable = tuple([entry_addr >> _BLOCK_SHIFT for entry_addr, cached
                           in zip(visited, self._cached) if cached])
        info = (result.ok, int(result.perm), pa_base, result.identity,
                cacheable, len(visited) - len(cacheable))
        if result.ok:
            self._memo[page] = info
        return info, result.swapped

    def walk(self, va: int) -> tuple[WalkInfo, int, int]:
        """Timed walk for ``va``: (info, sram accesses, memory accesses).

        This convenience path is used by tests and single accesses; the
        IOMMU trace loops inline the same cache operations for speed.
        """
        info = self.info_for(va >> PAGE_SHIFT)
        self.walks += 1
        cache = self.cache
        sram = 0
        mem = info[5]
        for block_id in info[4]:
            sram += 1
            if not cache.access(block_id << _BLOCK_SHIFT):
                mem += 1
        return info, sram, mem

    def invalidate(self) -> None:
        """Drop memoized outcomes (call after any page-table mutation)."""
        self._memo.clear()
