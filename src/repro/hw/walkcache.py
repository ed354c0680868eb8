"""Page-walk caches: the conventional PWC and the paper's AVC.

Both are physically-indexed set-associative caches of page-table-entry
blocks (64 B holding eight 8-byte entries).  They differ in one policy bit,
which is the crux of the paper's Section 4.1.2:

* A conventional **PWC** caches only upper-level entries (L4–L2); L1 leaf
  PTEs are excluded to avoid pollution, so every 4 KB-page walk costs at
  least one memory access for the L1 PTE.
* The **Access Validation Cache (AVC)** caches *all* levels, including L1
  PTEs and Permission Entries.  With PE-compacted page tables the entry
  working set is tiny, so walks complete in 2–4 SRAM accesses with no
  memory reference — letting the AVC replace both the TLB and the PWC.

The AVC does not support translation skipping (paper Section 4.1.2), so
walks always proceed root-to-leaf.
"""

from __future__ import annotations

from repro.hw.cache import SetAssocCache

#: Default scaled geometry: 16 blocks x 64 B, 4-way (the paper's 1 KB /
#: 128-PTE structure scaled by 8x alongside the workload footprints; see
#: DESIGN.md "Scaling").
DEFAULT_BLOCKS = 16
DEFAULT_WAYS = 4
BLOCK_SIZE = 64


class PageWalkCache(SetAssocCache):
    """Conventional PWC: caches L4–L2 entry blocks only."""

    #: Lowest page-table level whose entries this cache may hold.
    min_level = 2

    def __init__(self, num_blocks: int = DEFAULT_BLOCKS,
                 ways: int = DEFAULT_WAYS):
        super().__init__(num_blocks=num_blocks, ways=ways,
                         block_size=BLOCK_SIZE)

    def caches_level(self, level: int) -> bool:
        """Whether entries at ``level`` are eligible for this cache."""
        return level >= self.min_level


    def fill_blocks(self, blocks) -> None:
        """Block-fill for the batched engine's end-of-trace rebuild.

        ``blocks`` are walker-cacheable block ids (already filtered by
        :meth:`caches_level` when the walker built its walk info), in
        last-touch order.  Contents are installed without touching the
        hit/miss counters — those are accounted in bulk from the LRU
        replay — so a scalar run and a batched run leave the cache
        bit-identical.
        """
        self.install_blocks(blocks)


class AccessValidationCache(PageWalkCache):
    """The paper's AVC: caches every level, L1 PTEs and PEs included."""

    min_level = 1
