"""Binary buddy allocator for physical memory.

This models Linux's buddy page allocator closely enough to reproduce the
behaviour DVM depends on (paper Section 4.3.1):

* *Eager contiguous allocation*: requests are rounded up to a power-of-two
  number of pages, allocated as one contiguous block, and the pages beyond
  the requested size are **returned immediately** (the eager-paging policy
  the paper adopts from Karakostas et al.).
* Deterministic lowest-address-first placement, so identity-mapping
  experiments are reproducible.
* Standard buddy splitting and coalescing, which governs the long-run
  fragmentation measured by the shbench study (Table 4).

Addresses handed out are physical byte addresses; block sizes are always a
power-of-two multiple of the 4 KB frame size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.common import faults
from repro.common.consts import PAGE_SHIFT, PAGE_SIZE
from repro.common.errors import InjectedOutOfMemoryError, OutOfMemoryError
from repro.common.util import is_aligned, size_to_order
from repro.obs import core as obs_core


@dataclass
class BuddyStats:
    """Counters exposed for the fragmentation experiments."""

    allocations: int = 0
    frees: int = 0
    splits: int = 0
    merges: int = 0
    failed_allocations: int = 0


class BuddyAllocator:
    """A binary buddy allocator over ``[base, base + total_bytes)``.

    Parameters
    ----------
    total_bytes:
        Size of the managed physical region; must be a multiple of 4 KB.
    base:
        Physical byte address of the start of the region; must be 4 KB
        aligned.  Buddy alignment is computed relative to ``base`` so a
        region need not start at address zero.
    """

    def __init__(self, total_bytes: int, base: int = 0):
        if total_bytes <= 0 or not is_aligned(total_bytes, PAGE_SIZE):
            raise ValueError(f"total_bytes must be a positive multiple of "
                             f"{PAGE_SIZE}, got {total_bytes}")
        if not is_aligned(base, PAGE_SIZE):
            raise ValueError(f"base must be {PAGE_SIZE}-aligned, got {base:#x}")
        self.base = base
        self.total_bytes = total_bytes
        self.max_order = size_to_order(total_bytes, PAGE_SIZE)
        self.stats = BuddyStats()
        # Per-order free lists.  ``_free_sets`` is authoritative; the heaps
        # give lowest-address-first retrieval with lazy invalidation.
        self._free_sets: list[set[int]] = [set() for _ in range(self.max_order + 1)]
        self._free_heaps: list[list[int]] = [[] for _ in range(self.max_order + 1)]
        self._free_bytes = 0
        # Seed the free lists by decomposing the region into maximal
        # naturally-aligned power-of-two blocks.
        self._insert_range(base, total_bytes)

    # -- public interface ---------------------------------------------------

    @property
    def free_bytes(self) -> int:
        """Bytes currently free."""
        return self._free_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return self.total_bytes - self._free_bytes

    def alloc_block(self, order: int) -> int:
        """Allocate one naturally-aligned block of ``2**order`` pages.

        Returns the block's physical byte address.  Raises
        :class:`OutOfMemoryError` when no block of sufficient order exists.
        """
        if order < 0 or order > self.max_order:
            self.stats.failed_allocations += 1
            raise OutOfMemoryError(f"order {order} exceeds max {self.max_order}")
        free_sets = self._free_sets
        for source in range(order, self.max_order + 1):
            if not free_sets[source]:
                continue
            addr = self._pop_lowest(source)
            # Split down to the requested order, returning upper halves.
            while source > order:
                source -= 1
                upper = addr + (PAGE_SIZE << source)
                self._push(source, upper)
                self.stats.splits += 1
            self._free_bytes -= PAGE_SIZE << order
            self.stats.allocations += 1
            return addr
        self.stats.failed_allocations += 1
        raise OutOfMemoryError(
            f"no free block of order {order} ({(PAGE_SIZE << order)} bytes)"
        )

    def free_block(self, addr: int, order: int) -> None:
        """Free a block previously returned by :func:`alloc_block`.

        Coalesces with free buddies as far as possible.
        """
        block_size = PAGE_SIZE << order
        if not is_aligned(addr - self.base, block_size):
            raise ValueError(
                f"block {addr:#x} is not aligned to its order-{order} size"
            )
        if addr in self._free_sets[order]:
            raise ValueError(f"double free of block {addr:#x} (order {order})")
        self.stats.frees += 1
        self._free_bytes += block_size
        while order < self.max_order:
            buddy = self._buddy_of(addr, order)
            if buddy not in self._free_sets[order]:
                break
            self._remove(order, buddy)
            addr = min(addr, buddy)
            order += 1
            self.stats.merges += 1
        self._push(order, addr)

    def alloc_range(self, size: int) -> int:
        """Eagerly allocate ``size`` bytes of physically contiguous memory.

        This is the eager-contiguous-allocation entry point identity
        mapping needs (paper Section 4.3.1).  Power-of-two sizes take the
        classic buddy path: one naturally-aligned block.  Other sizes are
        carved *exactly* from the best-fitting contiguous free run — the
        ``alloc_contig_range`` behaviour a Linux prototype needs anyway for
        requests above ``MAX_ORDER`` (4 MB), and the policy that keeps
        rounding slack from accumulating as permanent fragmentation.
        Returns the physical address of the range.
        """
        if faults.should_fire("alloc_oom"):
            # Chaos hook: simulated memory pressure on the contiguous
            # path, exercising the identity-mapping -> demand-paging
            # fallback (paper Section 4.3 / kernel/identity.py).
            self.stats.failed_allocations += 1
            raise InjectedOutOfMemoryError(
                f"injected alloc_oom fault ({size} bytes)")
        if size <= 0:
            raise ValueError(f"expected a positive size, got {size}")
        pages = (size + PAGE_SIZE - 1) >> PAGE_SHIFT
        usable = pages << PAGE_SHIFT
        order = (pages - 1).bit_length()
        if obs_core.ENABLED:
            obs_core.REGISTRY.histogram("kernel.buddy.alloc_order").observe(order)
        if (PAGE_SIZE << order) == usable:
            return self.alloc_block(order)
        try:
            return self._alloc_run(usable)
        except OutOfMemoryError:
            # No exact run: fall back to carving a rounded buddy block and
            # returning the slack immediately (the paper's description).
            if obs_core.ENABLED:
                obs_core.REGISTRY.counter("kernel.buddy.slack_fallbacks").inc()
            addr = self.alloc_block(order)
            self.free_range(addr + usable, (PAGE_SIZE << order) - usable)
            return addr

    def _alloc_run(self, usable: int) -> int:
        """Claim ``usable`` contiguous bytes from the best-fitting free run.

        Free runs are maximal address-contiguous sequences of free blocks
        (which may span buddy boundaries, so a run can exceed the largest
        single block).  Best fit — the smallest sufficient run — keeps big
        runs intact for big allocations.
        """
        blocks = sorted(
            (addr, order)
            for order, free in enumerate(self._free_sets)
            for addr in free
        )
        runs: list[tuple[int, int, list[tuple[int, int]]]] = []
        run_start = None
        run_end = None
        run_blocks: list[tuple[int, int]] = []
        for addr, order in blocks:
            if run_end != addr:
                if run_start is not None and run_end - run_start >= usable:
                    runs.append((run_end - run_start, run_start,
                                 list(run_blocks)))
                run_start = addr
                run_end = addr
                run_blocks = []
            run_blocks.append((addr, order))
            run_end += PAGE_SIZE << order
        if run_start is not None and run_end - run_start >= usable:
            runs.append((run_end - run_start, run_start, list(run_blocks)))
        if not runs:
            self.stats.failed_allocations += 1
            raise OutOfMemoryError(
                f"no contiguous run of {usable} bytes (largest free order "
                f"{self.largest_free_order()})"
            )
        _size, start, chosen = min(runs)
        claimed = 0
        for block_addr, block_order in chosen:
            if claimed >= usable:
                break
            self._remove(block_order, block_addr)
            self._free_bytes -= PAGE_SIZE << block_order
            claimed = block_addr + (PAGE_SIZE << block_order) - start
        if claimed > usable:
            self.free_range(start + usable, claimed - usable)
        self.stats.allocations += 1
        return start

    def free_range(self, addr: int, size: int) -> None:
        """Free an arbitrary page-aligned range.

        The range is decomposed into maximal naturally-aligned power-of-two
        blocks, each of which is freed (and coalesced) independently.  This
        is how the eager allocator returns rounding slack, and how
        ``munmap`` returns partial mappings.
        """
        if size == 0:
            return
        if not is_aligned(addr, PAGE_SIZE) or not is_aligned(size, PAGE_SIZE):
            raise ValueError(
                f"range [{addr:#x}, +{size:#x}) is not page aligned"
            )
        for block_addr, block_order in self._decompose(addr, size):
            self.free_block(block_addr, block_order)

    def reserve_range(self, addr: int, size: int) -> bool:
        """Claim the specific range ``[addr, addr+size)`` if it is free.

        Identity re-establishment (Section 4.3.2's "reorganize memory")
        needs the *exact* frames matching a VA range, not just any block.
        Returns False — leaving the allocator untouched — when any part of
        the range is allocated; True after claiming it (splitting covering
        free blocks as needed).
        """
        if size <= 0 or not is_aligned(addr, PAGE_SIZE) \
                or not is_aligned(size, PAGE_SIZE):
            raise ValueError(f"bad range ({addr:#x}, {size:#x})")
        if addr < self.base or addr + size > self.base + self.total_bytes:
            return False
        pieces = list(self._decompose(addr, size))
        if any(self._free_ancestor(a, o) is None for a, o in pieces):
            return False
        for piece_addr, piece_order in pieces:
            self._claim_block(piece_addr, piece_order)
        self.stats.allocations += 1
        return True

    def _free_ancestor(self, addr: int, order: int) -> tuple[int, int] | None:
        """The free block equal to or containing ``(addr, order)``, if any."""
        current_order = order
        while current_order <= self.max_order:
            block_size = PAGE_SIZE << current_order
            rel = addr - self.base
            block_addr = self.base + (rel & ~(block_size - 1))
            if block_addr in self._free_sets[current_order]:
                return block_addr, current_order
            current_order += 1
        return None

    def _claim_block(self, addr: int, order: int) -> None:
        """Carve the exact block ``(addr, order)`` out of a free ancestor."""
        ancestor = self._free_ancestor(addr, order)
        if ancestor is None:
            raise OutOfMemoryError(f"block {addr:#x} (order {order}) not free")
        anc_addr, anc_order = ancestor
        self._remove(anc_order, anc_addr)
        while anc_order > order:
            anc_order -= 1
            half = PAGE_SIZE << anc_order
            if addr < anc_addr + half:
                self._push(anc_order, anc_addr + half)
            else:
                self._push(anc_order, anc_addr)
                anc_addr += half
            self.stats.splits += 1
        self._free_bytes -= PAGE_SIZE << order

    def largest_free_order(self) -> int:
        """Order of the largest currently-free block, or -1 if none.

        The gap between this and ``max_order`` is the external-fragmentation
        signal used by the Table 4 study.
        """
        for order in range(self.max_order, -1, -1):
            if self._free_sets[order]:
                return order
        return -1

    def free_block_counts(self) -> dict[int, int]:
        """Histogram of free blocks by order (for fragmentation reports)."""
        return {
            order: len(blocks)
            for order, blocks in enumerate(self._free_sets)
            if blocks
        }

    def check_consistency(self) -> None:
        """Verify internal invariants; used by the property-based tests."""
        seen: list[tuple[int, int]] = []
        total = 0
        for order, blocks in enumerate(self._free_sets):
            block_size = PAGE_SIZE << order
            for addr in blocks:
                assert is_aligned(addr - self.base, block_size), (
                    f"misaligned free block {addr:#x} at order {order}"
                )
                assert self.base <= addr < self.base + self.total_bytes
                seen.append((addr, addr + block_size))
                total += block_size
        assert total == self._free_bytes, "free byte accounting mismatch"
        seen.sort()
        for (_, prev_end), (start, _) in zip(seen, seen[1:]):
            assert prev_end <= start, "overlapping free blocks"

    # -- internals ----------------------------------------------------------

    def _buddy_of(self, addr: int, order: int) -> int:
        rel = addr - self.base
        return self.base + (rel ^ (PAGE_SIZE << order))

    def _push(self, order: int, addr: int) -> None:
        self._free_sets[order].add(addr)
        heapq.heappush(self._free_heaps[order], addr)

    def _remove(self, order: int, addr: int) -> None:
        # Heap entry is invalidated lazily; the set is authoritative.
        self._free_sets[order].remove(addr)

    def _pop_lowest(self, order: int) -> int | None:
        blocks = self._free_sets[order]
        heap = self._free_heaps[order]
        while heap:
            addr = heapq.heappop(heap)
            if addr in blocks:
                blocks.remove(addr)
                return addr
        return None

    def _decompose(self, addr: int, size: int):
        """Yield (addr, order) blocks tiling ``[addr, addr+size)``.

        Blocks are naturally aligned relative to ``base`` and maximal, the
        standard greedy decomposition.
        """
        end = addr + size
        while addr < end:
            rel = addr - self.base
            if rel == 0:
                align_order = self.max_order
            else:
                lowest_set_bit = (rel & -rel).bit_length() - 1
                align_order = min(self.max_order, lowest_set_bit - PAGE_SHIFT)
            # Largest order that fits in the remaining size.
            remaining = end - addr
            fit_order = (remaining // PAGE_SIZE).bit_length() - 1
            order = min(align_order, fit_order)
            yield addr, order
            addr += PAGE_SIZE << order

    def _insert_range(self, addr: int, size: int) -> None:
        for block_addr, block_order in self._decompose(addr, size):
            self._push(block_order, block_addr)
            self._free_bytes += PAGE_SIZE << block_order
