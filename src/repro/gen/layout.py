"""Seeded VMA-layout generation and realization.

A :class:`LayoutPlan` is the abstract, configuration-independent half of
a scenario: how many regions, their page counts and permission mosaic,
whether one is munmapped mid-mosaic, whether backing is lazy
(``demand_faulting``) and which memory-pressure prelude runs.
:func:`realize` turns a plan into a live system under one
:class:`~repro.core.config.MMUConfig` — kernel, process, VMAs, IOMMU
and fault path — using the same wiring as the hand-written equivalence
suites.

Pressure preludes
-----------------
``fragment``
    Checkerboard the physical allocator (many single-page allocations,
    free every other one) and pin the large contiguous tail with a hog
    allocation.  A DVM identity mapping of ≥ 2 pages then fails
    contiguous allocation and degrades to a demand mapping — the
    identity→demand transition of paper Section 4.3.1 — while
    single-page regions still identity-map into the holes.  The board
    is mapped and half unmapped with the batch syscalls
    (``VMM.mmap_pages``/``munmap_pages``), which leave exactly the state
    one ``mmap``/``munmap`` per page would.
``reclaim``
    After the mosaic is mapped, swap out a fraction of the process's
    identity allocations through the real
    :class:`~repro.kernel.reclaim.Reclaimer` and shoot down the IOMMU's
    translation structures (Section 4.3.2); streams then swap-fault
    their way back in.

Only identity-mapping policies get the ``fragment`` prelude: it exists
to force identity degradation, and conventional policies (which never
identity-map) would only gain an out-of-memory crash risk from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.common.consts import PAGE_SIZE
from repro.common.perms import Perm
from repro.core.config import MMUConfig
from repro.gen.perms import gen_region_perms, readable
from repro.hw.bitmap import PermissionBitmap
from repro.hw.dram import DRAMModel
from repro.hw.fault_queue import FaultPath
from repro.hw.iommu import IOMMU
from repro.kernel.fault import FaultHandler
from repro.kernel.kernel import Kernel
from repro.kernel.reclaim import Reclaimer

MB = 1 << 20

#: Page counts biased toward page-run boundary shapes: single pages,
#: powers of two, and off-by-one sizes that straddle analog-huge-page
#: boundaries when rounded.
REGION_PAGE_CHOICES = (1, 2, 3, 4, 7, 8, 16, 17, 32, 64)
REGION_PAGE_WEIGHTS = (0.14, 0.12, 0.1, 0.12, 0.1, 0.12, 0.1, 0.08,
                       0.07, 0.05)

PRESSURE_KINDS = ("none", "fragment", "reclaim")


@dataclass(frozen=True)
class RegionSpec:
    """One mosaic region: size in 4 KB pages and its permission."""

    pages: int
    perm: Perm


@dataclass(frozen=True)
class LayoutPlan:
    """Configuration-independent description of a generated layout."""

    regions: tuple[RegionSpec, ...]
    phys_mb: int
    pressure: str                 # one of PRESSURE_KINDS
    reclaim_fraction: float       # only meaningful for "reclaim"
    frag_holes: int               # only meaningful for "fragment"
    unmap_region: int | None      # munmapped after the mosaic is built
    demand: bool                  # lazy backing (demand_faulting policies)
    scale: str                    # "default" | "fuzz" hardware scale

    @property
    def total_pages(self) -> int:
        """Mosaic footprint in 4 KB pages (the hog excluded)."""
        return sum(r.pages for r in self.regions)


def gen_layout(rng: np.random.Generator) -> LayoutPlan:
    """Draw one constrained-random layout plan."""
    count = int(rng.integers(2, 7))
    perms = gen_region_perms(rng, count)
    picks = rng.choice(len(REGION_PAGE_CHOICES), size=count,
                       p=REGION_PAGE_WEIGHTS)
    regions = tuple(RegionSpec(pages=REGION_PAGE_CHOICES[int(i)], perm=p)
                    for i, p in zip(picks, perms))
    unmap_region = None
    if count >= 3 and rng.random() < 0.3:
        unmap_region = int(rng.integers(0, count))
        if not any(readable(r.perm) for i, r in enumerate(regions)
                   if i != unmap_region):
            # The benign stream needs a readable region left mapped: unmap
            # a neighbour of the only one instead (no extra draw, so every
            # other seed's layout is unchanged).
            unmap_region = (unmap_region + 1) % count
    roll = rng.random()
    if roll < 0.3:
        pressure = "fragment"
    elif roll < 0.55:
        pressure = "reclaim"
    else:
        pressure = "none"
    return LayoutPlan(
        regions=regions,
        # Sized for the worst-case config: conv_1g populates one scaled
        # 1G chunk per region, the kernel keeps half of phys, and the
        # mosaic can draw six regions — 64 MB fits all of it under every
        # scale profile (tests/gen pin this envelope).  The fragment
        # prelude hogs whatever is free, so pressure does not need a
        # smaller machine to bite.
        phys_mb=64,
        pressure=pressure,
        reclaim_fraction=float(rng.uniform(0.25, 1.0)),
        frag_holes=sum(r.pages for r in regions) + 16,
        unmap_region=unmap_region,
        demand=bool(rng.random() < 0.4),
        scale="fuzz" if rng.random() < 0.35 else "default",
    )


def invalidate_translation_structures(iommu: IOMMU) -> None:
    """The OS-style IOTLB shootdown that follows page-table surgery."""
    for tlb in (iommu.tlb, iommu.tlb_l2):
        if tlb is not None:
            tlb.invalidate_all()
    if iommu.walker is not None:
        iommu.walker.invalidate()
        iommu.walker.cache.invalidate_all()
    if iommu.perm_bitmap is not None:
        iommu.perm_bitmap.cache.invalidate_all()


#: Contiguous runs up to this buddy order survive the fragment prelude,
#: so single-digit-page regions can still identity-map into the leftovers
#: while anything larger must degrade to demand paging.
_FRAG_SLACK_ORDER = 3


def _fragment_phys(kernel: Kernel, vmm, holes: int) -> None:
    """Checkerboard the buddy allocator, leaving single-page holes.

    Map ``2 * holes`` single pages in one batch, pin every contiguous run
    larger than the slack order with hog allocations (the pool is not one
    run — kernel reservations and page-table frames split it — so the hog
    walks ``largest_free_order`` down instead of assuming ``free_bytes``
    is allocatable in one piece), then unmap every other board page in
    one batch.  The batch calls equal one ``mmap``/``munmap`` per page.
    """
    board = vmm.mmap_pages(2 * holes, Perm.READ_ONLY, name="board")
    allocator = kernel.phys.allocator
    i = 0
    while (order := allocator.largest_free_order()) > _FRAG_SLACK_ORDER:
        vmm.mmap(PAGE_SIZE << order, Perm.READ_ONLY, name=f"hog{i}")
        i += 1
    vmm.munmap_pages(board[1::2])


def realize(plan: LayoutPlan, config: MMUConfig) -> SimpleNamespace:
    """Build one live system for ``plan`` under ``config``.

    Returns a namespace with the kernel/process/iommu/handler
    wiring plus per-region addressing: ``region_vas``/``region_sizes``
    (index-aligned with ``plan.regions``; the unmapped region keeps the
    VA and size it had before munmap) and ``allocs`` (None for the
    unmapped region).  Realization is deterministic: realizing the same
    plan under the same config twice yields identical addresses.
    """
    bitmap = (PermissionBitmap(cache_blocks=config.bitmap_cache_blocks)
              if config.mech == "dvm_bm" else None)
    factory = (lambda k, p: bitmap) if bitmap is not None else None
    kernel = Kernel(phys_bytes=plan.phys_mb * MB, policy=config.policy,
                    perm_bitmap_factory=factory)
    proc = kernel.spawn()
    if plan.pressure == "fragment" and config.policy.wants_identity:
        _fragment_phys(kernel, proc.vmm, plan.frag_holes)
    allocs: list = []
    for i, region in enumerate(plan.regions):
        allocs.append(proc.vmm.mmap(region.pages * PAGE_SIZE, region.perm,
                                    name=f"region{i}"))
    region_vas = [a.va for a in allocs]
    region_sizes = [a.size for a in allocs]
    if plan.unmap_region is not None:
        proc.vmm.munmap(allocs[plan.unmap_region])
        allocs[plan.unmap_region] = None
    iommu = IOMMU(config, proc.page_table, DRAMModel(), perm_bitmap=bitmap)
    handler = FaultHandler(kernel, proc)
    iommu.attach_fault_path(FaultPath(handler, config=config.name))
    if plan.pressure == "reclaim":
        if kernel.reclaimer is None:
            kernel.reclaimer = Reclaimer(kernel)
        target = int(proc.vmm.stats.total_bytes * plan.reclaim_fraction)
        kernel.reclaimer.reclaim(proc, target)
        invalidate_translation_structures(iommu)
    return SimpleNamespace(config=config, kernel=kernel, process=proc,
                           iommu=iommu, handler=handler,
                           allocs=allocs, region_vas=region_vas,
                           region_sizes=region_sizes)
