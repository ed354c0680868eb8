"""Fault-bearing equivalence: fault pre-delivery vs the scalar loops.

The fast engine does not refuse traces that can fault: it services the
predicted faults up front, at their exact sites, through the real fault
machinery (`repro.hw.fault_queue`, `repro.kernel.fault`), then replays
the whole trace batched.  A trace whose faults cannot be pinned to sites
is refused to the scalar loops.  These tests pin the contract across
all seven standard configurations, with the compiled LRU kernel and on a
numpy-only host (every batch on the scalar loops): demand
page-in, swap-in under reclaim pressure, permission mosaics, warm
reruns and chaos-injected faults must all produce bit-identical
:class:`TimingStats` (fault and stall counters included), energy
events, hardware-structure state and fault-machinery counters, engine
for engine.
"""

from __future__ import annotations

from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.common import faults
from repro.common.errors import AccessViolation
from repro.common.perms import Perm
from repro.core.config import demand_faulting_config, standard_configs
from repro.hw.bitmap import PermissionBitmap
from repro.hw.dram import DRAMModel
from repro.hw.fault_queue import FaultPath, FaultQueue
from repro.hw.iommu import IOMMU, TimingStats
from repro.kernel.fault import FaultHandler
from repro.kernel.kernel import Kernel
from repro.kernel.reclaim import Reclaimer
from repro.sim import _native, fastpath

MB = 1 << 20

CONFIG_NAMES = ("conv_4k", "conv_2m", "conv_1g", "dvm_bm", "dvm_pe",
                "dvm_pe_plus", "ideal")


def build(name, *, demand=False, heap=2 * MB, phys=128 * MB,
          perm=Perm.READ_WRITE, extra=0, extra_perm=Perm.READ_ONLY):
    """One fault-path-attached system under one configuration."""
    config = standard_configs()[name]
    if demand:
        config = demand_faulting_config(config)
    bitmap = (PermissionBitmap(cache_blocks=config.bitmap_cache_blocks)
              if config.mech == "dvm_bm" else None)
    factory = (lambda k, p: bitmap) if bitmap is not None else None
    kernel = Kernel(phys_bytes=phys, policy=config.policy,
                    perm_bitmap_factory=factory)
    proc = kernel.spawn()
    alloc = proc.vmm.mmap(heap, perm)
    extra_alloc = proc.vmm.mmap(extra, extra_perm) if extra else None
    iommu = IOMMU(config, proc.page_table, DRAMModel(), perm_bitmap=bitmap)
    queue = FaultQueue()
    handler = FaultHandler(kernel, proc)
    iommu.attach_fault_path(FaultPath(queue, handler, config=config.name))
    return SimpleNamespace(alloc=alloc, extra=extra_alloc, iommu=iommu,
                           kernel=kernel, process=proc, queue=queue,
                           handler=handler)


def reclaim(sys_, fraction):
    """Swap out part of the heap with the OS-style IOTLB shootdown."""
    if sys_.kernel.reclaimer is None:
        sys_.kernel.reclaimer = Reclaimer(sys_.kernel)
    target = int(sys_.process.vmm.stats.total_bytes * fraction)
    freed = sys_.kernel.reclaimer.reclaim(sys_.process, target)
    iommu = sys_.iommu
    for tlb in (iommu.tlb, iommu.tlb_l2):
        if tlb is not None:
            tlb.invalidate_all()
    if iommu.walker is not None:
        iommu.walker.invalidate()
        iommu.walker.cache.invalidate_all()
    if iommu.perm_bitmap is not None:
        iommu.perm_bitmap.cache.invalidate_all()
    return freed


def structure_state(iommu) -> dict:
    """Full observable state of the IOMMU's hardware structures."""
    s = {}
    if iommu.tlb is not None:
        s["tlb"] = [list(d.items()) for d in iommu.tlb._sets]
        s["tlb_stats"] = (iommu.tlb.stats.hits, iommu.tlb.stats.misses)
    if iommu.walker is not None:
        s["wc"] = [list(d.items()) for d in iommu.walker.cache._sets]
        s["wc_stats"] = (iommu.walker.cache.stats.hits,
                         iommu.walker.cache.stats.misses)
        s["walks"] = iommu.walker.walks
    if iommu.perm_bitmap is not None:
        s["bm"] = [list(d.items()) for d in iommu.perm_bitmap.cache._sets]
        s["bm_stats"] = (iommu.perm_bitmap.cache.stats.hits,
                         iommu.perm_bitmap.cache.stats.misses)
    s["dram"] = asdict(iommu.dram.stats)
    return s


def fault_state(sys_) -> dict:
    """Fault-machinery counters (must match delivery for delivery)."""
    return {"queue": vars(sys_.queue.stats).copy(),
            "pending": sys_.queue.pending(),
            "handler": vars(sys_.handler.stats).copy()}


def fuzz_trace(alloc, n=4000, seed=7, write_frac=0.3):
    """Mixed random/sequential trace with page-run structure."""
    rng = np.random.default_rng(seed)
    mixed = np.where(rng.random(n) < 0.5,
                     rng.integers(0, alloc.size // 8, n) * 8,
                     (np.arange(n) * 8) % alloc.size)
    reps = rng.integers(1, 5, n)
    mixed = np.repeat(mixed, reps)[:n]
    addrs = alloc.va + mixed
    writes = (rng.random(len(addrs)) < write_frac).astype(np.int8)
    return addrs, writes


def mosaic_violation_trace(sys_):
    """A fuzz trace over the heap with one store to a read-only page."""
    addrs, writes = fuzz_trace(sys_.alloc, n=2000, seed=19)
    addrs = addrs.copy()
    addrs[1100] = sys_.extra.va + (3 << 12)
    writes = writes.copy()
    writes[1100] = 1
    return addrs, writes


def run_both(make_system, addrs, writes, repeat=1, prepare=None,
             compare_contents=True):
    """Run both engines on twin systems; everything observable must match.

    ``prepare`` runs on each twin before the trace (reclaim pressure,
    chaos configuration...).  ``compare_contents=False`` skips the
    structure *contents* comparison for runs whose fault pre-delivery
    aborts: the scalar loop leaves live-mutated dicts from its partial
    pass while pre-delivery aborts before any replay — counters are
    restored to the identical pre-call values either way, but the
    unobservable in-flight dict contents legitimately differ.  A batch
    the fast engine refuses runs the scalar loops, so its contents are
    always compared.
    """
    results = []
    for engine in ("scalar", "fast"):
        sys_ = make_system()
        if prepare is not None:
            prepare(sys_)
        stats = exc = None
        try:
            for _ in range(repeat):
                stats = sys_.iommu.run_trace(addrs, writes, engine=engine)
        except AccessViolation as e:
            exc = (e.record.va, e.record.access, e.record.kind)
        results.append((stats, exc, sys_))
    (scalar_stats, scalar_exc, scalar_sys) = results[0]
    (fast_stats, fast_exc, fast_sys) = results[1]
    assert scalar_exc == fast_exc
    assert (scalar_stats is None) == (fast_stats is None)
    if scalar_stats is not None:
        assert asdict(scalar_stats) == asdict(fast_stats)
    assert fault_state(scalar_sys) == fault_state(fast_sys)
    scalar_state = structure_state(scalar_sys.iommu)
    fast_state = structure_state(fast_sys.iommu)
    if compare_contents:
        assert scalar_state == fast_state
    else:
        for key in ("tlb_stats", "wc_stats", "bm_stats", "walks", "dram"):
            assert scalar_state.get(key) == fast_state.get(key), key
    return scalar_stats, scalar_sys


@pytest.fixture(params=["native", "numpy"])
def engine_backend(request, monkeypatch):
    """Exercise the compiled kernels and a numpy-only host.

    The numpy side disables the compiled library as a whole: the fast
    engine refuses every batch (``no_kernel``) to the scalar loops, so
    faults are delivered in-loop on both sides, and DRAM row accounting
    runs its numpy fallback.
    """
    if request.param == "numpy":
        monkeypatch.setattr(_native, "_load", lambda: None)
    elif not _native.available():
        pytest.skip("no C compiler available for the native kernel")
    return request.param


def kernel_reason(engine_backend, reason):
    """The refusal ``reason`` expected with the compiled kernel; a
    numpy-only host refuses every batch as ``no_kernel``."""
    return reason if engine_backend == "native" else "no_kernel"


@pytest.mark.parametrize("name", CONFIG_NAMES)
class TestFaultEquivalence:
    def test_demand_page_in(self, name, engine_backend):
        probe = build(name, demand=True)
        addrs, writes = fuzz_trace(probe.alloc, seed=7)
        stats, _ = run_both(lambda: build(name, demand=True), addrs, writes)
        # Only the conventional configs demand-fault: DVM's eager
        # identity mapping validates accesses without backing frames —
        # the paper's Section 4.3 argument, pinned here engine-for-engine.
        if name.startswith("conv"):
            assert stats.faults > 0
            assert stats.major_faults > 0
            assert stats.fault_stall_cycles > 0
            assert stats.energy.events.get("fault_service") == stats.faults

    def test_swap_in_under_reclaim(self, name, engine_backend):
        probe = build(name)
        addrs, writes = fuzz_trace(probe.alloc, seed=11)
        stats, _ = run_both(lambda: build(name), addrs, writes,
                            prepare=lambda s: reclaim(s, 0.4))
        # Reclaim victims are identity allocations (Section 4.3.2), so
        # only the DVM configs see their heap swapped out; conventional
        # allocations are untouched and the run stays fault-free.
        if name.startswith("dvm"):
            assert stats.swap_faults > 0

    def test_reclaim_then_warm_rerun(self, name, engine_backend):
        # Second pass runs fault-free on warm structures: the engine must
        # pre-deliver the first pass's swap-ins and then replay the second
        # as one clean batch.
        probe = build(name)
        addrs, writes = fuzz_trace(probe.alloc, n=2000, seed=3)
        run_both(lambda: build(name), addrs, writes, repeat=2,
                 prepare=lambda s: reclaim(s, 0.3))

    def test_demand_warm_rerun(self, name, engine_backend):
        probe = build(name, demand=True)
        addrs, writes = fuzz_trace(probe.alloc, n=2000, seed=5)
        run_both(lambda: build(name, demand=True), addrs, writes, repeat=2)

    def test_permission_mosaic_reads(self, name, engine_backend):
        # Read-only pages beside read-write pages: reads everywhere,
        # writes confined to the RW heap — servable end to end.
        probe = build(name, extra=256 << 10)
        rng = np.random.default_rng(17)
        n = 3000
        pick = rng.random(n) < 0.5
        rw = probe.alloc.va + rng.integers(0, probe.alloc.size // 8, n) * 8
        ro = probe.extra.va + rng.integers(0, probe.extra.size // 8, n) * 8
        addrs = np.where(pick, rw, ro)
        writes = (pick & (rng.random(n) < 0.4)).astype(np.int8)
        run_both(lambda: build(name, extra=256 << 10), addrs, writes)

    def test_permission_mosaic_violation(self, name, engine_backend):
        # A store to a read-only page escalates: both engines must raise
        # the identical AccessViolation and leave identical counters.
        probe = build(name, extra=256 << 10)
        addrs, writes = mosaic_violation_trace(probe)
        # The TLB-fronted configs cannot pin the violation to a site (a
        # region entry may hit-fault), so the fast engine refuses them;
        # DAV pins it to the page's first store and pre-delivery aborts.
        if name.startswith("conv") or name == "dvm_bm":
            outcome = fastpath.run_batch(
                probe.iommu, fastpath.PageRunBatch.from_trace(addrs, writes),
                TimingStats())
            assert not outcome
            assert outcome.reason == kernel_reason(engine_backend,
                                                   "order_dependent")
        stats, _ = run_both(lambda: build(name, extra=256 << 10),
                            addrs, writes,
                            compare_contents=name not in ("dvm_pe",
                                                          "dvm_pe_plus"))
        if name != "ideal":
            assert stats is None

    def test_chaos_injected_fault(self, name, engine_backend):
        # REPRO_FAULTS guest-fault chaos fires before the engine runs;
        # the pre-charged fault stall must survive both paths.
        probe = build(name)
        addrs, writes = fuzz_trace(probe.alloc, n=1500, seed=23)

        def inject(sys_):
            faults.configure("page_fault:1.0:1", seed=0)

        try:
            stats, _ = run_both(lambda: build(name), addrs, writes,
                                prepare=inject)
        finally:
            faults.configure(None)
        if name != "ideal":
            assert stats.faults > 0


def test_mosaic_refusal_is_counted():
    # With observability on, a refused mosaic batch is attributed to its
    # refusal reason in the registry.
    from repro import obs
    from repro.obs import core as obs_core
    sys_ = build("conv_4k", extra=256 << 10)
    addrs, writes = mosaic_violation_trace(sys_)
    obs_core.configure(enabled=True)
    obs.reset()
    try:
        with pytest.raises(AccessViolation):
            sys_.iommu.run_trace(addrs, writes, engine="fast")
        refused = obs_core.REGISTRY.counter(
            "fastpath.refused.order_dependent", mech="conventional")
        assert refused.value == 1
    finally:
        obs_core.configure(enabled=False)
        obs.reset()


class TestSegmentStitching:
    """Regression tests pinning access ordering around mid-stream faults."""

    def outcome_for(self, sys_, addrs, writes):
        batch = fastpath.PageRunBatch.from_trace(addrs, writes)
        stats = TimingStats()
        outcome = fastpath.run_batch(sys_.iommu, batch, stats)
        sys_.iommu._finalize_energy(stats)
        return outcome, stats

    def _mid_stream_trace(self, probe):
        page = 1 << 12
        parts = [
            probe.alloc.va + (np.arange(600) // 3) * 8,          # run walk
            probe.alloc.va + 200 * page + np.zeros(500, np.int64),
            probe.alloc.va + 300 * page + (np.arange(700) % 40) * 8,
            probe.alloc.va + 200 * page + np.arange(400) * 8,
        ]
        addrs = np.concatenate(parts)
        writes = (np.arange(addrs.size) % 5 == 0).astype(np.int8)
        return addrs, writes

    def test_fault_mid_run_preserves_ordering(self, engine_backend):
        # Demand pages' first touches land mid-stream between long
        # same-page runs; the screen's fault sites are exact here, so
        # pre-delivery services them up front and replays the whole
        # trace as one clean batch with the exact access order (TLB /
        # cache recency, DRAM row state, fault positions) intact.
        def make():
            return build("conv_4k", demand=True, heap=4 * MB)

        probe = make()
        addrs, writes = self._mid_stream_trace(probe)

        scalar_stats, _ = run_both(make, addrs, writes)
        assert scalar_stats.major_faults > 0
        sys_ = make()
        outcome, stats = self.outcome_for(sys_, addrs, writes)
        if engine_backend == "numpy":
            assert outcome.reason == "no_kernel"
        else:
            assert outcome.accepted
            assert asdict(stats) == asdict(scalar_stats)

    def test_predelivery_miss_runs_scalar_over_healed_state(
            self, engine_backend, monkeypatch):
        # Make the post-delivery screen miss after the faults are
        # delivered: the engine must refuse with "predelivery_miss", and
        # the scalar loops over the healed state (delivered faults'
        # charges kept) must reproduce the scalar run exactly.
        def make():
            return build("conv_4k", demand=True, heap=4 * MB)

        probe = make()
        addrs, writes = self._mid_stream_trace(probe)
        scalar_sys = make()
        scalar_stats = scalar_sys.iommu.run_trace(addrs, writes,
                                                  engine="scalar")
        assert scalar_stats.major_faults > 0

        screen = fastpath._screen_conventional

        def missing(iommu, batch, parent=None):
            if parent is None:
                return screen(iommu, batch)
            return "order_dependent", None

        monkeypatch.setattr(fastpath, "_screen_conventional", missing)
        sys_ = make()
        outcome, _ = self.outcome_for(sys_, addrs, writes)
        assert not outcome
        assert outcome.reason == kernel_reason(engine_backend,
                                               "predelivery_miss")
        fast_sys = make()
        fast_stats = fast_sys.iommu.run_trace(addrs, writes, engine="fast")
        assert asdict(fast_stats) == asdict(scalar_stats)
        assert fault_state(fast_sys) == fault_state(scalar_sys)
        assert (structure_state(fast_sys.iommu)
                == structure_state(scalar_sys.iommu))

    def test_swap_fault_mid_stream_dav(self, engine_backend):
        # Same shape under DVM-PE: reclaim swaps the identity heap, so
        # every page's first touch swap-faults mid-stream and the walk
        # table changes under the engine's feet during pre-delivery.
        def make():
            return build("dvm_pe", heap=4 * MB)

        probe = make()
        page = 1 << 12
        parts = [
            probe.alloc.va + (np.arange(900) // 3) * 8,
            probe.alloc.va + 150 * page + np.zeros(600, np.int64),
            probe.alloc.va + 150 * page + np.arange(500) * 8,
        ]
        addrs = np.concatenate(parts)
        writes = (np.arange(addrs.size) % 5 == 0).astype(np.int8)

        def prep(sys_):
            reclaim(sys_, 1.0)

        scalar_stats, _ = run_both(make, addrs, writes, prepare=prep)
        assert scalar_stats.swap_faults > 0

    def test_chunk_service_heals_siblings(self, engine_backend):
        # conv_2m demand faulting: one major fault populates a whole
        # policy-size chunk, so sibling pages touched later in the same
        # batch must *not* be predicted (or serviced) as faults.  Pins
        # the memo purge + heal-window grouping.
        def make():
            return build("conv_2m", demand=True, heap=8 * MB)

        probe = make()
        page = 1 << 12
        chunk = probe.kernel.policy.page_size
        ppc = chunk // page                     # 4 KB pages per chunk
        assert ppc > 1
        base = probe.alloc.va
        parts = [
            base + np.repeat(np.arange(ppc), 40) * page,          # chunk 0
            base + chunk + np.repeat(np.arange(ppc), 50) * page,  # chunk 1
            base + np.repeat(np.arange(ppc), 30) * page,   # chunk 0 again
        ]
        addrs = np.concatenate(parts)
        writes = (np.arange(addrs.size) % 4 == 0).astype(np.int8)
        scalar_stats, _ = run_both(make, addrs, writes)
        # One major fault per touched chunk, not per touched page.
        assert scalar_stats.major_faults == 2
