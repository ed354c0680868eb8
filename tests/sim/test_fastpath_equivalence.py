"""Exactness tests: the timing fast path vs the scalar reference loop.

The page-run engine (`repro.sim.fastpath`) is an optimization, not a
model change: for every trace and every MMU configuration it must produce
bit-identical :class:`TimingStats` *and* leave the hardware structures
(TLB, walker caches, bitmap cache, DRAM counters) in the identical final
state as the scalar per-access loop.  These tests fuzz that contract over
all seven standard configurations, at multiple hardware scales, including
fault paths and warm-structure reruns, with the compiled LRU kernel and
on a numpy-only host, where the fast engine refuses every batch
(``no_kernel``) to the scalar loops.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.common import faults
from repro.common.errors import PageFault, ProtectionFault
from repro.common.perms import Perm
from repro.core.config import HardwareScale, standard_configs
from repro.hw.bitmap import PermissionBitmap
from repro.hw.dram import DRAMModel
from repro.hw.iommu import IOMMU, TimingStats
from repro.kernel.kernel import Kernel
from repro.sim import _native, fastpath

MB = 1 << 20

CONFIG_NAMES = ("conv_4k", "conv_2m", "conv_1g", "dvm_bm", "dvm_pe",
                "dvm_pe_plus", "ideal")


def build(name, scale=None, heap=2 * MB, phys=128 * MB,
          perm=Perm.READ_WRITE):
    """One IOMMU under one configuration with a mapped heap."""
    config = standard_configs(scale)[name]
    bitmap = (PermissionBitmap(cache_blocks=config.bitmap_cache_blocks)
              if config.mech == "dvm_bm" else None)
    factory = (lambda k, p: bitmap) if bitmap is not None else None
    kernel = Kernel(phys_bytes=phys, policy=config.policy,
                    perm_bitmap_factory=factory)
    proc = kernel.spawn()
    alloc = proc.vmm.mmap(heap, perm)
    iommu = IOMMU(config, proc.page_table, DRAMModel(), perm_bitmap=bitmap)
    return alloc, iommu


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


def assert_equivalent(name, addrs, writes, scale=None, perm=Perm.READ_WRITE,
                      repeat=1, phys=128 * MB):
    """Run both engines on twin systems; stats, state and faults must match."""
    _, scalar_iommu = build(name, scale=scale, perm=perm, phys=phys)
    _, fast_iommu = build(name, scale=scale, perm=perm, phys=phys)
    results = []
    for iommu, engine in ((scalar_iommu, "scalar"), (fast_iommu, "fast")):
        stats = exc = None
        try:
            for _ in range(repeat):
                stats = iommu.run_trace(addrs, writes, engine=engine)
        except (PageFault, ProtectionFault) as e:
            exc = (type(e).__name__, e.args)
        results.append((stats, exc))
    (scalar_stats, scalar_exc), (fast_stats, fast_exc) = results
    assert scalar_exc == fast_exc
    assert (scalar_stats is None) == (fast_stats is None)
    if scalar_stats is not None:
        assert asdict(scalar_stats) == asdict(fast_stats)
    assert structure_state(scalar_iommu) == structure_state(fast_iommu)


@pytest.fixture(params=["native", "numpy"])
def engine_backend(request, monkeypatch):
    """Exercise the compiled kernels and a numpy-only host.

    The numpy side disables the compiled library as a whole: the fast
    engine refuses every batch (``no_kernel``) to the scalar loops, and
    DRAM row accounting runs its numpy fallback.
    """
    if request.param == "numpy":
        monkeypatch.setattr(_native, "_load", lambda: None)
    elif not _native.available():
        pytest.skip("no C compiler available for the native kernel")
    return request.param


@pytest.mark.parametrize("name", CONFIG_NAMES)
class TestEngineEquivalence:
    def test_fuzzed_traces(self, name, engine_backend):
        alloc, _ = build(name)
        for seed in (7, 11, 42):
            addrs, writes = fuzz_trace(alloc, seed=seed)
            assert_equivalent(name, addrs, writes)

    def test_bench_scale(self, name, engine_backend):
        alloc, _ = build(name)
        addrs, writes = fuzz_trace(alloc, seed=3)
        assert_equivalent(name, addrs, writes, scale=HardwareScale.bench())

    def test_empty_trace(self, name, engine_backend):
        assert_equivalent(name, np.empty(0, np.int64), np.empty(0, np.int8))

    def test_single_access(self, name, engine_backend):
        alloc, _ = build(name)
        assert_equivalent(name, np.array([alloc.va]),
                          np.array([1], np.int8))

    def test_warm_structures(self, name, engine_backend):
        # Re-running a trace on warm TLB/caches exercises the fast path's
        # state rebuild between batches.
        alloc, _ = build(name)
        addrs, writes = fuzz_trace(alloc, n=1500, seed=5)
        assert_equivalent(name, addrs, writes, repeat=3)

    def test_sequential_runs(self, name, engine_backend):
        alloc, _ = build(name)
        addrs = alloc.va + (np.arange(6000) * 8) % alloc.size
        writes = (np.arange(6000) % 3 == 0).astype(np.int8)
        assert_equivalent(name, addrs, writes)

    def test_page_fault_parity(self, name, engine_backend):
        alloc, _ = build(name)
        addrs, writes = fuzz_trace(alloc, seed=9)
        addrs = addrs.copy()
        addrs[1234] = alloc.va + alloc.size + (100 << 12)
        assert_equivalent(name, addrs, writes)

    def test_protection_fault_parity(self, name, engine_backend):
        alloc, _ = build(name, perm=Perm.READ_ONLY)
        addrs, writes = fuzz_trace(alloc, seed=13, write_frac=0.5)
        assert_equivalent(name, addrs, writes, perm=Perm.READ_ONLY)


@pytest.fixture(params=["no_library", "compile_fail"])
def no_kernel(request, monkeypatch):
    """A host without the compiled LRU kernel: no library at all, or an
    injected compile failure on the first load."""
    if request.param == "no_library":
        monkeypatch.setattr(_native, "_load", lambda: None)
    else:
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", False)
        faults.configure("compile_fail:1.0", seed=0)
    return request.param


@pytest.mark.parametrize("name", CONFIG_NAMES)
class TestNoKernel:
    def test_run_batch_refuses_untouched(self, name, no_kernel):
        alloc, iommu = build(name)
        addrs, writes = fuzz_trace(alloc, seed=7)
        iommu.run_trace(addrs[:500], writes[:500], engine="scalar")
        before = structure_state(iommu)
        stats = TimingStats()
        outcome = fastpath.run_batch(
            iommu, fastpath.PageRunBatch.from_trace(addrs, writes), stats)
        assert not outcome
        assert outcome.reason == "no_kernel"
        assert asdict(stats) == asdict(TimingStats())
        assert structure_state(iommu) == before

    def test_fast_engine_matches_scalar(self, name, no_kernel):
        alloc, _ = build(name)
        addrs, writes = fuzz_trace(alloc, seed=11)
        assert_equivalent(name, addrs, writes, repeat=2)
