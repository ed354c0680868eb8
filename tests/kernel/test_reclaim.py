"""Low-memory reclamation (repro.kernel.reclaim, Section 4.3.2)."""

import pytest

from repro.common.consts import PAGE_SIZE
from repro.common.errors import OutOfMemoryError
from repro.common.perms import Perm
from repro.kernel.kernel import Kernel
from repro.kernel.reclaim import ReclaimError, Reclaimer
from repro.kernel.vm_syscalls import MemPolicy

MB = 1 << 20


@pytest.fixture
def setup():
    kernel = Kernel(phys_bytes=256 * MB, policy=MemPolicy(mode="dvm"))
    kernel.reclaimer = Reclaimer(kernel)
    proc = kernel.spawn()
    proc.setup_segments()
    return kernel, proc, kernel.reclaimer


class TestSwapOut:
    def test_reclaim_frees_memory(self, setup):
        kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(8 * MB, Perm.READ_WRITE)
        used = kernel.phys.used_bytes
        freed = reclaimer.reclaim_allocation(proc, alloc)
        assert freed == 8 * MB
        assert kernel.phys.used_bytes < used

    def test_swapped_pages_fault_as_swapped(self, setup):
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        result = proc.page_table.walk(alloc.va)
        assert not result.ok
        assert result.swapped
        assert result.perm == Perm.READ_WRITE  # preserved for swap-in

    def test_pes_converted_to_standard_ptes(self, setup):
        """Paper: 'convert permission entries to standard PTEs and swap'."""
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        assert proc.page_table.entry_counts()["pe"] > 0
        reclaimer.reclaim_allocation(proc, alloc)
        assert proc.page_table.entry_counts()["pe"] == 0

    def test_non_identity_victim_rejected(self, setup):
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        with pytest.raises(ReclaimError):
            reclaimer.reclaim_allocation(proc, alloc)

    def test_reclaim_targets_largest_first(self, setup):
        _kernel, proc, reclaimer = setup
        small = proc.vmm.mmap(1 * MB, Perm.READ_WRITE)
        big = proc.vmm.mmap(8 * MB, Perm.READ_WRITE)
        freed = reclaimer.reclaim(proc, 4 * MB)
        assert freed >= 4 * MB
        assert not big.identity
        assert small.identity

    def test_bookkeeping_demoted(self, setup):
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        before = proc.vmm.stats.identity_bytes
        reclaimer.reclaim_allocation(proc, alloc)
        assert proc.vmm.stats.identity_bytes == before - 2 * MB


class TestSwapIn:
    def test_access_triggers_swap_in(self, setup):
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        pa = proc.read(alloc.va)  # demand swap-in through Process.access
        assert pa is not None
        assert not reclaimer.is_swapped(proc, alloc.va)
        assert reclaimer.stats.pages_swapped_in == 1

    def test_swap_in_generally_breaks_identity(self, setup):
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        # Occupy low memory so the swapped-in frame cannot land at VA.
        proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        proc.read(alloc.va)
        assert not proc.is_identity(alloc.va)

    def test_swap_in_preserves_permissions(self, setup):
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_ONLY)
        reclaimer.reclaim_allocation(proc, alloc)
        proc.read(alloc.va)
        assert proc.page_table.walk(alloc.va).perm == Perm.READ_ONLY

    def test_swap_in_unknown_page_rejected(self, setup):
        _kernel, proc, reclaimer = setup
        with pytest.raises(ReclaimError):
            reclaimer.swap_in(proc, 0x1234_5000)

    def test_swap_in_unknown_page_allocates_nothing(self, setup):
        kernel, proc, reclaimer = setup
        free = kernel.phys.free_bytes
        with pytest.raises(ReclaimError):
            reclaimer.swap_in(proc, 0x1234_5000)
        assert kernel.phys.free_bytes == free

    def test_out_of_memory_swap_in_keeps_the_slot(self, setup):
        # An out-of-memory swap-in must leave the page swapped — slot
        # and SwappedPTE together — so a retry once a frame frees up
        # brings it back instead of reporting it "not in swap".
        kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(1 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        frames = []
        while kernel.phys.free_bytes:
            frames.append(kernel.phys.alloc_frame())
        with pytest.raises(OutOfMemoryError):
            reclaimer.swap_in(proc, alloc.va)
        assert reclaimer.is_swapped(proc, alloc.va)
        assert proc.page_table.walk(alloc.va).swapped
        assert reclaimer.stats.pages_swapped_in == 0
        kernel.phys.free_frame(frames.pop())
        reclaimer.swap_in(proc, alloc.va)
        assert not reclaimer.is_swapped(proc, alloc.va)
        assert proc.page_table.walk(alloc.va).ok
        assert reclaimer.stats.pages_swapped_in == 1

    def test_swap_in_allocation(self, setup):
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(1 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        count = reclaimer.swap_in_allocation(proc, alloc)
        assert count == 256
        for offset in range(0, alloc.size, PAGE_SIZE):
            assert proc.page_table.walk(alloc.va + offset).ok


class TestReestablish:
    def test_roundtrip_restores_identity_and_pes(self, setup):
        """The paper's 'reorganize memory to reestablish identity'."""
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        reclaimer.swap_in_allocation(proc, alloc)
        assert not proc.is_identity(alloc.va)
        assert reclaimer.reestablish_identity(proc, alloc)
        assert proc.is_identity(alloc.va)
        assert proc.is_identity(alloc.va + alloc.size - 1)
        assert proc.page_table.walk(alloc.va).is_pe
        assert alloc.identity

    def test_requires_residency(self, setup):
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        with pytest.raises(ReclaimError):
            reclaimer.reestablish_identity(proc, alloc)

    def test_fails_when_range_is_occupied(self, setup):
        kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        # Squat on the allocation's old physical range.
        assert kernel.phys.alloc_exact(alloc.va, alloc.size)
        reclaimer.swap_in_allocation(proc, alloc)
        assert not reclaimer.reestablish_identity(proc, alloc)
        assert not proc.is_identity(alloc.va)
        # Still fully accessible through translation.
        assert proc.read(alloc.va) is not None

    def test_memory_balance_after_roundtrip(self, setup):
        kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        used_before = kernel.phys.used_bytes
        reclaimer.reclaim_allocation(proc, alloc)
        reclaimer.swap_in_allocation(proc, alloc)
        assert reclaimer.reestablish_identity(proc, alloc)
        assert kernel.phys.used_bytes == used_before

    def test_bookkeeping_promoted(self, setup):
        _kernel, proc, reclaimer = setup
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        before = proc.vmm.stats.identity_bytes
        reclaimer.reclaim_allocation(proc, alloc)
        reclaimer.swap_in_allocation(proc, alloc)
        reclaimer.reestablish_identity(proc, alloc)
        assert proc.vmm.stats.identity_bytes == before
