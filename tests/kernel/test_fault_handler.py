"""Kernel-side guest fault servicing (repro.kernel.fault) and the
demand-faulting allocation policy, plus swap roundtrip invariants."""

import pytest

from repro.common.consts import PAGE_SIZE
from repro.common.perms import Perm
from repro.hw.bitmap import PermissionBitmap
from repro.kernel.fault import FaultHandler
from repro.kernel.kernel import Kernel
from repro.kernel.reclaim import Reclaimer
from repro.kernel.vm_syscalls import MemPolicy

MB = 1 << 20
PHYS = 256 * MB


def boot(policy, **kernel_kw):
    kernel = Kernel(phys_bytes=PHYS, policy=policy, **kernel_kw)
    proc = kernel.spawn()
    return kernel, proc, FaultHandler(kernel, proc)


def demand_policy(**kw):
    return MemPolicy(mode="conventional", demand_faulting=True, **kw)


class TestMajorFaults:
    def test_demand_policy_leaves_heap_unmapped(self):
        _kernel, proc, _handler = boot(demand_policy())
        alloc = proc.vmm.mmap(4 * MB, Perm.READ_WRITE)
        assert not proc.page_table.walk(alloc.va).ok
        assert alloc.phys_chunks == []

    def test_major_fault_backs_the_page(self):
        _kernel, proc, handler = boot(demand_policy())
        alloc = proc.vmm.mmap(4 * MB, Perm.READ_WRITE)
        assert handler.service(alloc.va + PAGE_SIZE, "w") == "major"
        result = proc.page_table.walk(alloc.va + PAGE_SIZE)
        assert result.ok
        assert result.perm == Perm.READ_WRITE
        assert handler.stats.major == 1
        assert proc.vmm.stats.faulted_chunks == 1

    def test_major_fault_respects_vma_protection(self):
        _kernel, proc, handler = boot(demand_policy())
        alloc = proc.vmm.mmap(4 * MB, Perm.READ_ONLY)
        assert handler.service(alloc.va, "w") is None
        assert handler.stats.violations == 1

    def test_faults_outside_any_allocation_are_violations(self):
        _kernel, proc, handler = boot(demand_policy())
        alloc = proc.vmm.mmap(4 * MB, Perm.READ_WRITE)
        assert handler.service(alloc.va + 64 * MB, "r") is None
        assert handler.stats.violations == 1

    def test_populate_refuses_identity_allocations(self):
        # Identity heaps are eagerly backed; a hole there is corruption,
        # not demand paging.
        _kernel, proc, _handler = boot(MemPolicy(mode="dvm"))
        alloc = proc.vmm.mmap(4 * MB, Perm.READ_WRITE)
        assert alloc.identity
        assert not proc.vmm.populate_for_fault(alloc.va)

    def test_eager_policy_unaffected_by_default(self):
        _kernel, proc, _handler = boot(MemPolicy(mode="conventional"))
        alloc = proc.vmm.mmap(4 * MB, Perm.READ_WRITE)
        assert proc.page_table.walk(alloc.va).ok
        assert proc.vmm.stats.faulted_chunks == 0


class TestSpuriousAndSwap:
    def test_mapped_and_permitted_is_spurious(self):
        _kernel, proc, handler = boot(MemPolicy(mode="dvm"))
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        assert handler.service(alloc.va, "r") == "spurious"
        assert handler.stats.spurious == 1

    def test_mapped_but_denied_is_violation(self):
        _kernel, proc, handler = boot(MemPolicy(mode="dvm"))
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_ONLY)
        assert handler.service(alloc.va, "w") is None

    def test_swapped_page_swapped_back_in(self):
        kernel, proc, handler = boot(MemPolicy(mode="dvm"))
        kernel.reclaimer = Reclaimer(kernel)
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        kernel.reclaimer.reclaim_allocation(proc, alloc)
        va = alloc.va + 3 * PAGE_SIZE
        assert handler.service(va, "w") == "swap"
        result = proc.page_table.walk(va)
        assert result.ok and result.perm == Perm.READ_WRITE
        assert handler.stats.swap == 1

    def test_swapped_page_without_reclaimer_is_violation(self):
        kernel, proc, handler = boot(MemPolicy(mode="dvm"))
        reclaimer = Reclaimer(kernel)  # not installed on the kernel
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        reclaimer.reclaim_allocation(proc, alloc)
        assert kernel.reclaimer is None
        assert handler.service(alloc.va, "r") is None
        assert handler.stats.violations == 1


class TestSwapRoundtripInvariants:
    def setup_dvm(self):
        kernel, proc, handler = boot(MemPolicy(mode="dvm"))
        kernel.reclaimer = Reclaimer(kernel)
        return kernel, proc, handler

    def test_permissions_survive_the_roundtrip(self):
        kernel, proc, _handler = self.setup_dvm()
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_ONLY)
        kernel.reclaimer.reclaim_allocation(proc, alloc)
        kernel.reclaimer.swap_in_allocation(proc, alloc)
        for off in range(0, alloc.size, PAGE_SIZE):
            result = proc.page_table.walk(alloc.va + off)
            assert result.ok and result.perm == Perm.READ_ONLY

    def test_no_frame_double_mapping_after_swap_in(self):
        kernel, proc, _handler = self.setup_dvm()
        victim = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        other = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        kernel.reclaimer.reclaim_allocation(proc, victim)
        kernel.reclaimer.swap_in_allocation(proc, victim)
        frames = []
        for alloc in (victim, other):
            for off in range(0, alloc.size, PAGE_SIZE):
                result = proc.page_table.walk(alloc.va + off)
                assert result.ok
                frames.append(result.pa & ~(PAGE_SIZE - 1))
        assert len(frames) == len(set(frames)), "frame mapped twice"

    def test_memory_balance_after_roundtrip(self):
        kernel, proc, _handler = self.setup_dvm()
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        # Page-table bytes shift during PE -> PTE conversion, so balance
        # the data pool specifically.
        data = kernel.phys.usage.data
        kernel.reclaimer.reclaim_allocation(proc, alloc)
        assert kernel.phys.usage.data == data - 2 * MB
        kernel.reclaimer.swap_in_allocation(proc, alloc)
        assert kernel.phys.usage.data == data

    def test_bitmap_cleared_on_swap_out_and_restored_on_identity(self):
        bitmap = PermissionBitmap()
        kernel = Kernel(phys_bytes=PHYS,
                        policy=MemPolicy(mode="dvm_bitmap", use_pes=False),
                        perm_bitmap_factory=lambda k, p: bitmap)
        kernel.reclaimer = Reclaimer(kernel)
        proc = kernel.spawn()
        alloc = proc.vmm.mmap(2 * MB, Perm.READ_WRITE)
        assert bitmap.lookup(alloc.va).perm == Perm.READ_WRITE
        kernel.reclaimer.reclaim_allocation(proc, alloc)
        # A stale grant would let the IOMMU sail past the swapped page.
        assert bitmap.lookup(alloc.va).perm == Perm.NONE
        kernel.reclaimer.swap_in_allocation(proc, alloc)
        assert kernel.reclaimer.reestablish_identity(proc, alloc)
        assert bitmap.lookup(alloc.va).perm == Perm.READ_WRITE


class TestPopulateChunks:
    @pytest.mark.parametrize("page_size", [PAGE_SIZE, 16 * PAGE_SIZE])
    def test_populates_one_policy_chunk_per_fault(self, page_size):
        _kernel, proc, handler = boot(demand_policy(page_size=page_size))
        alloc = proc.vmm.mmap(32 * page_size, Perm.READ_WRITE)
        assert handler.service(alloc.va + page_size, "r") == "major"
        # The faulted chunk is mapped; the rest of the heap still is not.
        assert proc.page_table.walk(alloc.va + page_size).ok
        assert not proc.page_table.walk(alloc.va + 8 * page_size).ok


class TestOneAllocationLookup:
    """The classifier's allocation reaches the page-in: one lookup a fault."""

    @staticmethod
    def count_lookups(monkeypatch, vmm) -> list[int]:
        calls = [0]
        original = vmm.allocation_at

        def counted(va):
            calls[0] += 1
            return original(va)

        monkeypatch.setattr(vmm, "allocation_at", counted)
        return calls

    def test_service_looks_up_once_per_major_fault(self, monkeypatch):
        _kernel, proc, handler = boot(demand_policy())
        alloc = proc.vmm.mmap(8 * MB, Perm.READ_WRITE)
        calls = self.count_lookups(monkeypatch, proc.vmm)
        for chunk in range(3):
            assert handler.service(alloc.va + chunk * 2 * MB, "w") == "major"
        assert calls[0] == 3
        assert proc.vmm.stats.faulted_chunks == 3

    def test_service_batch_looks_up_once_per_major_fault(self, monkeypatch):
        _kernel, proc, handler = boot(demand_policy())
        alloc = proc.vmm.mmap(8 * MB, Perm.READ_WRITE)
        calls = self.count_lookups(monkeypatch, proc.vmm)
        vas = [alloc.va + chunk * 2 * MB for chunk in range(4)]
        served: list = []
        assert handler.service_batch(vas, ["r"] * 4, served) == 4
        assert served == [(i, "major") for i in range(4)]
        assert calls[0] == 4
        assert handler.stats.major == 4

    def test_populate_for_fault_still_looks_up_alone(self):
        _kernel, proc, _handler = boot(demand_policy())
        alloc = proc.vmm.mmap(4 * MB, Perm.READ_WRITE)
        assert proc.vmm.populate_for_fault(alloc.va + PAGE_SIZE)
        assert proc.page_table.walk(alloc.va + PAGE_SIZE).ok
        assert not proc.vmm.populate_for_fault(alloc.va + 64 * MB)
