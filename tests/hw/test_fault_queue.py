"""Fault path unit behaviour (repro.hw.fault_queue)."""

import pickle
from types import SimpleNamespace

import pytest

from repro.common.consts import PAGE_SIZE
from repro.common.errors import AccessViolation, PageFault, ProtectionFault
from repro.common.perms import Perm
from repro.core.config import demand_faulting_config, standard_configs
from repro.hw.dram import DRAMModel
from repro.hw.fault_queue import ROUND_TRIP_CYCLES, FaultPath
from repro.hw.iommu import IOMMU, TimingStats
from repro.kernel.fault import FaultHandler
from repro.kernel.kernel import Kernel
from repro.kernel.reclaim import Reclaimer

MB = 1 << 20


def make_iommu(outcomes):
    """(conv_4k IOMMU over one mapped RW page with a stub handler, va)."""
    config = standard_configs()["conv_4k"]
    kernel = Kernel(phys_bytes=64 * MB, policy=config.policy)
    proc = kernel.spawn()
    alloc = proc.vmm.mmap(PAGE_SIZE, Perm.READ_WRITE)
    iommu = IOMMU(config, proc.page_table, DRAMModel())
    iommu.attach_fault_path(FaultPath(StubHandler(outcomes),
                                      config=config.name))
    return iommu, alloc.va


def kernel_system(name, demand):
    """A 4 MB heap whose pages all fault: demand-paged or swapped out."""
    config = standard_configs()[name]
    if demand:
        config = demand_faulting_config(config)
    kernel = Kernel(phys_bytes=64 * MB, policy=config.policy)
    proc = kernel.spawn()
    alloc = proc.vmm.mmap(4 * MB, Perm.READ_WRITE)
    if not demand:
        kernel.reclaimer = Reclaimer(kernel)
        kernel.reclaimer.reclaim(proc, alloc.size)
    iommu = IOMMU(config, proc.page_table, DRAMModel())
    handler = FaultHandler(kernel, proc)
    iommu.attach_fault_path(FaultPath(handler, config=config.name))
    return SimpleNamespace(alloc=alloc, iommu=iommu, handler=handler)


class StubHandler:
    """Scripted kernel handler: maps va -> kind (None = violation)."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.calls = []

    def service(self, va, access):
        self.calls.append((va, access))
        return self.outcomes.get(va)


class TestFaultPath:
    def path(self, outcomes):
        handler = StubHandler(outcomes)
        return FaultPath(handler, config="dvm_pe"), handler

    def test_serviced_fault_returns_kind_and_stall(self):
        path, handler = self.path({0x1000: "major"})
        assert path.deliver(0x1000, "w") == "major"
        assert handler.calls == [(0x1000, "w")]
        assert path.stats.serviced == 1
        iommu, va = make_iommu({})
        iommu.fault_path.handler.outcomes[va] = "swap"
        stats = TimingStats()
        iommu._deliver_fault(va, "w", stats)
        assert (stats.faults, stats.swap_faults) == (1, 1)
        assert stats.fault_stall_cycles == ROUND_TRIP_CYCLES

    def test_refused_fault_escalates_to_access_violation(self):
        path, _ = self.path({})  # handler returns None for everything
        with pytest.raises(AccessViolation) as exc_info:
            path.deliver(0xBAD000, "w")
        exc = exc_info.value
        assert exc.record.va == 0xBAD000
        assert exc.record.kind == "perm"
        assert exc.record.config == "dvm_pe"
        assert path.stats.violations == 1

    def test_refused_fault_leaves_the_queue_empty(self):
        # A refused delivery is not in flight: the page's next fault
        # pays the full round trip, no less.
        iommu, va = make_iommu({})
        stats = TimingStats()
        with pytest.raises(AccessViolation):
            iommu._deliver_fault(va, "w", stats)
        assert (stats.faults, stats.fault_stall_cycles) == (0, 0)
        iommu.fault_path.handler.outcomes[va] = "major"
        iommu._deliver_fault(va, "w", stats)
        assert (stats.faults, stats.major_faults) == (1, 1)
        assert stats.fault_stall_cycles == ROUND_TRIP_CYCLES
        assert vars(iommu.fault_path.stats) == {
            "delivered": 2, "serviced": 1, "violations": 1}

    def test_raising_handler_leaves_the_queue_empty(self):
        class Exploding:
            def service(self, va, access):
                raise MemoryError("no frame")

        path = FaultPath(Exploding(), config="dvm_pe")
        with pytest.raises(MemoryError):
            path.deliver(0x1000, "r")
        assert path.stats.delivered == 1
        assert path.stats.serviced == 0

    @pytest.mark.parametrize("name, demand", (("conv_4k", True),
                                              ("dvm_pe", False)))
    def test_batch_delivery_charges_as_per_fault_delivery(self, name,
                                                          demand):
        # The same sites, one by one and in one handler pass: equal
        # fault-path and handler counters, equal TimingStats.
        def run(batch):
            sys_ = kernel_system(name, demand)
            vas = [sys_.alloc.va + page * PAGE_SIZE
                   for page in (0, 3, 7, 64, 65, 500)]
            accesses = ["w", "r", "r", "w", "r", "w"]
            stats = TimingStats()
            if batch:
                assert sys_.iommu._deliver_faults(
                    vas, accesses, stats) == len(vas)
            else:
                for va, access in zip(vas, accesses):
                    sys_.iommu._deliver_fault(va, access, stats)
            return (vars(sys_.iommu.fault_path.stats),
                    vars(sys_.handler.stats), stats)

        one_by_one, batched = run(False), run(True)
        assert one_by_one == batched
        path_stats, handler_stats, stats = batched
        assert path_stats == {"delivered": 6, "serviced": 6,
                              "violations": 0}
        assert handler_stats["major"] + handler_stats["swap"] == 6
        assert stats.fault_stall_cycles == 6 * ROUND_TRIP_CYCLES

    def test_escalate_carries_reason_and_config(self):
        path, _ = self.path({})
        with pytest.raises(AccessViolation, match="injected"):
            path.escalate(0x2000, "r", kind="injected",
                          reason="injected permission violation")

    def test_access_violation_is_a_protection_fault(self):
        # Legacy `except ProtectionFault` handlers keep catching guest
        # violations raised through the recoverable path.
        path, _ = self.path({})
        with pytest.raises(ProtectionFault):
            path.deliver(0x3000, "r")

    def test_violation_survives_pickling(self):
        # Quarantine relies on AccessViolation crossing the process-pool
        # boundary intact (structured record included).
        path, _ = self.path({})
        try:
            path.escalate(0x4000, "w", index=17)
        except AccessViolation as exc:
            clone = pickle.loads(pickle.dumps(exc))
            assert isinstance(clone, AccessViolation)
            assert clone.record.va == 0x4000
            assert clone.record.index == 17
            assert str(clone) == str(exc)
        else:
            pytest.fail("expected AccessViolation")

    def test_legacy_faults_survive_pickling(self):
        for exc in (PageFault(0x1000), ProtectionFault(0x2000, "w")):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert clone.va == exc.va
            assert str(clone) == str(exc)
