"""Recoverable guest faults at system level: every configuration
services faults mid-trace, fault costs reach the metrics, violations
stay contained, and fault-free runs are untouched."""

import dataclasses

import pytest

from repro.common.errors import AccessViolation, ProtectionFault
from repro.common.perms import Perm
from repro.core.config import (HardwareScale, demand_faulting_config,
                               standard_configs, two_level_tlb_config)
from repro.sim.metrics import execution_cycles, metrics_from
from repro.sim.runner import ExperimentRunner
from repro.sim.system import HeterogeneousSystem

SCALE = HardwareScale.bench()
PAIR = ("bfs", "FR")

FAULTING_CONFIGS = ("conv_4k", "conv_2m", "conv_1g", "dvm_bm", "dvm_pe",
                    "dvm_pe_plus")

#: Configurations whose heap is identity-mapped (reclaim victims).
IDENTITY_CONFIGS = ("dvm_bm", "dvm_pe", "dvm_pe_plus")

#: Conventional configurations (demand-faulting applies to these).
CONVENTIONAL_CONFIGS = ("conv_4k", "conv_2m", "conv_1g")


@pytest.fixture(scope="module")
def prepared():
    runner = ExperimentRunner(profile="bench", scale=SCALE)
    return runner, runner.prepare(*PAIR)


def build_system(config, runner, prepared_pair):
    system = HeterogeneousSystem(config, runner.params)
    system.load_graph(prepared_pair.graph)
    return system


class TestFaultRecoveryAllConfigs:
    """Satellite: every translation mechanism's fault sites recover."""

    @pytest.mark.parametrize("name", IDENTITY_CONFIGS)
    def test_reclaimed_heap_faults_and_recovers(self, name, prepared):
        # Reclaim victims are identity allocations, so the swap-fault
        # path is reachable exactly under the DVM configurations.
        runner, pair = prepared
        system = build_system(standard_configs(SCALE)[name], runner, pair)
        assert system.apply_reclaim_pressure(1.0) > 0
        timing = system.run_trace(pair.result.trace)
        assert timing.faults > 0
        assert timing.swap_faults > 0
        assert timing.fault_stall_cycles > 0
        assert system.iommu.fault_path.stats.serviced > 0
        assert system.fault_handler.stats.violations == 0

    @pytest.mark.parametrize("name", CONVENTIONAL_CONFIGS)
    def test_demand_faulting_heap_faults_and_recovers(self, name, prepared):
        # Conventional heaps are never identity-mapped; their fault sites
        # are exercised by true demand paging instead.
        runner, pair = prepared
        config = demand_faulting_config(standard_configs(SCALE)[name])
        system = build_system(config, runner, pair)
        timing = system.run_trace(pair.result.trace)
        assert timing.faults > 0
        assert timing.major_faults > 0
        assert timing.fault_stall_cycles > 0
        assert system.fault_handler.stats.violations == 0

    def test_two_level_tlb_config_recovers(self, prepared):
        runner, pair = prepared
        config = demand_faulting_config(two_level_tlb_config(SCALE))
        system = build_system(config, runner, pair)
        timing = system.run_trace(pair.result.trace)
        assert timing.major_faults > 0

    def test_ideal_never_faults(self, prepared):
        # Ideal performs no translation or checks; reclaim pressure is
        # invisible to it (direct physical access).
        runner, pair = prepared
        system = build_system(standard_configs(SCALE)["ideal"], runner, pair)
        timing = system.run_trace(pair.result.trace)
        assert timing.faults == 0
        assert timing.fault_stall_cycles == 0

    def test_demand_faulting_config_takes_major_faults(self, prepared):
        runner, pair = prepared
        config = demand_faulting_config(standard_configs(SCALE)["conv_4k"])
        system = build_system(config, runner, pair)
        timing = system.run_trace(pair.result.trace)
        assert timing.major_faults > 0
        assert timing.swap_faults == 0


class TestEngineEquivalenceUnderFaults:
    def test_fast_engine_falls_back_and_matches_scalar(self, prepared):
        # A trace that faults on every page replays on the fast path by
        # delivering the faults through the real machinery; both engine
        # selections must agree bit-for-bit.
        runner, pair = prepared
        results = []
        for engine in ("fast", "scalar"):
            system = build_system(standard_configs(SCALE)["dvm_pe"],
                                  runner, pair)
            system.apply_reclaim_pressure(1.0)
            results.append(system.run_trace(pair.result.trace,
                                            engine=engine))
        fast, scalar = results
        assert dataclasses.asdict(fast) == dataclasses.asdict(scalar)
        assert fast.faults > 0


class TestMetricsWiring:
    def test_fault_stall_reaches_execution_cycles(self, prepared):
        runner, pair = prepared
        config = standard_configs(SCALE)["dvm_pe"]
        clean = build_system(config, runner, pair)
        clean_timing = clean.run_trace(pair.result.trace)
        faulty = build_system(config, runner, pair)
        faulty.apply_reclaim_pressure(1.0)
        faulty_timing = faulty.run_trace(pair.result.trace)
        clean_cycles, _ = execution_cycles(clean_timing, clean.dram,
                                           mlp=clean.params.mlp)
        faulty_cycles, _ = execution_cycles(faulty_timing, faulty.dram,
                                            mlp=faulty.params.mlp)
        assert faulty_cycles >= clean_cycles + faulty_timing.fault_stall_cycles

    def test_metrics_carry_fault_counters(self, prepared):
        runner, pair = prepared
        system = build_system(standard_configs(SCALE)["dvm_pe"],
                              runner, pair)
        system.apply_reclaim_pressure(1.0)
        timing = system.run_trace(pair.result.trace)
        metrics = metrics_from(timing, system.dram, config="dvm_pe",
                               workload=PAIR[0], graph=PAIR[1],
                               mlp=system.params.mlp)
        assert metrics.faults == timing.faults > 0
        assert metrics.fault_stall_cycles == timing.fault_stall_cycles > 0

    def test_fault_service_energy_charged(self, prepared):
        runner, pair = prepared
        system = build_system(standard_configs(SCALE)["dvm_pe"],
                              runner, pair)
        system.apply_reclaim_pressure(1.0)
        timing = system.run_trace(pair.result.trace)
        assert timing.energy.breakdown_pj().get("fault_service", 0) > 0


class TestFaultFreeRunsUntouched:
    def test_clean_trace_reports_zero_faults(self, prepared):
        runner, pair = prepared
        for name in FAULTING_CONFIGS + ("ideal",):
            system = build_system(standard_configs(SCALE)[name],
                                  runner, pair)
            timing = system.run_trace(pair.result.trace)
            assert timing.faults == 0, name
            assert timing.fault_stall_cycles == 0, name
            assert system.iommu.fault_path.stats.delivered == 0, name
            assert timing.energy.breakdown_pj().get("fault_service", 0) \
                == 0, name

    def test_fault_path_attachment_is_timing_neutral(self, prepared):
        # The recoverable path must cost nothing unless a fault fires:
        # a system with the path attached and one with it detached
        # produce bit-identical stats on a clean trace.
        runner, pair = prepared
        config = standard_configs(SCALE)["conv_4k"]
        attached = build_system(config, runner, pair)
        detached = build_system(config, runner, pair)
        detached.iommu.fault_path = None
        a = attached.run_trace(pair.result.trace)
        b = detached.run_trace(pair.result.trace)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestViolationContainment:
    def test_true_violation_escalates_structured(self, prepared):
        runner, pair = prepared
        system = build_system(standard_configs(SCALE)["conv_4k"],
                              runner, pair)
        frozen = system.process.vmm.mmap(1 << 20, Perm.READ_ONLY,
                                         name="frozen")
        with pytest.raises(AccessViolation) as exc_info:
            system.iommu.run_trace([frozen.va], [1])
        record = exc_info.value.record
        assert record.va == frozen.va
        assert record.access == "w"
        assert record.config == "conv_4k"
        assert system.iommu.fault_path.stats.violations == 1

    def test_violation_still_catchable_as_protection_fault(self, prepared):
        runner, pair = prepared
        system = build_system(standard_configs(SCALE)["dvm_pe"],
                              runner, pair)
        frozen = system.process.vmm.mmap(1 << 20, Perm.READ_ONLY)
        with pytest.raises(ProtectionFault):
            system.iommu.run_trace([frozen.va], [1])

    def test_reclaim_fraction_validated(self, prepared):
        runner, pair = prepared
        system = build_system(standard_configs(SCALE)["dvm_pe"],
                              runner, pair)
        with pytest.raises(ValueError):
            system.apply_reclaim_pressure(1.5)
