"""Extension experiment: multiplexing the accelerator between processes.

The paper motivates DVM's protection story with accelerators "multiplexed
among multiple processes" (Section 1) but never measures switching.  This
experiment does: two processes run the same workload, the IOMMU context
switches between them every *slice*, and the slowdown versus an unswitched
run is reported per configuration.

The mechanism under test: a context switch flushes the IOMMU's lookup
structures; what refill costs afterwards depends on the structure's
working set.  PE-compacted tables refill a 1 KB AVC in a handful of
misses, while a conventional configuration must re-walk for every TLB
entry it lost — so DVM makes fine-grained accelerator sharing cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.algorithms import prop_bytes_for
from repro.core.config import MMUConfig
from repro.experiments.reporting import render_table
from repro.sim.metrics import execution_cycles
from repro.sim.runner import ExperimentRunner
from repro.sim.system import HeterogeneousSystem


@dataclass
class MultiplexRow:
    """One configuration's switching cost."""

    config: str
    slices: int
    unswitched_cycles: float
    switched_cycles: float

    @property
    def slowdown(self) -> float:
        """Switched time over unswitched time."""
        return (self.switched_cycles / self.unswitched_cycles
                if self.unswitched_cycles else 0.0)

    @property
    def cycles_per_switch(self) -> float:
        """Absolute refill cost of one context switch, in cycles."""
        if not self.slices:
            return 0.0
        return max(0.0, (self.switched_cycles - self.unswitched_cycles)
                   / self.slices)


def _timed(iommu, dram, mlp, addrs, writes) -> float:
    stats = iommu.run_trace(addrs, writes)
    cycles, _ideal = execution_cycles(stats, dram, mlp)
    return cycles


def multiplex_run(runner: ExperimentRunner, config: MMUConfig, *,
                  workload: str = "pagerank", dataset: str = "LJ",
                  slices: int = 16) -> MultiplexRow:
    """Measure one configuration's cost of slice-wise process switching."""
    from repro.accel.layout import place_graph
    from repro.hw.dram import DRAMModel
    from repro.hw.iommu import IOMMU

    prepared = runner.prepare(workload, dataset)
    prop_bytes = prop_bytes_for(workload)
    # Two tenant processes on one machine, same graph each.
    system = HeterogeneousSystem(config, runner.params)
    layout_a = system.load_graph(prepared.graph, prop_bytes=prop_bytes)
    tenant_b = system.kernel.spawn(name="tenant-b")
    tenant_b.setup_segments()
    layout_b = place_graph(tenant_b, prepared.graph, prop_bytes=prop_bytes)
    addrs_a, writes = prepared.result.trace.concretize(layout_a.stream_bases)
    addrs_b, _ = prepared.result.trace.concretize(layout_b.stream_bases)
    bitmap = system.perm_bitmap  # one kernel-wide bitmap covers both tenants
    mlp = system.params.mlp
    # Unswitched baseline: each tenant runs its whole trace on a fresh
    # IOMMU; the switched run executes half of each, so the comparable
    # baseline is the average (this controls for per-tenant page-table
    # block-placement differences).
    baseline_a = IOMMU(config, system.process.page_table, DRAMModel(),
                       perm_bitmap=bitmap)
    baseline_b = IOMMU(config, tenant_b.page_table, DRAMModel(),
                       perm_bitmap=bitmap)
    unswitched = (
        _timed(baseline_a, baseline_a.dram, mlp, addrs_a, writes)
        + _timed(baseline_b, baseline_b.dram, mlp, addrs_b, writes)
    ) / 2
    # Alternate slices A/B with a context switch between each.
    shared = IOMMU(config, system.process.page_table, DRAMModel(),
                   perm_bitmap=bitmap)
    bounds = np.linspace(0, len(addrs_a), slices + 1, dtype=np.int64)
    switched = 0.0
    for i in range(slices):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if i % 2 == 0:
            shared.switch_context(system.process.page_table, bitmap)
            switched += _timed(shared, shared.dram, mlp,
                               addrs_a[lo:hi], writes[lo:hi])
        else:
            shared.switch_context(tenant_b.page_table, bitmap)
            switched += _timed(shared, shared.dram, mlp,
                               addrs_b[lo:hi], writes[lo:hi])
    return MultiplexRow(config=config.name, slices=slices,
                        unswitched_cycles=unswitched,
                        switched_cycles=switched)


def multiplexing(runner: ExperimentRunner | None = None, *,
                 slices: int = 16,
                 config_names=("conv_4k", "conv_2m", "dvm_bm", "dvm_pe",
                               "dvm_pe_plus")) -> list[MultiplexRow]:
    """The switching study across configurations."""
    runner = runner or ExperimentRunner()
    configs = runner.configs()
    return [multiplex_run(runner, configs[name], slices=slices)
            for name in config_names]


def render(rows: list[MultiplexRow]) -> str:
    """Render the multiplexing table."""
    table_rows = [
        [r.config, str(r.slices), f"{r.slowdown:.4f}",
         f"{(r.slowdown - 1) * 100:.2f}%", f"{r.cycles_per_switch:,.0f}"]
        for r in rows
    ]
    return render_table(
        ["Config", "Slices", "Switched / unswitched", "Relative cost",
         "Cycles / switch"],
        table_rows,
        title=("Extension: accelerator multiplexing between two processes "
               "(context switch flushes the IOMMU structures).  Relative "
               "cost flatters slow baselines; compare absolute cycles."),
    )


def main(profile: str = "full") -> str:
    """Regenerate the multiplexing table."""
    runner = ExperimentRunner.from_env(profile=profile)
    text = render(multiplexing(runner))
    print(text)
    return text


if __name__ == "__main__":
    main()
