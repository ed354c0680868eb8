"""The heterogeneous system: kernel + process + accelerator + IOMMU.

One :class:`HeterogeneousSystem` instance embodies one MMU configuration:
it boots a kernel with the configuration's OS policy, spawns the host
process (with conventional code/data/stack segments — the accelerator only
touches the heap, Section 4.3), places a graph in the process's heap, and
runs symbolic traces through the configuration's IOMMU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.layout import GraphLayout, identity_fraction, place_graph
from repro.accel.trace import SymbolicTrace
from repro.core.config import MMUConfig
from repro.graphs.csr import CSRGraph
from repro.hw.bitmap import PermissionBitmap
from repro.hw.dram import DRAMModel
from repro.hw.fault_queue import FaultPath
from repro.hw.iommu import IOMMU, TimingStats
from repro.kernel.fault import FaultHandler
from repro.kernel.kernel import Kernel
from repro.kernel.reclaim import Reclaimer
from repro.obs import core as obs_core
from repro.obs import record as obs_record
from repro.obs import trace as obs_trace
from repro.sim.metrics import DEFAULT_MLP, Metrics, metrics_from

#: Default physical memory for accelerator experiments.  The paper's box
#: has 32 GB (Table 2); scaled workloads fit comfortably in 2 GB.
DEFAULT_PHYS_BYTES = 2 << 30


@dataclass
class SystemParams:
    """Machine-level knobs shared across configurations."""

    phys_bytes: int = DEFAULT_PHYS_BYTES
    mlp: int = DEFAULT_MLP
    data_latency: int = 100
    walk_latency: int = 70
    seed: int = 0


class HeterogeneousSystem:
    """One booted machine under one MMU configuration."""

    def __init__(self, config: MMUConfig, params: SystemParams | None = None):
        self.config = config
        self.params = params or SystemParams()
        self.perm_bitmap = (
            PermissionBitmap(cache_blocks=config.bitmap_cache_blocks)
            if config.mech == "dvm_bm" else None
        )
        factory = None
        if self.perm_bitmap is not None:
            bitmap = self.perm_bitmap
            factory = lambda kernel, process: bitmap  # noqa: E731
        self.kernel = Kernel(phys_bytes=self.params.phys_bytes,
                             policy=config.policy, seed=self.params.seed,
                             perm_bitmap_factory=factory)
        self.process = self.kernel.spawn(name=f"host-{config.name}")
        self.process.setup_segments()
        self.dram = DRAMModel(data_latency=self.params.data_latency,
                              walk_latency=self.params.walk_latency)
        self.iommu = IOMMU(config, self.process.page_table, self.dram,
                           perm_bitmap=self.perm_bitmap)
        self.fault_handler = FaultHandler(self.kernel, self.process)
        self.iommu.attach_fault_path(FaultPath(self.fault_handler,
                                               config=config.name))
        self.layout: GraphLayout | None = None

    # -- workload placement ------------------------------------------------------

    def load_graph(self, graph: CSRGraph, prop_bytes: int = 8) -> GraphLayout:
        """Allocate the graph's arrays on the process heap."""
        self.layout = place_graph(self.process, graph, prop_bytes=prop_bytes)
        # The page tables just changed shape; drop any memoized walks.
        if self.iommu.walker is not None:
            self.iommu.walker.invalidate()
        return self.layout

    # -- memory pressure ---------------------------------------------------------

    def apply_reclaim_pressure(self, fraction: float) -> int:
        """Swap out ``fraction`` of the process's mapped heap bytes.

        Installs the kernel's :class:`~repro.kernel.reclaim.Reclaimer` if
        absent, reclaims identity allocations largest-first, and performs
        the IOTLB shootdown the OS would issue (TLBs, walker memo, walk
        and bitmap caches).  Subsequent accelerator accesses to the
        swapped pages fault and are serviced through the recoverable
        fault path — the experiment behind the paper's Section 4.3
        argument.  Returns the bytes actually reclaimed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if self.kernel.reclaimer is None:
            self.kernel.reclaimer = Reclaimer(self.kernel)
        target = int(self.process.vmm.stats.total_bytes * fraction)
        freed = self.kernel.reclaimer.reclaim(self.process, target)
        for tlb in (self.iommu.tlb, self.iommu.tlb_l2):
            if tlb is not None:
                tlb.invalidate_all()
        if self.iommu.walker is not None:
            self.iommu.walker.invalidate()
            self.iommu.walker.cache.invalidate_all()
        if self.perm_bitmap is not None:
            self.perm_bitmap.cache.invalidate_all()
        return freed

    # -- simulation -------------------------------------------------------------

    def run_trace(self, trace: SymbolicTrace, *, engine: str | None = None,
                  batch_cache: dict | None = None) -> TimingStats:
        """Bind a symbolic trace to this layout and run it through the IOMMU.

        ``engine`` selects the timing engine (``"fast"``/``"scalar"``,
        defaulting to the environment selection).  ``batch_cache`` is an
        optional dict shared by the caller across configurations: two
        configurations whose layouts concretize the trace to the same
        addresses reuse one :class:`~repro.sim.fastpath.PageRunBatch`,
        and differing layouts still share the per-trace
        :class:`~repro.sim.fastpath.TraceRunSkeleton`, so the
        access-scale pre-pass is paid once per trace.
        """
        if self.layout is None:
            raise RuntimeError("load_graph() must be called before run_trace()")
        from repro.sim import fastpath
        selected = engine if engine is not None else fastpath.default_engine()
        if selected == "fast":
            batch = fastpath.batch_for(trace, self.layout, batch_cache)
            return self.iommu.run_batch(batch)
        addrs, writes = trace.concretize(self.layout.stream_bases)
        return self.iommu.run_trace(addrs, writes, engine=selected)

    def run(self, trace: SymbolicTrace, *, workload: str = "",
            graph: str = "", engine: str | None = None,
            batch_cache: dict | None = None) -> Metrics:
        """Run a trace and assemble the experiment metrics."""
        with obs_trace.span("timing", cat="phase", config=self.config.name,
                            workload=workload, graph=graph):
            timing = self.run_trace(trace, engine=engine,
                                    batch_cache=batch_cache)
        ident = identity_fraction(self.process, self.layout)
        metrics = metrics_from(
            timing, self.dram,
            config=self.config.name, workload=workload, graph=graph,
            mlp=self.params.mlp, identity_fraction=ident,
            heap_bytes=self.layout.heap_bytes,
            page_table_bytes=self.process.page_table.table_bytes(),
        )
        if obs_core.ENABLED:
            obs_record.record_system_run(self, metrics)
        return metrics
