"""Derived per-run instrumentation: the bridge from simulator state to obs.

The hard constraint on the observability subsystem is that the timing
engines stay untouched: no per-access hook may run inside the IOMMU
loops or the vectorized fast path.  Everything the paper's Section 6
distributions need is instead *derived here, once per trace run*, from
state the engines already maintain:

* **walk-depth distribution** — the walker memo maps each walked page to
  its :class:`~repro.hw.walker.WalkInfo`, whose block list length (plus
  the fixed L1 fetches) is exactly the pointer-chase depth the timing
  loops charged.  One pass over the memo after the run yields the
  distribution over distinct walked pages.
* **AVC / PWC behaviour** — ``TimingStats`` carries the exact SRAM
  lookup and memory-fetch totals per trace; the AVC hit rate for DAV
  configurations is ``1 - walk_mem / walk_sram`` (op-for-op what the
  scalar loop's cache accounting computes).
* **fault-service latency** — each recoverable fault's PRI stall cycles
  are observed at the delivery site (:mod:`repro.hw.fault_queue`), a
  path that is cold by design.

Because recording is read-only over already-final state, enabling
observability cannot change a single simulated cycle — the equivalence
suite (``tests/obs/test_obs_equivalence.py``) pins metrics bit-identical
with the subsystem on and off.
"""

from __future__ import annotations

from repro.obs import core, trace

#: DAV mechanisms, whose walk cache is the paper's AVC.
_DAV_MECHS = ("dvm_pe", "dvm_pe_plus")


def record_trace_run(iommu, stats) -> None:
    """Fold one completed trace run's statistics into the registry.

    Called by :class:`~repro.hw.iommu.IOMMU` after either engine
    finishes a trace (no-op unless observability is enabled).  ``stats``
    is the run's final :class:`~repro.hw.iommu.TimingStats`.
    """
    if not core.ENABLED:
        return
    reg = core.REGISTRY
    config = iommu.config.name
    mech = iommu.config.mech
    reg.counter("iommu.accesses", config=config).inc(stats.accesses)
    reg.counter("iommu.walks", config=config).inc(stats.walks)
    reg.counter("iommu.mem_stall_cycles",
                config=config).inc(stats.mem_stall_cycles)
    reg.counter("iommu.sram_stall_cycles",
                config=config).inc(stats.sram_stall_cycles)
    if stats.tlb_lookups:
        reg.counter("tlb.lookups", config=config).inc(stats.tlb_lookups)
        reg.counter("tlb.misses", config=config).inc(stats.tlb_misses)
    if stats.bitmap_lookups:
        reg.counter("bitmap.lookups", config=config).inc(stats.bitmap_lookups)
        reg.counter("bitmap.mem_fetches",
                    config=config).inc(stats.bitmap_mem_accesses)
    if stats.squashed_preloads:
        reg.counter("dav.squashed_preloads",
                    config=config).inc(stats.squashed_preloads)
    if stats.faults:
        reg.counter("fault.serviced", config=config).inc(stats.faults)
        reg.counter("fault.stall_cycles",
                    config=config).inc(stats.fault_stall_cycles)
    # AVC (DAV configs): exact per-run hit accounting, plus a histogram
    # of per-run miss rates in permille (power-of-two bins give log-scale
    # resolution where miss rates actually live).
    if mech in _DAV_MECHS and stats.walk_sram_accesses:
        hits = stats.walk_sram_accesses - stats.walk_mem_accesses
        reg.counter("avc.hits", config=config).inc(hits)
        reg.counter("avc.misses", config=config).inc(stats.walk_mem_accesses)
        permille = round(1000 * stats.walk_mem_accesses
                         / stats.walk_sram_accesses)
        reg.histogram("avc.miss_permille", config=config).observe(permille)
    elif stats.walk_sram_accesses:
        reg.counter("pwc.sram_lookups",
                    config=config).inc(stats.walk_sram_accesses)
        reg.counter("pwc.mem_fetches",
                    config=config).inc(stats.walk_mem_accesses)
    # Walk-depth distribution over distinct walked pages, read from the
    # walker memo the run just populated.
    walker = getattr(iommu, "walker", None)
    if walker is not None and walker._memo:
        depth_hist = reg.histogram("walk.depth", config=config)
        for info in walker._memo.values():
            # PWC-eligible levels + fixed L1 fetches = pointer-chase depth.
            depth_hist.observe(len(info[4]) + info[5])


def record_system_run(system, metrics) -> None:
    """Fold one :meth:`HeterogeneousSystem.run`'s machine-level state in.

    Records DRAM traffic (as a delta since the last recording on this
    system, so reused systems never double count), the layout's identity
    fraction and the page-table footprint.
    """
    if not core.ENABLED:
        return
    reg = core.REGISTRY
    config = system.config.name
    snap = system.dram.stats.to_dict()
    mark = getattr(system, "_obs_dram_mark", {})
    for key, value in snap.items():
        reg.counter(f"dram.{key}", config=config).inc(
            value - mark.get(key, 0))
    system._obs_dram_mark = snap
    reg.histogram("layout.identity_permille", config=config).observe(
        round(1000 * metrics.identity_fraction))
    reg.histogram("kernel.page_table_bytes", config=config).observe(
        metrics.page_table_bytes)


def record_fault_service(config: str, kind: str, stall_cycles: int,
                         va: int, access: str) -> None:
    """Observe one serviced recoverable guest fault (cold path).

    Called from :meth:`repro.hw.fault_queue.FaultPath.deliver` — the
    fault-service latency histogram is the paper's "microseconds to
    milliseconds" cost, measured per fault.
    """
    if not core.ENABLED:
        return
    reg = core.REGISTRY
    reg.counter("fault.kind", kind=kind, config=config).inc()
    reg.histogram("fault.latency_cycles", config=config).observe(stall_cycles)
    trace.instant("fault-service", cat="fault",
                  config=config, kind=kind, access=access,
                  page=va >> 12, stall_cycles=stall_cycles)


def record_fastpath(mech: str, accepted: bool,
                    reason: str | None = None) -> None:
    """Count a fast-engine batch acceptance or scalar fallback.

    Refusals attribute the fallback to the engine's refusal ``reason``
    so ``python -m repro obs`` shows *why* traces left the fast path.
    """
    if not core.ENABLED:
        return
    reg = core.REGISTRY
    name = "fastpath.accepted" if accepted else "fastpath.fallbacks"
    reg.counter(name, mech=mech).inc()
    if not accepted and reason is not None:
        reg.counter(f"fastpath.refused.{reason}", mech=mech).inc()
