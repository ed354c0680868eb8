"""Run-scale guard: skeleton-bound batches never build their address column.

A batch bound from a :class:`~repro.sim.fastpath.TraceRunSkeleton` stays
run-scale from bind to replay: screens, batched kernels and fault
pre-delivery read run columns and ``va_at``.  Only the scalar fallback
may build the per-access VA column.  These tests
run a graph workload through every standard configuration (fault-free)
and through the demand / swap fault modes whose faults are pre-delivered,
and check that the cached batches still hold no address column, that
the results equal the scalar engine's, and that the chaos hook still
fires when an injector is configured.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.accel.algorithms import run_workload
from repro.common import faults
from repro.core.config import demand_faulting_config, standard_configs
from repro.graphs.rmat import rmat_graph
from repro.sim.fastpath import PageRunBatch
from repro.sim.system import HeterogeneousSystem, SystemParams

MB = 1 << 20

#: (configuration, fault mode): every configuration fault-free, plus
#: the pre-delivered demand page-in and swap-in modes.
CASES = [(name, "none") for name in ("conv_4k", "conv_2m", "conv_1g",
                                      "dvm_bm", "dvm_pe", "dvm_pe_plus",
                                      "ideal")]
CASES += [("conv_4k", "demand"), ("dvm_pe", "swap"), ("dvm_bm", "swap")]


@pytest.fixture(scope="module")
def workload():
    graph = rmat_graph(scale=10, edge_factor=8, seed=30)
    return graph, run_workload("bfs", graph).trace


def boot(name: str, mode: str, graph) -> HeterogeneousSystem:
    config = standard_configs()[name]
    if mode == "demand":
        config = demand_faulting_config(config)
    system = HeterogeneousSystem(config, SystemParams(phys_bytes=256 * MB))
    system.load_graph(graph)
    if mode == "swap":
        assert system.apply_reclaim_pressure(0.5) > 0
    return system


def run(name, mode, workload, engine, cache=None):
    graph, trace = workload
    return boot(name, mode, graph).run_trace(trace, engine=engine,
                                             batch_cache=cache)


@pytest.mark.parametrize("name,mode", CASES)
def test_fast_run_keeps_batches_run_scale(name, mode, workload):
    cache: dict = {}
    fast = run(name, mode, workload, "fast", cache)
    batches = [v for v in cache.values() if isinstance(v, PageRunBatch)]
    assert batches
    for batch in batches:
        assert batch._lazy is not None     # bound from the skeleton
        assert batch._addrs is None        # ... and never concretized
    assert asdict(fast) == asdict(run(name, mode, workload, "scalar"))
    if mode != "none":
        assert fast.faults > 0


@pytest.mark.parametrize("name,mode", CASES)
def test_chaos_hook_still_fires(name, mode, workload):
    def chaos_run(engine):
        injector = faults.configure("page_fault:1.0:1", seed=0)
        try:
            stats = run(name, mode, workload, engine, {})
        finally:
            faults.configure(None)
        return stats, injector.fire_counts()

    fast, fired = chaos_run("fast")
    scalar, scalar_fired = chaos_run("scalar")
    assert asdict(fast) == asdict(scalar)
    # ``ideal`` has no translation to fault, so the hook stays silent.
    assert fired == scalar_fired
    assert fired.get("page_fault", 0) == (name != "ideal")
    if name != "ideal":
        assert fast.faults > 0
