"""Run-scale guard: skeleton-bound batches share one run stream.

A :class:`~repro.sim.fastpath.TraceRunSkeleton` keeps 12 bytes per page
run: the int64 run heads and the int32 run -> page index.  Every other
run quantity is derived from the heads and the trace's own store column.
A batch bound from the skeleton holds no run-scale array of its own:
its run heads and run -> page index are the skeleton's, shared by
identity across layouts and configurations, and screens, batched
kernels and fault pre-delivery read runs through that index plus
page-scale tables and addresses through ``va_at``.  Only the scalar
fallback may build the per-access VA column.  These tests run a graph
workload through every standard configuration (fault-free) and through
the demand / swap fault modes whose faults are pre-delivered, and check
that the cached batches still hold no address column and no per-layout
run column, that the skeleton stays within 12 bytes per run, that the
results equal the scalar engine's, and that the chaos hook still fires
when an injector is configured.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.accel.algorithms import run_workload
from repro.common import faults
from repro.core.config import demand_faulting_config, standard_configs
from repro.graphs.rmat import rmat_graph
from repro.sim import _native
from repro.sim.fastpath import PageRunBatch, TraceRunSkeleton
from repro.sim.system import HeterogeneousSystem, SystemParams

MB = 1 << 20

#: (configuration, fault mode): every configuration fault-free, plus
#: the pre-delivered demand page-in and swap-in modes.
CONFIGS = ("conv_4k", "conv_2m", "conv_1g", "dvm_bm", "dvm_pe",
           "dvm_pe_plus", "ideal")
CASES = [(name, "none") for name in CONFIGS]
CASES += [("conv_4k", "demand"), ("dvm_pe", "swap"), ("dvm_bm", "swap")]


#: Skeletons exist only where the compiled scan does; a host without the
#: kernel concretizes every batch and runs it on the scalar loops.
needs_kernel = pytest.mark.skipif(not _native.available(),
                                  reason="no C compiler for the kernel")


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


@needs_kernel
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


def _held_arrays(obj, skip=("_lazy",)):
    """Every array ``obj`` holds in its slots (``skip`` aside), also
    inside tuples."""
    stack = [getattr(obj, slot) for slot in type(obj).__slots__
             if slot not in skip]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            stack.extend(value)


@needs_kernel
def test_skeleton_keeps_twelve_bytes_per_run(workload):
    _, trace = workload
    skel = TraceRunSkeleton(trace)
    m = skel.starts.shape[0]
    # A page-scale array must not pass for a run-scale one.
    assert skel.uidx.max() + 1 < m
    trace_columns = (trace.streams, trace.offsets, trace.writes)
    run_scale = [array for array in _held_arrays(skel, skip=())
                 if array.ndim and array.shape[0] == m
                 and not any(np.shares_memory(array, column)
                             for column in trace_columns)]
    assert sum(array.nbytes for array in run_scale) <= 12 * m


@needs_kernel
def test_configs_share_one_run_stream(workload):
    graph, trace = workload
    cache: dict = {}
    for name in CONFIGS:
        boot(name, "none", graph).run_trace(trace, engine="fast",
                                            batch_cache=cache)
    skels = [v for v in cache.values() if isinstance(v, TraceRunSkeleton)]
    batches = [v for v in cache.values() if isinstance(v, PageRunBatch)]
    assert len(skels) == 1 and len(batches) > 1   # several layouts
    skel = skels[0]
    shared = (skel.starts, skel.uidx)
    for batch in batches:
        assert batch._lazy[0] is skel
        own = (batch.starts, batch.unique_pages()[1])
        for got, want in zip(own, shared):
            assert np.shares_memory(got, want)
        # Derived run columns are computed per request, never held.
        for derived in (batch.lengths, batch.run_writes, batch.head_writes):
            assert not any(np.shares_memory(derived, array)
                           for array in _held_arrays(batch))
        # No per-layout run column: no pages, index or head-VA array.
        for array in _held_arrays(batch):
            if array.ndim and array.shape[0] == batch.num_runs:
                assert any(np.shares_memory(array, col)
                           for col in shared + (skel.writes,))


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
