"""Acceptance chaos proof: the full Figure 8 sweep survives injected
worker crashes, cache corruption, compile failures and allocator OOM —
and its metrics stay bit-identical to a fault-free serial run.

The seed matrix comes from ``REPRO_CHAOS_SEEDS`` (comma-separated;
``make chaos`` widens it), so the same tests double as the nightly
chaos battery without code changes.
"""

from __future__ import annotations

import os

import pytest

from repro.common import faults
from repro.core.config import HardwareScale
from repro.experiments import figure8
from repro.graphs.datasets import WORKLOAD_PAIRS
from repro.sim.resilience import RetryPolicy
from repro.sim.runner import ExperimentRunner

#: Every fault class from the acceptance criterion, at seeded rates.
#: alloc_oom is capped: each fire forces a discard-and-rerun of a whole
#: pair computation, so uncapped rates would only cost time, not coverage.
CHAOS_SPEC = ("worker_crash:0.3,worker_exit:0.1,cache_corrupt:0.3,"
              "compile_fail:0.5,alloc_oom:0.02:3")

SEEDS = [int(s) for s in
         os.environ.get("REPRO_CHAOS_SEEDS", "0,1").split(",") if s.strip()]

FAST_RETRY = RetryPolicy(base_delay=0.0, max_delay=0.0)


def bench_runner(**kw):
    kw.setdefault("retry", FAST_RETRY)
    return ExperimentRunner(profile="bench", scale=HardwareScale.bench(),
                            **kw)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial sweep over all 15 workload/dataset pairs."""
    faults.reset()
    out = ExperimentRunner(
        profile="bench", scale=HardwareScale.bench()).run_pairs()
    return {key: m.to_dict() for key, m in out.items()}


@pytest.fixture(scope="module")
def chaos_sweep(baseline, tmp_path_factory):
    """``chaos_sweep(seed)``: the 4-worker chaos sweep at ``seed``, run
    once per module and shared by every test that reads it.  Returns its
    merged output, the cache directory it left behind and the
    injector's fire counts."""
    done = {}

    def sweep(seed):
        if seed not in done:
            cache_dir = tmp_path_factory.mktemp(f"chaos-s{seed}")
            faults.configure(CHAOS_SPEC, seed=seed)
            try:
                out = bench_runner(cache_dir=str(cache_dir)).run_pairs(
                    workers=4)
                fired = faults.injector().fire_counts()
            finally:
                faults.configure(None)
            done[seed] = (out, cache_dir, fired)
        return done[seed]

    return sweep


@pytest.mark.parametrize("seed", SEEDS)
def test_full_sweep_bit_identical_under_chaos(seed, baseline, chaos_sweep):
    out, _, fired = chaos_sweep(seed)
    assert list(out) == list(baseline)
    for key in baseline:
        assert out[key].to_dict() == baseline[key], key
    assert sum(fired.values()) > 0, "chaos run injected nothing"


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_figure8_rendering_matches_under_chaos(seed, baseline):
    faults.reset()
    clean = figure8.render(figure8.figure8(
        bench_runner(), pairs=WORKLOAD_PAIRS))
    faults.configure(CHAOS_SPEC, seed=seed)
    chaotic = figure8.render(figure8.figure8(
        bench_runner(), pairs=WORKLOAD_PAIRS))
    assert chaotic == clean


def test_chaos_cache_survives_a_second_reader(baseline, chaos_sweep):
    # Whatever a chaos run left on disk (including corrupted artifacts)
    # must heal transparently for the next, fault-free reader.
    _, cache_dir, _ = chaos_sweep(SEEDS[0])
    faults.configure(None)
    out = bench_runner(cache_dir=str(cache_dir)).run_pairs()
    for key in baseline:
        assert out[key].to_dict() == baseline[key], key
