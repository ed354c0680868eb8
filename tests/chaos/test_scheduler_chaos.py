"""Sweep-service chaos: every scheduler fault site recovers bit-identically.

Two scales: 220-probe sweeps hammer the scheduler itself (kills,
stalls, torn journal appends) against an exactly-computable expectation,
and bench-profile pair sweeps prove the same invariants — torn-tail
resume, one result per pair under worker crashes — hold on the real
``run_pairs`` path with its cache, journal and observability wiring.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.common import faults
from repro.common.errors import InjectedFault
from repro.core.config import HardwareScale
from repro.obs import core as obs_core
from repro.sim.resilience import ResilienceReport, RetryPolicy
from repro.sim.runner import ExperimentRunner
from repro.sweep.cli import merged_digest, run_probe_sweep
from repro.sweep.tasks import _execute_probe

PAIRS = [("bfs", "FR"), ("pagerank", "FR"), ("sssp", "FR")]
FAST_RETRY = RetryPolicy(base_delay=0.0, max_delay=0.0)
PROBES = 220
PAIR_TIMEOUT = 30.0

#: One spec per parent- or worker-side scheduler fault site (the
#: journal's ``checkpoint_torn`` has its own crash-and-resume test).
SCHEDULER_SITES = [
    "worker_hang:0.02:2",
    "worker_exit:0.02:2",
    "worker_crash:0.05:4",
    "scheduler_stall:0.01:2",
]


@pytest.fixture(autouse=True)
def chaos_env(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_HEARTBEAT", "0.05")
    monkeypatch.setenv("REPRO_HANG_SECONDS", "2.0")


def bench_runner(**kw):
    kw.setdefault("retry", FAST_RETRY)
    return ExperimentRunner(profile="bench", scale=HardwareScale.bench(),
                            **kw)


@pytest.fixture(scope="module")
def probe_reference():
    """The fault-free expectation, computed without any scheduler."""
    results = {seed: _execute_probe({}, dict(seed=seed, spin=200))
               [0][0][1]["value"] for seed in range(PROBES)}
    return merged_digest(results)


@pytest.fixture(scope="module")
def bench_baseline(tmp_path_factory):
    """Fault-free serial reference: merged metrics + cold-cache misses."""
    faults.reset()
    runner = bench_runner(
        cache_dir=str(tmp_path_factory.mktemp("baseline-cache")))
    out = runner.run_pairs(pairs=PAIRS)
    return ({key: m.to_dict() for key, m in out.items()},
            runner.resilience.cache_misses)


class TestProbeScale:
    @pytest.mark.parametrize("spec", SCHEDULER_SITES,
                             ids=lambda s: s.split(":")[0])
    def test_fault_site_recovers_bit_identically(self, spec,
                                                 probe_reference):
        faults.configure(spec, seed=7)
        results, service = run_probe_sweep(PROBES, workers=4,
                                           pair_timeout=PAIR_TIMEOUT)
        assert len(results) == PROBES
        assert merged_digest(results) == probe_reference

    def test_torn_journal_append_crashes_then_resumes(self, tmp_path,
                                                      probe_reference):
        journal_path = tmp_path / "sweep.ckpt.jsonl"
        faults.configure("checkpoint_torn:0.05:1", seed=7)
        with pytest.raises(InjectedFault):
            run_probe_sweep(PROBES, workers=4, journal_path=journal_path,
                            pair_timeout=PAIR_TIMEOUT)
        faults.reset()
        report = ResilienceReport()
        results, _service = run_probe_sweep(PROBES, workers=4,
                                            journal_path=journal_path,
                                            report=report,
                                            pair_timeout=PAIR_TIMEOUT)
        assert merged_digest(results) == probe_reference
        assert report.torn_records == 1
        assert report.resumed_pairs >= 1


class TestRunnerTornCheckpoint:
    def test_resume_truncates_torn_tail_bit_identically(self, tmp_path,
                                                        bench_baseline):
        """Regression: resume must *detect* a torn trailing record, not
        trust the tail (the pre-journal checkpoint replayed whatever
        parsed, silently dropping the torn pair from the resumed set)."""
        metrics_want, _misses = bench_baseline
        # Seed 4 tears the *second* pair's append: one durable record
        # survives for resume, one torn tail must be truncated away.
        faults.configure("checkpoint_torn:0.5:1", seed=4)
        crashed = bench_runner(cache_dir=str(tmp_path))
        with pytest.raises(InjectedFault):
            crashed.run_pairs(pairs=PAIRS)
        faults.reset()
        fresh = bench_runner(cache_dir=str(tmp_path))
        out = fresh.run_pairs(pairs=PAIRS)
        assert {k: m.to_dict() for k, m in out.items()} == metrics_want
        assert fresh.resilience.torn_records == 1
        assert fresh.resilience.resumed_pairs == 1


class TestOneResultPerPair:
    @pytest.fixture
    def obs_enabled(self, monkeypatch, tmp_path):
        saved_enabled = obs_core.ENABLED
        saved_override = obs_core._out_dir_override
        monkeypatch.setenv(obs_core.OBS_ENV_VAR, "1")
        monkeypatch.setenv(obs_core.OBS_DIR_ENV_VAR, str(tmp_path / "obs"))
        obs_core.refresh_from_env()
        obs.reset()
        yield
        obs_core.ENABLED = saved_enabled
        obs_core._out_dir_override = saved_override
        obs.reset()

    def test_crashed_attempts_never_double_count(self, tmp_path,
                                                 monkeypatch, obs_enabled,
                                                 bench_baseline):
        """A pair whose worker attempt crashed is retried, never run
        twice at once: its metrics, resilience counters and obs events
        are folded exactly once."""
        metrics_want, misses_want = bench_baseline
        # Hang latency is someone else's test: run the liveness grace at
        # its default so a stray GIL-held pause can't kill a healthy
        # worker.
        monkeypatch.setenv("REPRO_SWEEP_HEARTBEAT", "0.25")
        faults.configure("worker_crash:0.5:2", seed=3)
        runner = bench_runner(cache_dir=str(tmp_path / "cache"))
        out = runner.run_pairs(pairs=PAIRS, workers=2)
        assert {k: m.to_dict() for k, m in out.items()} == metrics_want
        report = runner.resilience
        assert report.worker_crashes >= 1
        assert report.duplicate_results == 0
        # Crashed attempts ship no counters, so the fold matches the
        # cold-cache reference exactly.
        assert report.cache_misses == misses_want
        # Exactly one "pair" span per pair reaches the merged trace.
        events = obs.snapshot()["events"]
        pair_events = [e for e in events if e.get("name") == "pair"]
        assert len(pair_events) == len(PAIRS)
