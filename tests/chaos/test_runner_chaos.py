"""Runner-level chaos tests: every resilience tier, at bench scale.

The invariant under test (DESIGN.md): retries, pool rebuilds, timeouts,
quarantine and resume may change how a sweep *executes*, never what it
*computes* — merged metrics stay bit-identical to a fault-free serial run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common import faults
from repro.common.errors import ConfigError, InjectedFault
from repro.core.config import HardwareScale
from repro.sim.resilience import RetryPolicy
from repro.sim.runner import ExperimentRunner

PAIRS = [("bfs", "FR"), ("pagerank", "FR"), ("sssp", "FR")]

#: No real sleeping in tests; determinism comes from the seeds.
FAST_RETRY = RetryPolicy(base_delay=0.0, max_delay=0.0)


def bench_runner(**kw):
    kw.setdefault("retry", FAST_RETRY)
    return ExperimentRunner(profile="bench", scale=HardwareScale.bench(),
                            **kw)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial reference for the bit-identical comparisons."""
    faults.reset()
    out = ExperimentRunner(profile="bench",
                           scale=HardwareScale.bench()).run_pairs(pairs=PAIRS)
    return {key: m.to_dict() for key, m in out.items()}


def assert_identical(out, baseline):
    assert list(out) == list(baseline)
    for key in baseline:
        assert out[key].to_dict() == baseline[key], key


class TestWorkerFaults:
    def test_worker_crash_retried(self, baseline):
        faults.configure("worker_crash:0.6", seed=2)
        runner = bench_runner()
        out = runner.run_pairs(pairs=PAIRS, workers=2)
        assert_identical(out, baseline)
        report = runner.resilience
        assert report.worker_crashes + report.serial_degradations > 0

    def test_worker_exit_breaks_and_recovers_pool(self, baseline):
        faults.configure("worker_exit:0.6", seed=1)
        runner = bench_runner()
        out = runner.run_pairs(pairs=PAIRS, workers=2)
        assert_identical(out, baseline)
        assert runner.resilience.pool_rebuilds \
            + runner.resilience.serial_degradations > 0

    def test_hung_worker_abandoned_on_timeout(self, baseline, monkeypatch):
        monkeypatch.setenv("REPRO_HANG_SECONDS", "3")
        faults.configure("worker_hang:1.0:1", seed=0)
        runner = bench_runner(pair_timeout=0.3)
        out = runner.run_pairs(pairs=PAIRS, workers=2)
        assert_identical(out, baseline)
        assert runner.resilience.pair_timeouts >= 1
        assert runner.resilience.serial_degradations >= 1

    def test_serial_tier_never_needs_a_pool(self, baseline):
        # Crash every worker attempt: all tiers of pool execution fail
        # and the serial tier (which has no worker entry) finishes.
        faults.configure("worker_crash:1.0", seed=0)
        runner = bench_runner()
        out = runner.run_pairs(pairs=PAIRS, workers=2)
        assert_identical(out, baseline)
        assert runner.resilience.serial_degradations == len(PAIRS)


class TestCacheIntegrity:
    def corrupt(self, root, prefix, mutate, suffix=""):
        # Artifacts live in two-hex-char shard subdirectories now, so
        # search recursively, not just the cache root.
        victims = [p for p in sorted(Path(root).rglob(f"{prefix}*{suffix}"))
                   if p.is_file() and p.name.startswith(prefix)]
        assert victims, f"no {prefix} artifacts to corrupt"
        mutate(victims[0])
        return victims[0]

    def test_corrupt_metrics_quarantined_and_recomputed(self, baseline,
                                                        tmp_path):
        bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        self.corrupt(tmp_path, "metrics-", suffix=".json",
                     mutate=lambda p: p.write_text(p.read_text()[:25]))
        runner = bench_runner(cache_dir=str(tmp_path))
        assert_identical(runner.run_pairs(pairs=PAIRS), baseline)
        assert runner.resilience.quarantined == 1
        assert any(p.name.endswith(".corrupt")
                   for p in tmp_path.rglob("*"))

    def test_corrupt_memmap_store_quarantined(self, baseline, tmp_path):
        bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        stores = sorted(p for p in tmp_path.rglob("trace-*.mm")
                        if p.is_dir())
        assert stores, "no memmapped trace stores published"
        (stores[0] / "streams.npy").write_bytes(b"\x00garbage\x00")
        # Drop the metrics artifacts so recomputation must reload traces.
        for p in list(tmp_path.rglob("metrics-*")):
            p.unlink()
        runner = bench_runner(cache_dir=str(tmp_path))
        assert_identical(runner.run_pairs(pairs=PAIRS), baseline)
        assert runner.resilience.quarantined >= 1

    def test_legacy_metrics_format_recomputed(self, baseline, tmp_path):
        # A PR-1-era bare-dict metrics file is a schema mismatch.
        bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        self.corrupt(
            tmp_path, "metrics-", suffix=".json",
            mutate=lambda p: p.write_text(json.dumps({"cycles": 1.0})))
        runner = bench_runner(cache_dir=str(tmp_path))
        assert_identical(runner.run_pairs(pairs=PAIRS), baseline)
        assert runner.resilience.quarantined == 1

    def test_injected_corruption_self_heals_on_reread(self, baseline,
                                                      tmp_path):
        faults.configure("cache_corrupt:0.5", seed=3)
        bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        faults.configure(None)
        runner = bench_runner(cache_dir=str(tmp_path))
        assert_identical(runner.run_pairs(pairs=PAIRS), baseline)
        assert runner.resilience.quarantined > 0
        # Third pass: everything rewritten clean, nothing left to heal.
        runner = bench_runner(cache_dir=str(tmp_path))
        assert_identical(runner.run_pairs(pairs=PAIRS), baseline)
        assert runner.resilience.quarantined == 0

    def test_startup_reaps_dead_writer_tmp_files(self, tmp_path):
        stale = tmp_path / "metrics-dead.4194297.tmp"
        stale.write_text("partial write from a dead worker")
        runner = bench_runner(cache_dir=str(tmp_path))
        runner.prepare("bfs", "FR")
        assert not stale.exists()
        assert runner.resilience.reaped_tmp == 1


class TestAllocOOMBarrier:
    def test_perturbed_runs_discarded(self, baseline):
        faults.configure("alloc_oom:1.0:2", seed=0)
        runner = bench_runner()
        out = runner.run_pairs(pairs=PAIRS[:1])
        for key, metrics in out.items():
            assert metrics.to_dict() == baseline[key]
        assert runner.resilience.perturbed_reruns >= 1
        assert runner.resilience.perturbed_accepted == 0

    def test_perturbed_metrics_never_persisted(self, baseline, tmp_path):
        faults.configure("alloc_oom:1.0:2", seed=0)
        bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS[:1])
        faults.configure(None)
        out = bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS[:1])
        for key, metrics in out.items():
            assert metrics.to_dict() == baseline[key]


class TestCheckpointResume:
    def test_abort_and_resume_in_process(self, baseline, tmp_path,
                                         monkeypatch):
        faults.configure("sweep_abort:1.0:1", seed=0)
        with pytest.raises(InjectedFault):
            bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        faults.configure(None)
        journal = [p for p in tmp_path.iterdir()
                   if p.name.startswith("sweep-")
                   and not p.name.endswith(".gen")]
        assert len(journal) == 1
        # Remove per-metric artifacts so only the journal can explain a
        # skipped recomputation.
        for p in list(tmp_path.rglob("metrics-*")) \
                + list(tmp_path.rglob("trace-*")):
            if p.is_file():
                p.unlink()
            elif p.is_dir():
                shutil.rmtree(p)
        computed = []
        original = ExperimentRunner.run

        def counting_run(self, workload, dataset, config):
            computed.append((workload, dataset))
            return original(self, workload, dataset, config)

        monkeypatch.setattr(ExperimentRunner, "run", counting_run)
        runner = bench_runner(cache_dir=str(tmp_path))
        out = runner.run_pairs(pairs=PAIRS)
        assert_identical(out, baseline)
        assert runner.resilience.resumed_pairs == 1
        assert PAIRS[0] not in set(computed)       # journal, not recompute
        assert not any(p.name.startswith("sweep-")
                       for p in tmp_path.iterdir())  # journal retired

    def test_kill_mid_sweep_and_resume_across_processes(self, baseline,
                                                        tmp_path):
        # A separate interpreter dies mid-sweep (injected abort after the
        # first checkpointed pair); this process resumes from its journal.
        driver = f"""
import sys
from repro.common import faults
from repro.common.errors import InjectedFault
from repro.core.config import HardwareScale
from repro.sim.runner import ExperimentRunner
faults.configure("sweep_abort:1.0:1", seed=0)
runner = ExperimentRunner(profile="bench", scale=HardwareScale.bench(),
                          cache_dir={str(tmp_path)!r})
try:
    runner.run_pairs(pairs={PAIRS!r})
except InjectedFault:
    sys.exit(137)        # died mid-sweep, checkpoint left behind
sys.exit(0)
"""
        src = Path(faults.__file__).resolve().parents[2]
        env = dict(os.environ,
                   PYTHONPATH=f"{src}{os.pathsep}"
                              f"{os.environ.get('PYTHONPATH', '')}")
        proc = subprocess.run([sys.executable, "-c", driver], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 137, proc.stderr
        runner = bench_runner(cache_dir=str(tmp_path))
        out = runner.run_pairs(pairs=PAIRS)
        assert_identical(out, baseline)
        assert runner.resilience.resumed_pairs == 1

    def test_resume_disabled_recomputes(self, baseline, tmp_path):
        faults.configure("sweep_abort:1.0:1", seed=0)
        with pytest.raises(InjectedFault):
            bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        faults.configure(None)
        runner = bench_runner(cache_dir=str(tmp_path))
        out = runner.run_pairs(pairs=PAIRS, resume=False)
        assert_identical(out, baseline)
        assert runner.resilience.resumed_pairs == 0

    def test_checkpoint_key_covers_sweep_shape(self, tmp_path):
        runner = bench_runner(cache_dir=str(tmp_path))
        a = runner._sweep_checkpoint(None, PAIRS, ["conv_4k"])
        b = runner._sweep_checkpoint(None, PAIRS, ["conv_2m"])
        c = runner._sweep_checkpoint(None, PAIRS[:1], ["conv_4k"])
        assert len({a.path, b.path, c.path}) == 3

    def test_explicit_checkpoint_path(self, baseline, tmp_path):
        journal = tmp_path / "my-sweep.json"
        faults.configure("sweep_abort:1.0:1", seed=0)
        with pytest.raises(InjectedFault):
            bench_runner().run_pairs(pairs=PAIRS, checkpoint=journal)
        faults.configure(None)
        assert journal.exists()
        out = bench_runner().run_pairs(pairs=PAIRS, checkpoint=journal)
        assert_identical(out, baseline)
        assert not journal.exists()


class TestInputValidation:
    def test_unknown_config_name_raises_config_error(self):
        with pytest.raises(ConfigError) as excinfo:
            bench_runner().run_pairs(pairs=PAIRS[:1],
                                     config_names=["conv_4k", "warp_drive"])
        message = str(excinfo.value)
        assert "warp_drive" in message
        assert "conv_4k" in message and "dvm_pe_plus" in message

    def test_duplicate_pairs_collapsed(self, baseline):
        computed = []
        runner = bench_runner()
        original_serial = runner._run_pair_serial
        runner._run_pair_serial = lambda pair, configs: (
            computed.append(pair) or original_serial(pair, configs))
        out = runner.run_pairs(pairs=[PAIRS[0], PAIRS[0], PAIRS[1],
                                      PAIRS[0]])
        assert computed == [PAIRS[0], PAIRS[1]]
        expected = {k: v for k, v in baseline.items()
                    if (k[0], k[1]) in PAIRS[:2]}
        assert list(out) == list(expected)
        for key in expected:
            assert out[key].to_dict() == expected[key]
