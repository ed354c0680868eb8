"""Liveness supervision: hung workers die in heartbeats, not timeouts.

The contract (docs/sweep.md): a worker whose heartbeat goes stale is
SIGKILLed within ~2 heartbeat intervals plus one wait tick — a bounded
detection latency independent of the much larger ``REPRO_PAIR_TIMEOUT``
that the PR-2 pool tiers had to wait out.
"""

from __future__ import annotations

import pytest

from repro.common import faults
from repro.sweep.cli import merged_digest, run_probe_sweep
from repro.sweep.tasks import _execute_probe

PAIR_TIMEOUT = 30.0


@pytest.fixture(autouse=True)
def chaos_env(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_HEARTBEAT", "0.05")
    monkeypatch.setenv("REPRO_HANG_SECONDS", "2.0")


def expected_results(count: int, spin: int = 200) -> dict:
    return {seed: _execute_probe({}, dict(seed=seed, spin=spin))[0][0][1]
            ["value"] for seed in range(count)}


class TestHangDetection:
    def test_hang_detected_well_before_pair_timeout(self):
        faults.configure("worker_hang:1.0:1", seed=3)
        results, service = run_probe_sweep(10, workers=2,
                                           pair_timeout=PAIR_TIMEOUT)
        assert results == expected_results(10)
        assert service.report.hung_workers >= 1
        assert service.detection_latencies
        worst = max(service.detection_latencies)
        # Grace is 2 heartbeats (0.1 s here); detection adds at most a
        # wait tick plus kill overhead.  The point of the supervisor is
        # that this stays orders of magnitude under the pair timeout.
        assert worst < 1.0
        assert worst < PAIR_TIMEOUT / 5

    def test_hung_tasks_requeue_to_exact_results(self):
        # Every worker's first task hangs; respawned workers hang again
        # until the pool's rebuild budget runs out.  However many kills
        # and requeues that takes, the merged digest must equal the pure
        # expectation.
        faults.configure("worker_hang:1.0:1", seed=5)
        results, service = run_probe_sweep(12, workers=3,
                                           pair_timeout=PAIR_TIMEOUT)
        assert merged_digest(results) == merged_digest(
            expected_results(12))
        assert service.report.pair_timeouts >= 1


class TestHeartbeatLoss:
    def test_lost_telemetry_killed_and_requeued_without_double_count(self):
        # Telemetry dies but the work continues: the supervisor cannot
        # distinguish this from a wedged process, kills it, and requeues
        # the task.  If the victim's completion raced the kill, dedup
        # must keep exactly one result.
        faults.configure("heartbeat_loss:1.0:1", seed=2)
        results, service = run_probe_sweep(6, workers=2,
                                           spin=3_000_000,
                                           pair_timeout=PAIR_TIMEOUT)
        assert results == expected_results(6, spin=3_000_000)
        assert service.report.hung_workers >= 1
