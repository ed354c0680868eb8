"""SweepService scheduling semantics: stealing, rebuilds, one attempt.

Probe tasks (a pure function of their seed) make every property
checkable against an exactly-computable expectation: any lost,
duplicated, or double-counted task changes the merged result.
"""

from __future__ import annotations

import collections
import time

import pytest

from repro.common import faults
from repro.core.config import HardwareScale
from repro.obs import core as obs_core
from repro.obs import trace as obs_trace
from repro.sim.resilience import ResilienceReport, RetryPolicy
from repro.sim.runner import ExperimentRunner
from repro.sweep import tasks
from repro.sweep.cli import SLOW_SPIN, run_probe_sweep
from repro.sweep.scheduler import SweepService, _Worker
from repro.sweep.tasks import TaskSpec, _execute_probe

FAST_RETRY = RetryPolicy(base_delay=0.0, max_delay=0.0)


@pytest.fixture(autouse=True)
def fast_heartbeat(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_HEARTBEAT", "0.05")


def probe_tasks(count: int, spin: int = 200, shard: str | None = None):
    return [TaskSpec(key=f"probe/{seed}", kind="probe",
                     payload=dict(seed=seed, spin=spin),
                     shard=shard if shard is not None else str(seed % 8))
            for seed in range(count)]


def expected(count: int, spin: int = 200) -> dict:
    return {f"probe/{seed}": _execute_probe({}, dict(seed=seed,
                                                     spin=spin))[0]
            for seed in range(count)}


class Harness:
    """A SweepService wired to record exactly what the caller saw."""

    def __init__(self, tasks, workers, **kw):
        self.results: dict[str, list] = {}
        self.done_keys: list[str] = []
        self.report = ResilienceReport()
        self.service = SweepService(
            tasks=tasks, runner_spec={}, report=self.report,
            on_done=self._on_done, on_violation=lambda task, exc: None,
            workers=workers, retry=FAST_RETRY, **kw)

    def _on_done(self, task, entries):
        self.done_keys.append(task.key)
        self.results[task.key] = [[name, dict(payload)]
                                  for name, payload in entries]

    def run(self):
        self.service.run()
        return self.results


class TestScheduling:
    def test_parallel_matches_exact_expectation(self):
        harness = Harness(probe_tasks(80), workers=4)
        assert harness.run() == expected(80)
        # Every task completed exactly once at the caller's surface.
        assert sorted(harness.done_keys) == sorted(expected(80))
        assert harness.report.duplicate_results == 0

    def test_single_worker_goes_straight_to_serial_tier(self):
        harness = Harness(probe_tasks(5), workers=1)
        assert harness.run() == expected(5)
        assert harness.report.serial_degradations == 5
        assert harness.report.steals == 0

    def test_hot_shard_is_stolen(self):
        # Every task shares one shard, so affinity queues them all on a
        # single slot; the other three workers can only make progress by
        # stealing — and the merged result must not care.
        harness = Harness(probe_tasks(12, spin=200_000, shard="hot"),
                          workers=4)
        assert harness.run() == expected(12, spin=200_000)
        assert harness.report.steals > 0


class _StubProcess:
    """An alive-until-killed process handle for white-box liveness tests."""

    def __init__(self):
        self.killed = False

    def is_alive(self):
        return not self.killed

    def kill(self):
        self.killed = True

    def join(self, timeout=None):
        pass


class TestStartupGrace:
    """A worker that has never beaten is *booting*, not hung: only the
    (much longer) startup grace may kill it.  Regression for the tight
    beat grace racing process startup — forking a large parent took
    longer than ``2 x heartbeat`` and every worker was killed at birth,
    collapsing whole sweeps to the serial tier."""

    def _service_with_busy_worker(self, monkeypatch, *, beat,
                                  spawned_ago):
        harness = Harness(probe_tasks(4), workers=2)
        svc = harness.service
        monkeypatch.setattr(svc, "_spawn", lambda worker: None)
        svc.beats = [0.0, 0.0]
        svc.slots = [_Worker(slot=0), _Worker(slot=1)]
        svc.deques = [collections.deque(), collections.deque()]
        now = time.monotonic()
        for worker in svc.slots:
            worker.process = _StubProcess()
            worker.spawned = now - spawned_ago
        busy = svc.slots[0]
        busy.busy = "probe/0"
        busy.started = now - spawned_ago
        svc.beats[0] = beat
        return svc

    def test_booting_worker_outlives_the_beat_grace(self, monkeypatch):
        svc = self._service_with_busy_worker(monkeypatch, beat=0.0,
                                             spawned_ago=1.0)
        assert 1.0 > svc.grace          # far past the tight beat grace
        svc._check_liveness()
        assert not svc.slots[0].dead
        assert svc.report.hung_workers == 0
        assert svc.report.pair_timeouts == 0

    def test_boot_wedge_still_killed_past_startup_grace(self,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_STARTUP_GRACE", "0.2")
        svc = self._service_with_busy_worker(monkeypatch, beat=0.0,
                                             spawned_ago=1.0)
        svc._check_liveness()
        assert svc.slots[0].dead
        assert svc.report.hung_workers == 1

    def test_tight_grace_applies_after_first_beat(self, monkeypatch):
        svc = self._service_with_busy_worker(
            monkeypatch, beat=time.monotonic() - 1.0, spawned_ago=1.0)
        svc._check_liveness()
        assert svc.slots[0].dead
        assert svc.report.hung_workers == 1


class TestOneAttemptInFlight:
    """Each task has at most one attempt in flight, on the slot whose
    ``busy`` names it; a second result for a finished task is a
    bookkeeping fault, and is dropped whole."""

    def test_result_for_finished_key_is_dropped_whole(self, monkeypatch):
        harness = Harness(probe_tasks(2), workers=2)
        svc = harness.service
        svc.slots = [_Worker(slot=0, busy="probe/0",
                             started=time.monotonic())]
        svc.done.add("probe/0")
        absorbed = []
        merged = []
        monkeypatch.setattr(obs_trace.COLLECTOR, "absorb", absorbed.append)
        monkeypatch.setattr(obs_core.REGISTRY, "merge", merged.append)

        def payload(key):
            return {"key": key, "attempt": 2,
                    "entries": [["probe", {"seed": 0, "value": 1}]],
                    "report": {"cache_hits": 5, "cache_misses": 3},
                    "obs": {"registry": {"counters": {"x": 1}},
                            "events": [{"name": "task", "ph": "X"}]}}

        svc._complete(svc.slots[0], payload("probe/0"))
        assert harness.done_keys == []
        assert harness.report.duplicate_results == 1
        assert harness.report.cache_hits == 0
        assert harness.report.cache_misses == 0
        assert absorbed == [] and merged == []
        assert svc.slots[0].busy is None
        # The same payload for an unfinished key is folded whole.
        svc.slots[0].busy = "probe/1"
        svc._complete(svc.slots[0], payload("probe/1"))
        assert harness.done_keys == ["probe/1"]
        assert harness.report.cache_hits == 5
        assert harness.report.cache_misses == 3
        assert len(absorbed) == 1 and len(merged) == 1

    @pytest.mark.parametrize("spec,count,spin", [
        pytest.param("worker_crash:0.1:4", 120, 200, id="worker_crash"),
        pytest.param("worker_exit:0.05:3", 120, 200, id="worker_exit"),
        pytest.param("heartbeat_loss:0.2:3", 20, SLOW_SPIN,
                     id="heartbeat_loss"),
    ])
    def test_no_key_is_sent_twice_while_in_flight(self, monkeypatch,
                                                  spec, count, spin):
        sends = []
        original = SweepService._send

        def checked_send(svc, worker, key):
            holders = [w.slot for w in svc.slots
                       if w is not worker and not w.dead and w.busy == key]
            assert holders == [], f"{key} already in flight on {holders}"
            assert key not in svc.done
            sends.append(key)
            return original(svc, worker, key)

        monkeypatch.setattr(SweepService, "_send", checked_send)
        faults.configure(spec, seed=7)
        results, service = run_probe_sweep(count, workers=2, spin=spin,
                                           pair_timeout=30.0)
        want = {seed: _execute_probe({}, dict(seed=seed, spin=spin))
                [0][0][1]["value"] for seed in range(count)}
        assert results == want
        assert service.report.duplicate_results == 0
        # The fault fired: some key needed a second dispatch.
        assert len(sends) > len(set(sends))


class TestPoolBudget:
    def test_exhausted_pool_budget_degrades_to_serial(self):
        # Every dispatch kills its worker: the first death spends the
        # pool's one rebuild, the next deaths leave their slots dead,
        # the supervised loop ends with no live slot, and the serial
        # tier (which cannot break) finishes the whole sweep
        # bit-identically.
        faults.configure("worker_exit:1.0", seed=0)
        harness = Harness(probe_tasks(8), workers=2, max_pool_rebuilds=1)
        assert harness.run() == expected(8)
        assert harness.report.pool_rebuilds == 1
        assert harness.report.serial_degradations == 8


class TestIdleWorkers:
    def test_idle_worker_outlives_a_straggler(self, monkeypatch):
        # Regression: an idle worker used to quit after 60 s without a
        # task, and the supervisor counted the respawn as a repair on a
        # fault-free sweep.  With the idle slice shortened (inherited
        # by the forked workers), the worker that finishes the cheap
        # probes sits idle through many slices while the straggler runs.
        monkeypatch.setattr(tasks, "IDLE_SLICE", 0.02)
        work = [TaskSpec(key="probe/0", kind="probe",
                         payload=dict(seed=0, spin=2_000_000), shard="0")]
        work += [TaskSpec(key=f"probe/{seed}", kind="probe",
                          payload=dict(seed=seed, spin=200), shard=str(seed))
                 for seed in (1, 2)]
        want = {t.key: _execute_probe({}, t.payload)[0] for t in work}
        harness = Harness(work, workers=2)
        assert harness.run() == want
        assert harness.report.events() == 0
        assert harness.report.pool_rebuilds == 0

    def test_fault_free_pair_sweep_reports_no_events(self, monkeypatch):
        # The production path end to end: a clean parallel run_pairs
        # merges exactly the serial result and reports no repair.  The
        # default heartbeat keeps a stray GIL pause from reading as a
        # hang on real pairs.
        monkeypatch.setenv("REPRO_SWEEP_HEARTBEAT", "0.25")
        pairs = [("bfs", "FR"), ("pagerank", "FR"), ("sssp", "FR")]

        def sweep(workers):
            runner = ExperimentRunner(profile="bench",
                                      scale=HardwareScale.bench())
            out = runner.run_pairs(pairs=pairs, workers=workers)
            return ({key: m.to_dict() for key, m in out.items()},
                    runner.resilience)

        serial, _report = sweep(1)
        parallel, report = sweep(2)
        assert parallel == serial
        assert report.events() == 0
