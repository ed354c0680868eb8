"""Resilience-primitive unit tests: retry/backoff, checkpoint, report."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import TransientError, WorkerCrashError
from repro.sim.resilience import ResilienceReport, RetryPolicy, retry_call
from repro.sweep.journal import JOURNAL_SCHEMA, SweepJournal


class TestRetryPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, backoff_factor=2.0,
                             max_delay=10.0, jitter=0.0)
        assert [policy.delay(a) for a in (1, 2, 3)] == [0.1, 0.2, 0.4]

    def test_max_delay_caps(self):
        policy = RetryPolicy(base_delay=1.0, backoff_factor=10.0,
                             max_delay=3.0, jitter=0.0)
        assert policy.delay(5) == 3.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5, seed=4)
        delays = [policy.delay(1, tag="bfs/FR") for _ in range(3)]
        assert len(set(delays)) == 1                  # pure function
        assert 0.5 <= delays[0] <= 1.5                # within +/- jitter
        assert policy.delay(1, tag="bfs/FR") != policy.delay(1, tag="cf/NF")
        assert RetryPolicy(base_delay=1.0, jitter=0.5, seed=5).delay(
            1, tag="bfs/FR") != delays[0]


class TestRetryCall:
    def flaky(self, failures, exc=WorkerCrashError):
        state = {"calls": 0}

        def fn():
            state["calls"] += 1
            if state["calls"] <= failures:
                raise exc(f"failure {state['calls']}")
            return state["calls"]

        return fn, state

    def test_succeeds_after_transient_failures(self):
        fn, state = self.flaky(2)
        slept = []
        result = retry_call(fn, policy=RetryPolicy(max_attempts=3,
                                                   jitter=0.0),
                            sleep=slept.append)
        assert result == 3 and state["calls"] == 3
        assert slept == [0.05, 0.1]

    def test_exhausted_attempts_raise_last_error(self):
        fn, _ = self.flaky(5)
        with pytest.raises(WorkerCrashError, match="failure 2"):
            retry_call(fn, policy=RetryPolicy(max_attempts=2, jitter=0.0),
                       sleep=lambda _s: None)

    def test_non_transient_is_never_retried(self):
        fn, state = self.flaky(1, exc=ValueError)
        with pytest.raises(ValueError):
            retry_call(fn, policy=RetryPolicy(max_attempts=5),
                       sleep=lambda _s: None)
        assert state["calls"] == 1

    def test_on_retry_observes_schedule(self):
        fn, _ = self.flaky(2)
        seen = []
        retry_call(fn, policy=RetryPolicy(max_attempts=3, jitter=0.0),
                   sleep=lambda _s: None,
                   on_retry=lambda a, e, d: seen.append((a, type(e), d)))
        assert seen == [(1, WorkerCrashError, 0.05),
                        (2, WorkerCrashError, 0.1)]

    def test_custom_retryable_filter(self):
        fn, _ = self.flaky(1, exc=KeyError)
        assert retry_call(fn, policy=RetryPolicy(max_attempts=2),
                          retryable=(KeyError,), sleep=lambda _s: None) == 2


class TestSweepCheckpoint:
    def entries(self, tag):
        return [["conv_4k", {"cycles": 1.0, "tag": tag}],
                ["dvm_pe", {"cycles": 2.0, "tag": tag}]]

    def test_record_load_round_trip(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        ckpt = SweepJournal(path, sweep_key="k1")
        ckpt.append("bfs/FR", self.entries("a"))
        ckpt.append("cf/NF", self.entries("b"))
        loaded = SweepJournal(path, sweep_key="k1").load()
        assert loaded == {"bfs/FR": self.entries("a"),
                          "cf/NF": self.entries("b")}

    def test_wrong_sweep_key_ignored_but_preserved(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        SweepJournal(path, sweep_key="k1").append("bfs/FR", self.entries("a"))
        assert SweepJournal(path, sweep_key="other").load() == {}
        assert path.exists()      # not corrupt, merely inapplicable

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        # Corruption that destroys even the header is beyond salvage:
        # the whole journal is quarantined, never trusted.
        path = tmp_path / "sweep.ckpt.json"
        ckpt = SweepJournal(path, sweep_key="k1")
        ckpt.append("bfs/FR", self.entries("a"))
        path.write_text(path.read_text()[:30])
        assert SweepJournal(path, sweep_key="k1").load() == {}
        assert not path.exists()
        assert (tmp_path / "sweep.ckpt.json.corrupt").exists()

    def test_torn_tail_truncated_prefix_survives(self, tmp_path):
        # The PR-8 behavior change: a torn trailing record no longer
        # poisons the journal — it is truncated and every record before
        # it resumes.  (The pre-PR-8 whole-file checkpoint lost
        # everything on any corruption.)
        path = tmp_path / "sweep.ckpt.json"
        ckpt = SweepJournal(path, sweep_key="k1")
        ckpt.append("bfs/FR", self.entries("a"))
        ckpt.append("cf/NF", self.entries("b"))
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])         # tear the final record
        fresh = SweepJournal(path, sweep_key="k1")
        assert fresh.load() == {"bfs/FR": self.entries("a")}
        assert fresh.torn_records == 1
        # The truncation is durable: a second load sees a clean journal.
        again = SweepJournal(path, sweep_key="k1")
        assert again.load() == {"bfs/FR": self.entries("a")}
        assert again.torn_records == 0

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "none.json", "k").load() == {}

    def test_complete_removes_journal(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        ckpt = SweepJournal(path, sweep_key="k1")
        ckpt.append("bfs/FR", self.entries("a"))
        ckpt.complete()
        assert not path.exists()
        assert not ckpt.gen_path.exists()   # fence removed with it
        ckpt.complete()           # idempotent

    def test_journal_records_are_sealed(self, tmp_path):
        # Append-only JSONL: a header record carrying the sweep key and
        # schema, then one self-validating (sha-sealed) record per task.
        path = tmp_path / "sweep.ckpt.json"
        SweepJournal(path, sweep_key="k1").append("bfs/FR", self.entries("a"))
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        header, record = lines
        assert header["kind"] == "sweep-journal"
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["sweep_key"] == "k1"
        assert record["key"] == "bfs/FR"
        assert all("sha" in doc for doc in lines)


class TestResilienceReport:
    def test_clean_report(self):
        report = ResilienceReport()
        assert report.events() == 0
        assert "clean run" in report.render()

    def test_events_and_render(self):
        report = ResilienceReport(retries=2, quarantined=1)
        assert report.events() == 3
        text = report.render()
        assert "retries: 2" in text and "quarantined: 1" in text

    def test_to_dict_includes_fault_stats_when_active(self):
        from repro.common import faults
        faults.configure("worker_crash:1.0", seed=0)
        faults.should_fire("worker_crash")
        payload = ResilienceReport().to_dict()
        assert payload["injected_faults"]["worker_crash"]["fires"] == 1
