"""SweepWatch: partial results and events while a sweep runs."""

from __future__ import annotations

from repro.obs import bus
from repro.common.recordlog import seal as _seal
from repro.sweep.journal import SweepJournal
from repro.sweep.stream import SweepWatch


def _journal(tmp_path, *keys, sweep_key="sweep-1"):
    journal = SweepJournal(tmp_path / "sweep.jsonl", sweep_key)
    for i, key in enumerate(keys):
        journal.append(key, [["probe", {"seed": i, "value": i * 7}]])
    return journal


class TestIterResults:
    def test_drains_completed_tasks(self, tmp_path):
        journal = _journal(tmp_path, "probe/0", "probe/1")
        watch = SweepWatch(journal_path=journal.path, sweep_key="sweep-1")
        got = list(watch.iter_results(follow=False))
        assert [key for key, _ in got] == ["probe/0", "probe/1"]
        assert got[0][1] == [["probe", {"seed": 0, "value": 0}]]

    def test_partial_rows_render_mid_sweep(self, tmp_path):
        """The acceptance scenario: consume rows while the sweep runs."""
        journal = SweepJournal(tmp_path / "sweep.jsonl", "sweep-1")
        journal.append("bfs/FR", [["dvm", {"cycles": 10}]])
        rows = {}
        state = {"rounds": 0}

        def producer(_dt):
            # More pairs complete while the watcher sleeps.
            state["rounds"] += 1
            if state["rounds"] == 1:
                journal.append("pagerank/FR", [["dvm", {"cycles": 20}]])
            else:
                journal.complete()      # merged: journal removed

        watch = SweepWatch(journal_path=journal.path, sweep_key="sweep-1",
                           sleep=producer)
        for key, entries in watch.iter_results():
            rows[key] = entries[0][1]["cycles"]
        assert rows == {"bfs/FR": 10, "pagerank/FR": 20}

    def test_never_yields_half_record(self, tmp_path):
        journal = _journal(tmp_path, "probe/0")
        torn = _seal({"gen": 1, "seq": 1, "key": "probe/1",
                      "entries": []})[:20]
        with open(journal.path, "ab") as fh:
            fh.write(torn)
        watch = SweepWatch(journal_path=journal.path, sweep_key="sweep-1")
        got = [key for key, _ in watch.iter_results(follow=False)]
        assert got == ["probe/0"]

    def test_wrong_sweep_key_yields_nothing(self, tmp_path):
        journal = _journal(tmp_path, "probe/0", sweep_key="other-sweep")
        watch = SweepWatch(journal_path=journal.path, sweep_key="sweep-1")
        assert list(watch.iter_results(follow=False)) == []

    def test_keys_deduped_across_truncation_replay(self, tmp_path):
        journal = _journal(tmp_path, "probe/0", "probe/1")
        raw = journal.path.read_bytes()
        state = {"step": 0}

        def churn(_dt):
            state["step"] += 1
            if state["step"] == 1:
                # Writer truncates (torn-tail repair): the watcher must
                # replay from byte 0 without re-yielding known keys.
                journal.path.write_bytes(raw[:-1])
            elif state["step"] == 2:
                journal.path.write_bytes(raw)
            else:
                journal.path.unlink()

        watch = SweepWatch(journal_path=journal.path, sweep_key="sweep-1",
                           sleep=churn)
        got = [key for key, _ in watch.iter_results()]
        assert got == ["probe/0", "probe/1"]      # replay yields no dups

    def test_timeout_bounds_the_watch(self, tmp_path):
        clock = {"now": 0.0}

        def fake_sleep(dt):
            clock["now"] += dt

        watch = SweepWatch(journal_path=tmp_path / "missing.jsonl",
                           sleep=fake_sleep,
                           clock=lambda: clock["now"])
        assert list(watch.iter_results(timeout=1.0)) == []
        assert clock["now"] >= 1.0


class TestIterEvents:
    def test_tails_the_bus(self, tmp_path):
        path = tmp_path / "bus.ndjson"
        with bus.EventBus(path, "run1") as writer:
            writer.emit("sweep-begin", tasks=2)
            writer.emit("completed", key="probe/0")
        watch = SweepWatch(bus_path=path, run_id="run1")
        kinds = [e["kind"] for e in watch.iter_events(follow=False)]
        assert kinds == ["sweep-begin", "completed"]
