"""The `repro top` model: folding bus events into a dashboard."""

from __future__ import annotations

from repro.obs import bus, top


def _events():
    """A miniature sweep narrated on the bus, as raw records."""
    return [
        {"kind": "sweep-begin", "run_id": "run1", "tasks": 4, "workers": 2,
         "slots": 2, "t": 100.0},
        {"kind": "admitted", "key": "a/0", "slot": 0, "shard": "s0",
         "t": 100.1},
        {"kind": "admitted", "key": "a/1", "slot": 0, "shard": "s0",
         "t": 100.1},
        {"kind": "admitted", "key": "b/0", "slot": 1, "shard": "s1",
         "t": 100.1},
        {"kind": "started", "key": "a/0", "slot": 0, "attempt": 1,
         "stolen": False, "t": 100.2},
        {"kind": "stolen", "key": "b/0", "slot": 1, "t": 100.2},
        {"kind": "started", "key": "b/0", "slot": 1, "attempt": 1,
         "stolen": True, "t": 100.3},
        {"kind": "completed", "key": "a/0", "slot": 0, "attempt": 1,
         "duration": 0.8, "t": 101.0},
        {"kind": "tick", "done": 1, "idle": 1, "dead": 0, "t": 101.0},
        {"kind": "beat-stale", "key": "b/0", "slot": 1, "hung": True,
         "latency": 0.7, "t": 101.0},
        {"kind": "killed", "key": "b/0", "slot": 1, "hung": True,
         "t": 101.0},
        {"kind": "retried", "key": "b/0", "attempt": 1, "t": 101.0},
        {"kind": "completed", "key": "b/0", "slot": 0, "attempt": 2,
         "duration": 0.5, "t": 102.0},
    ]


class TestTopModel:
    def test_fold_counts_and_state(self):
        model = top.TopModel.fold(_events())
        assert model.run_id == "run1"
        assert model.tasks == 4
        assert model.done == 2
        assert model.counts["stolen"] == 1
        assert model.counts["killed"] == 1
        assert model.counts["retried"] == 1
        assert model.workers[0]["state"] == "idle"
        assert model.workers[1]["state"] == "dead"
        # a/1 admitted to shard s0 and never started: still queued.
        assert model.queue_depth["s0"] == 1
        assert model.queue_depth["s1"] == 0

    def test_throughput_and_eta(self):
        model = top.TopModel.fold(_events())
        # 2 done over 2 observed seconds.
        assert model.throughput() == 1.0
        assert model.eta_seconds() == 2.0
        model.finished = True
        assert model.eta_seconds() == 0.0

    def test_render_mentions_the_load_bearing_numbers(self):
        frame = top.TopModel.fold(_events()).render()
        assert "2/4 tasks" in frame
        assert "run1" in frame
        assert "steals 1" in frame
        assert "kills 1" in frame
        assert "queues   s0 1" in frame
        assert "1:dead" in frame

    def test_pool_rebuild_revives_slot(self):
        events = _events() + [
            {"kind": "pool-rebuilt", "slot": 1, "rebuilds": 1, "t": 102.5},
        ]
        model = top.TopModel.fold(events)
        assert model.workers[1]["state"] == "idle"

    def test_sweep_end_finishes(self):
        events = _events() + [
            {"kind": "sweep-end", "done": 4, "shelved": 0, "t": 103.0},
        ]
        model = top.TopModel.fold(events)
        assert model.finished
        assert model.done == 4
        assert "sweep complete" in model.render()


class TestPrometheus:
    def test_exposition_format(self):
        text = top.TopModel.fold(_events()).prometheus_text()
        assert text.endswith("\n")
        assert "repro_sweep_tasks_total 4" in text
        assert "repro_sweep_done_total 2" in text
        assert 'repro_sweep_events_total{kind="stolen"} 1' in text
        assert 'repro_sweep_workers{state="dead"} 1' in text
        assert 'repro_sweep_queue_depth{shard="s0"} 1' in text
        # Every non-comment line is `name{labels} value` or `name value`.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name and float(value) >= 0

    def test_snapshot_written_atomically(self, tmp_path):
        model = top.TopModel.fold(_events())
        path = top.write_snapshot(model, tmp_path / "metrics.prom")
        assert path.read_text() == model.prometheus_text()
        assert not (tmp_path / "metrics.prom.tmp").exists()


class TestCli:
    def test_once_renders_and_snapshots(self, tmp_path, capsys):
        bus_path = tmp_path / "bus.ndjson"
        with bus.EventBus(bus_path, "run1") as writer:
            for event in _events():
                record = dict(event)
                kind = record.pop("kind")
                record.pop("t", None)
                writer.emit(kind, **record)
        metrics = tmp_path / "metrics.prom"
        rc = top.main(["--bus", str(bus_path), "--metrics", str(metrics),
                       "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2/4 tasks" in out
        assert "repro_sweep_done_total 2" in metrics.read_text()

    def test_flush_records_after_sweep_end_change_nothing(self, tmp_path,
                                                          capsys):
        """``metrics``/``trace`` records appended after ``sweep-end``
        neither count nor stretch the observed sweep time."""
        scheduler = _events() + [
            {"kind": "sweep-end", "done": 4, "shelved": 0, "t": 103.0}]
        flushed = scheduler[:-1] + [
            {"kind": "trace", "event": {"name": "task", "ph": "X"},
             "t": 102.5},
            scheduler[-1],
            {"kind": "metrics", "tag": "sweep", "counters": {"x": 1},
             "histograms": {}, "t": 150.0},
            {"kind": "trace", "event": {"name": "log", "ph": "i"},
             "t": 160.0},
        ]
        frames = []
        for name, events in (("scheduler", scheduler), ("flushed", flushed)):
            path = tmp_path / f"{name}.ndjson"
            clock = iter(e["t"] for e in events)
            with bus.EventBus(path, "run1", clock=lambda: next(clock)) \
                    as writer:
                for event in events:
                    record = dict(event)
                    kind = record.pop("kind")
                    record.pop("t")
                    record.pop("run_id", None)
                    writer.emit(kind, **record)
            metrics = tmp_path / f"{name}.prom"
            assert top.main(["--bus", str(path), "--metrics", str(metrics),
                             "--once"]) == 0
            frames.append((capsys.readouterr().out, metrics.read_text()))
        assert frames[0] == frames[1]
        assert "1.33 tasks/s" in frames[0][0]      # 4 done over 3 s
