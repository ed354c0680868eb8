"""Event-bus crash consistency: sealing, torn tails, and the tailer."""

from __future__ import annotations

import json

import pytest

from repro.common import recordlog
from repro.obs import bus, core


def _lines(path):
    return [line for line in path.read_bytes().split(b"\n") if line]


class TestRecords:
    def test_seal_round_trips(self):
        sealed = recordlog.seal({"kind": "started", "key": "bfs/FR", "seq": 0})
        assert sealed.endswith(b"\n")
        record = recordlog.open_record(sealed.rstrip(b"\n"))
        assert record == {"kind": "started", "key": "bfs/FR", "seq": 0}

    def test_corrupt_line_rejected(self):
        sealed = recordlog.seal({"kind": "started", "seq": 0}).rstrip(b"\n")
        assert recordlog.open_record(sealed[:-4] + b"beef") is None
        assert recordlog.open_record(b"not json at all") is None
        assert recordlog.open_record(b"[1, 2]") is None

    def test_emit_carries_schema_run_id_and_seq(self, tmp_path):
        with bus.EventBus(tmp_path / "bus.ndjson", "run42",
                          clock=lambda: 123.456) as writer:
            first = writer.emit("sweep-begin", tasks=3)
            second = writer.emit("admitted", key="probe/0")
        assert first["v"] == bus.BUS_SCHEMA
        assert (first["run_id"], first["seq"]) == ("run42", 0)
        assert (second["run_id"], second["seq"]) == ("run42", 1)
        assert first["t"] == 123.456
        records = bus.read_events(tmp_path / "bus.ndjson")
        assert [r["kind"] for r in records] == ["sweep-begin", "admitted"]


class TestTornTail:
    def test_new_writer_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "bus.ndjson"
        with bus.EventBus(path, "a") as writer:
            writer.emit("sweep-begin")
            writer.emit("admitted", key="k")
        # Simulate a crash mid-append: a partial trailing record.
        good = path.read_bytes()
        torn = recordlog.seal({"kind": "started", "key": "k"})[:10]
        path.write_bytes(good + torn)
        with bus.EventBus(path, "b") as writer:
            writer.emit("sweep-begin")
        records = bus.read_events(path)
        assert [r["kind"] for r in records] \
            == ["sweep-begin", "admitted", "sweep-begin"]
        assert all(recordlog.open_record(line) for line in _lines(path))

    def test_good_prefix_stops_at_first_bad_line(self, tmp_path):
        good = recordlog.seal({"kind": "a"}) + recordlog.seal({"kind": "b"})
        bad = b'{"kind": "forged"}\n' + recordlog.seal({"kind": "c"})
        assert recordlog.scan(good + bad)[1] == len(good)
        assert recordlog.scan(good)[1] == len(good)
        assert recordlog.scan(good + b"partial")[1] == len(good)

    def test_reader_never_yields_unterminated_tail(self, tmp_path):
        path = tmp_path / "bus.ndjson"
        sealed = recordlog.seal({"kind": "started", "key": "k"})
        path.write_bytes(recordlog.seal({"kind": "sweep-begin"}) + sealed[:-5])
        records = bus.read_events(path)
        assert [r["kind"] for r in records] == ["sweep-begin"]
        # The writer finishes the append: the record appears whole.
        with open(path, "ab") as fh:
            fh.write(sealed[-5:])
        records = bus.read_events(path)
        assert [r["kind"] for r in records] == ["sweep-begin", "started"]


class TestTailer:
    def test_follow_yields_appends_and_stops(self, tmp_path):
        path = tmp_path / "bus.ndjson"
        writer = bus.EventBus(path, "r")
        writer.emit("sweep-begin")
        seen = []
        appended = {"done": False}

        def fake_sleep(_):
            # Mid-tail, more records land; then the producer finishes.
            if not appended["done"]:
                writer.emit("completed", key="k")
                writer.emit("sweep-end")
                appended["done"] = True

        tail = recordlog.tail(path, sleep=fake_sleep,
                              stop=lambda: appended["done"])
        for record in tail:
            seen.append(record["kind"])
        writer.close()
        assert seen == ["sweep-begin", "completed", "sweep-end"]

    def test_run_id_filter(self, tmp_path):
        path = tmp_path / "bus.ndjson"
        with bus.EventBus(path, "one") as writer:
            writer.emit("sweep-begin")
        with bus.EventBus(path, "two") as writer:
            writer.emit("sweep-begin")
        assert len(bus.read_events(path)) == 2
        only = bus.read_events(path, run_id="two")
        assert [r["run_id"] for r in only] == ["two"]

    def test_timeout_bounds_the_wait(self, tmp_path):
        clock = {"now": 0.0}

        def fake_clock():
            return clock["now"]

        def fake_sleep(dt):
            clock["now"] += dt

        records = list(recordlog.tail(tmp_path / "missing.ndjson",
                                      timeout=1.0, sleep=fake_sleep,
                                      clock=fake_clock))
        assert records == []
        assert clock["now"] >= 1.0

    def test_truncation_resets_the_tail(self, tmp_path):
        path = tmp_path / "bus.ndjson"
        with bus.EventBus(path, "a") as writer:
            writer.emit("sweep-begin")
            writer.emit("admitted", key="k")
        first = list(bus.read_events(path))
        # A new writer truncates back past what we already read.
        path.write_bytes(recordlog.seal({"kind": "fresh"}))
        state = {"rounds": 0}

        def fake_sleep(_):
            state["rounds"] += 1

        tail = recordlog.tail(path, sleep=fake_sleep,
                              stop=lambda: state["rounds"] >= 1)
        replayed = [r["kind"] for r in tail]
        assert [r["kind"] for r in first] == ["sweep-begin", "admitted"]
        assert replayed[-1] == "fresh"


class TestWiring:
    def test_null_bus_when_disabled(self, monkeypatch):
        monkeypatch.delenv(core.OBS_ENV_VAR, raising=False)
        core.refresh_from_env()
        assert bus.sweep_bus("r") is bus.NULL_BUS
        assert bus.NULL_BUS.emit("anything", key="k") is None

    def test_bus_path_is_in_obs_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(core.OBS_ENV_VAR, "1")
        monkeypatch.setenv(core.OBS_DIR_ENV_VAR, str(tmp_path))
        core.refresh_from_env()
        assert bus.bus_path() == tmp_path / bus.BUS_FILENAME
        assert bus.sweep_bus("r").path == tmp_path / bus.BUS_FILENAME

    def test_dead_bus_after_io_error(self, tmp_path):
        writer = bus.EventBus(tmp_path / "bus.ndjson", "r")
        assert writer.emit("sweep-begin") is not None
        writer._handle.close()      # simulate the handle dying
        assert writer.emit("next") is None
        assert writer._dead
        assert writer.emit("after") is None      # dead stays dead

    def test_records_are_valid_json_lines(self, tmp_path):
        path = tmp_path / "bus.ndjson"
        with bus.EventBus(path, "r") as writer:
            for i in range(5):
                writer.emit("tick", resident=i)
        for line in _lines(path):
            record = json.loads(line.decode())
            assert record["kind"] == "tick"


@pytest.fixture(autouse=True)
def _restore_obs_state():
    yield
    core.refresh_from_env()
