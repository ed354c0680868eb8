"""Heartbeat telemetry: format, throttling, and the trace instant."""

from __future__ import annotations

import io

import pytest

from repro.common.errors import ConfigError
from repro.obs import core, trace
from repro.obs.progress import Heartbeat, heartbeat_interval


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestHeartbeat:
    def test_line_format(self, tmp_path):
        core.configure(enabled=True, out_dir=str(tmp_path))
        clock = FakeClock()
        stream = io.StringIO()
        hb = Heartbeat(15, stream=stream, clock=clock, interval=0)
        clock.now += 10
        line = hb.update(5, cache_hits=42, cache_misses=7, retries=1,
                         faults=3)
        assert line == ("[obs] sweep 5/15 pairs | cache 42h/7m | retries 1"
                        " | faults 3 | elapsed 10s | eta 20s")
        assert stream.getvalue() == line + "\n"
        beats = [e for e in trace.COLLECTOR.events
                 if e["name"] == "heartbeat"]
        assert [e["args"]["line"] for e in beats] == [line]
        assert beats[0]["cat"] == "obs" and beats[0]["ph"] == "i"

    def test_throttled_between_updates(self):
        clock = FakeClock()
        hb = Heartbeat(10, stream=io.StringIO(), clock=clock, interval=30)
        assert hb.update(1) is not None
        clock.now += 5
        assert hb.update(2) is None          # inside the interval
        clock.now += 30
        assert hb.update(3) is not None      # interval elapsed

    def test_final_update_always_emitted(self):
        clock = FakeClock()
        hb = Heartbeat(3, stream=io.StringIO(), clock=clock, interval=1e9)
        assert hb.update(1) is not None
        assert hb.update(2) is None
        line = hb.update(3)
        assert line is not None and "eta done" in line

    def test_no_log_written_when_disabled(self):
        # Obs disabled: stderr only, nothing recorded on the collector.
        core.configure(enabled=False)
        hb = Heartbeat(2, stream=io.StringIO(), clock=FakeClock(),
                       interval=0)
        assert hb.update(1) is not None
        assert trace.COLLECTOR.events == []

    def test_scheduler_columns(self):
        clock = FakeClock()
        hb = Heartbeat(15, stream=io.StringIO(), clock=clock, interval=0)
        clock.now += 10
        line = hb.update(5, cache_hits=42, cache_misses=7, retries=1,
                         faults=3, queue_depth=9, steals=2)
        assert line == ("[obs] sweep 5/15 pairs | cache 42h/7m | retries 1"
                        " | faults 3 | q 9 | steals 2"
                        " | elapsed 10s | eta 20s")

    def test_interval_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_HEARTBEAT", "2.5")
        assert heartbeat_interval() == 2.5
        monkeypatch.setenv("REPRO_OBS_HEARTBEAT", "junk")
        # Library code raises ConfigError (never SystemExit); the CLI
        # boundary in repro.__main__ turns it into an exit code.
        with pytest.raises(ConfigError):
            heartbeat_interval()
        monkeypatch.delenv("REPRO_OBS_HEARTBEAT")
        assert heartbeat_interval() == 0.0
