"""Trace spans, Chrome/Perfetto export, and export determinism."""

from __future__ import annotations

import json

import pytest

from repro.core.config import HardwareScale
from repro.obs import core, trace
from repro.obs.trace import TraceCollector, chrome_trace, comparable, \
    validate_chrome, write_chrome
from repro.sim.runner import ExperimentRunner


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


class TestSpans:
    def test_nesting_depth_recorded(self):
        collector = TraceCollector(clock=FakeClock())
        with collector.span("sweep"):
            with collector.span("pair", cat="pair", workload="bfs"):
                pass
        events = collector.drain()
        assert [e["name"] for e in events] == ["pair", "sweep"]
        assert events[0]["args"]["depth"] == 1
        assert events[1]["args"]["depth"] == 0
        assert events[0]["args"]["workload"] == "bfs"
        assert all(e["ph"] == "X" and e["dur"] > 0 for e in events)

    def test_exception_annotated_and_propagated(self):
        collector = TraceCollector(clock=FakeClock())
        with pytest.raises(ValueError):
            with collector.span("boom"):
                raise ValueError("nope")
        (event,) = collector.drain()
        assert event["args"]["error"] == "ValueError"

    def test_instant_event(self):
        collector = TraceCollector(clock=FakeClock())
        with collector.span("outer"):
            collector.instant("fault-service", cat="fault", kind="major")
        events = collector.drain()
        assert events[0]["ph"] == "i"
        assert events[0]["args"]["depth"] == 1

    def test_module_span_noop_when_disabled(self):
        core.configure(enabled=False)
        with trace.span("ignored"):
            trace.instant("also-ignored")
        assert trace.COLLECTOR.events == []

    def test_absorb_merges_other_process_events(self):
        collector = TraceCollector(clock=FakeClock())
        collector.absorb([{"name": "w", "ph": "X", "ts": 1, "dur": 2,
                           "pid": 999, "tid": 1, "args": {}}])
        assert collector.events[0]["pid"] == 999


class TestFlowEvents:
    def test_flow_id_is_deterministic_and_process_safe(self):
        fid = trace.flow_id("bfs/FR#a1")
        assert isinstance(fid, int)
        assert fid == trace.flow_id("bfs/FR#a1")
        assert fid != trace.flow_id("bfs/FR#a2")

    def test_flow_pair_links_scheduler_to_worker(self):
        collector = TraceCollector(clock=FakeClock())
        fid = trace.flow_id("k#a1")
        start = collector._clock()
        collector.flow("s", "task-flow", "sched", fid, ts=start)
        with collector.span("task", cat="sched", key="k"):
            collector.flow("f", "task-flow", "sched", fid)
        events = collector.events
        flows = [e for e in events if e["ph"] in trace.FLOW_PHASES]
        assert [e["ph"] for e in flows] == ["s", "f"]
        assert all(e["id"] == fid for e in flows)
        assert all((e["cat"], e["name"]) == ("sched", "task-flow")
                   for e in flows)
        # Binding point "enclosing": the finish attaches to the slice
        # it was emitted inside, not the next one.
        assert "bp" not in flows[0]
        assert flows[1]["bp"] == "e"

    def test_complete_records_unnested_span(self):
        collector = TraceCollector(clock=FakeClock())
        start = collector._clock()
        end = collector._clock()
        collector.complete("task-queued", "sched", start, end, key="k")
        (event,) = collector.events
        assert event["ph"] == "X"
        assert event["dur"] > 0
        assert event["args"]["key"] == "k"

    def test_validator_accepts_flows_and_wants_ids(self):
        collector = TraceCollector(clock=FakeClock())
        collector.flow("s", "task-flow", "sched", 42)
        payload = chrome_trace(collector.drain(), run_id="f")
        assert validate_chrome(payload) == []
        bad = {"traceEvents": [{"name": "task-flow", "ph": "s", "ts": 0,
                                "pid": 1, "tid": 1}]}
        assert any("flow event without 'id'" in p
                   for p in validate_chrome(bad))

    def test_comparable_keeps_flow_identity(self):
        collector = TraceCollector(clock=FakeClock())
        collector.flow("s", "task-flow", "sched", 42)
        (clean,) = comparable(collector.drain())
        assert clean["id"] == 42 and "ts" not in clean

    def test_module_flow_helpers_noop_when_disabled(self):
        core.configure(enabled=False)
        assert trace.now() == 0.0
        trace.complete("task-run", "sched", 0.0, 0.0)
        trace.flow("s", "task-flow", "sched", 1)
        assert trace.COLLECTOR.events == []


class TestChromeExport:
    def _events(self):
        collector = TraceCollector(clock=FakeClock())
        with collector.span("sweep", cat="sweep"):
            collector.instant("fault-service", cat="fault")
        return collector.drain()

    def test_schema_valid(self):
        payload = chrome_trace(self._events(), run_id="r1")
        assert validate_chrome(payload) == []
        assert payload["otherData"]["run_id"] == "r1"
        names = [e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M"]
        assert "main" in names

    def test_validator_catches_problems(self):
        assert validate_chrome({}) == ["missing or non-list 'traceEvents'"]
        bad = {"traceEvents": [{"name": "x", "ph": "Z", "ts": "later",
                                "pid": 1, "tid": 1},
                               {"name": "y", "ph": "X", "ts": 0,
                                "pid": 1, "tid": 1}]}
        problems = validate_chrome(bad)
        assert any("unknown phase" in p for p in problems)
        assert any("non-numeric 'ts'" in p for p in problems)
        assert any("without 'dur'" in p for p in problems)

    def test_file_round_trip(self, tmp_path):
        events = self._events()
        write_chrome(tmp_path / "t.json", events, run_id="rt")
        loaded = json.loads((tmp_path / "t.json").read_text())
        assert validate_chrome(loaded) == []

    def test_comparable_strips_timing_identity(self):
        events = self._events()
        clean = comparable(events)
        assert all("ts" not in e and "dur" not in e and "pid" not in e
                   for e in clean)
        assert [e["name"] for e in clean] == [e["name"] for e in events]


class TestStitchedSweep:
    """Tentpole: one Perfetto trace spanning scheduler and workers."""

    def test_parallel_sweep_stitches_worker_spans(self, tmp_path,
                                                  monkeypatch):
        from repro import obs
        from repro.sweep.cli import run_probe_sweep

        # Workers re-read the obs switch from the environment, so the
        # stitched trace needs env-level enablement, not configure().
        monkeypatch.setenv(core.OBS_ENV_VAR, "1")
        monkeypatch.setenv(core.OBS_DIR_ENV_VAR, str(tmp_path))
        core.refresh_from_env()
        obs.reset()
        run_probe_sweep(24, workers=2)
        events = trace.COLLECTOR.drain()
        # Spans from the scheduler process AND shipped worker spans.
        assert len({e["pid"] for e in events}) >= 2
        names = {e["name"] for e in events}
        assert {"task-queued", "task-run", "task"} <= names
        # Every flow start (scheduler side) meets a flow finish
        # (worker side) under the same deterministic id.
        starts = {e["id"] for e in events if e["ph"] == "s"}
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert starts and starts == finishes
        assert validate_chrome(chrome_trace(events, run_id="s")) == []


class TestExportDeterminism:
    """Satellite: same seed + sweep => identical stream modulo timestamps."""

    def _sweep_stream(self, obs_enabled):
        from repro import obs
        obs.reset()
        runner = ExperimentRunner(profile="bench",
                                  scale=HardwareScale.bench())
        runner.run_pairs(pairs=[("bfs", "FR")])
        registry = core.REGISTRY.to_dict()
        events = trace.COLLECTOR.drain()
        return registry, events

    def test_event_stream_and_registry_deterministic(self, obs_enabled):
        reg_a, events_a = self._sweep_stream(obs_enabled)
        reg_b, events_b = self._sweep_stream(obs_enabled)
        assert comparable(events_a) == comparable(events_b)
        assert json.dumps(reg_a, sort_keys=True) \
            == json.dumps(reg_b, sort_keys=True)

    def test_sweep_trace_is_perfetto_loadable(self, obs_enabled):
        _reg, events = self._sweep_stream(obs_enabled)
        assert events, "an observed sweep must produce span events"
        names = {e["name"] for e in events}
        assert {"sweep", "pair", "attempt", "timing"} <= names
        assert validate_chrome(chrome_trace(events, run_id="d")) == []
