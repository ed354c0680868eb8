"""The hard constraint: enabling observability changes no simulated cycle.

Fault-free sweeps — and sweeps that exercise the recoverable guest-fault
path — must produce bit-identical metrics with the subsystem on and off,
and the structured logger must land diagnostics in the bus with
observability on and print them to stderr under ``REPRO_DEBUG``.
"""

from __future__ import annotations

import json

from repro import obs
from repro.accel.algorithms import prop_bytes_for
from repro.core.config import HardwareScale, demand_faulting_config
from repro.obs import bus as obs_bus
from repro.obs import core
from repro.obs import log as obs_log
from repro.sim.resilience import ResilienceReport
from repro.sim.runner import ExperimentRunner
from repro.sim.system import HeterogeneousSystem

PAIRS = [("bfs", "FR")]


def _sweep_metrics():
    runner = ExperimentRunner(profile="bench", scale=HardwareScale.bench())
    out = runner.run_pairs(pairs=PAIRS)
    return {"/".join(k): v.to_dict() for k, v in out.items()}


def _faulting_metrics():
    """One run that services recoverable guest faults (swapped pages)."""
    runner = ExperimentRunner(profile="bench", scale=HardwareScale.bench())
    prepared = runner.prepare("bfs", "FR")
    config = runner.configs()["dvm_pe"]
    system = HeterogeneousSystem(config, runner.params)
    system.load_graph(prepared.graph, prop_bytes=prop_bytes_for("bfs"))
    system.apply_reclaim_pressure(0.3)
    metrics = system.run(prepared.result.trace, workload="bfs", graph="FR")
    return metrics.to_dict()


#: Registry series a serviced guest fault feeds.
_FAULT_SERIES = ("fault.kind", "kernel.fault.serviced",
                 "kernel.reclaim.pages_swapped_in")


def _fault_observations(engine: str) -> dict:
    """Fault observations of demand and swap runs under one engine."""
    obs.reset()
    runner = ExperimentRunner(profile="bench", scale=HardwareScale.bench())
    prepared = runner.prepare("bfs", "FR")
    configs = runner.configs()
    modes = ((demand_faulting_config(configs["conv_4k"]), None),
             (configs["dvm_pe"], 0.3), (configs["dvm_bm"], 0.3))
    for config, pressure in modes:
        system = HeterogeneousSystem(config, runner.params)
        system.load_graph(prepared.graph, prop_bytes=prop_bytes_for("bfs"))
        if pressure is not None:
            system.apply_reclaim_pressure(pressure)
        system.run_trace(prepared.result.trace, engine=engine)
    snap = obs.snapshot()
    registry = snap["registry"]
    series = {kind: {key: value for key, value in registry[kind].items()
                     if key.startswith(_FAULT_SERIES)}
              for kind in ("counters", "histograms")}
    return {"series": series,
            "instants": [e["args"] for e in snap["events"]
                         if e["name"] == "fault-service"],
            "accepted": sum(value for key, value
                            in registry["counters"].items()
                            if key.startswith("fastpath.accepted"))}


class TestFaultObservations:
    def test_batch_delivery_observes_like_the_scalar_loops(self, obs_enabled):
        # Pre-delivery's batch pass records every serviced fault as the
        # per-fault path does: same counters, same fault-service
        # instants in the same order.
        scalar = _fault_observations("scalar")
        fast = _fault_observations("fast")
        assert fast["accepted"] == 3 and scalar["accepted"] == 0
        assert scalar["instants"], "the runs must service guest faults"
        kinds = {args["kind"] for args in scalar["instants"]}
        assert kinds == {"major", "swap"}
        assert fast["series"] == scalar["series"]
        assert fast["instants"] == scalar["instants"]


class TestBitIdentical:
    def test_fault_free_sweep(self, tmp_path):
        core.configure(enabled=False)
        off = _sweep_metrics()
        core.configure(enabled=True, out_dir=str(tmp_path))
        obs.reset()
        on = _sweep_metrics()
        assert json.dumps(on, sort_keys=True) \
            == json.dumps(off, sort_keys=True)
        # ... and the enabled run actually observed something.
        assert core.REGISTRY.counters

    def test_faulting_run(self, tmp_path):
        core.configure(enabled=False)
        off = _faulting_metrics()
        assert off["faults"] > 0, "reclaim pressure must cause guest faults"
        core.configure(enabled=True, out_dir=str(tmp_path))
        obs.reset()
        on = _faulting_metrics()
        assert json.dumps(on, sort_keys=True) \
            == json.dumps(off, sort_keys=True)
        # Every serviced fault is observed exactly once, by kind.
        kinds = [counter.value for key, counter
                 in core.REGISTRY.counters.items()
                 if key.startswith("fault.kind")]
        assert kinds, "serviced faults must be counted by kind"
        assert sum(kinds) == on["faults"]

    def test_parallel_sweep_with_workers_observed(self, tmp_path,
                                                  monkeypatch):
        core.configure(enabled=False)
        serial_off = _sweep_metrics()
        monkeypatch.setenv(core.OBS_ENV_VAR, "1")
        monkeypatch.setenv(core.OBS_DIR_ENV_VAR, str(tmp_path))
        core.refresh_from_env()
        obs.reset()
        runner = ExperimentRunner(profile="bench",
                                  scale=HardwareScale.bench())
        out = runner.run_pairs(pairs=[("bfs", "FR"), ("pagerank", "FR")],
                               workers=2)
        parallel_on = {"/".join(k): v.to_dict() for k, v in out.items()
                       if k[:2] == ("bfs", "FR")}
        assert json.dumps(parallel_on, sort_keys=True) \
            == json.dumps(serial_off, sort_keys=True)
        # Worker observations were shipped back and merged.
        pids = {e["pid"] for e in obs.snapshot()["events"]}
        assert len(pids) >= 2

    def test_parallel_sweep_bit_identical_with_bus(self, tmp_path,
                                                   monkeypatch):
        """The event bus is pure telemetry: a sweep narrated onto the
        bus merges bit-identically to an unobserved one."""
        pairs = [("bfs", "FR"), ("pagerank", "FR")]

        def parallel_metrics():
            obs.reset()
            runner = ExperimentRunner(profile="bench",
                                      scale=HardwareScale.bench())
            out = runner.run_pairs(pairs=pairs, workers=2)
            return {"/".join(k): v.to_dict() for k, v in out.items()}

        monkeypatch.setenv(core.OBS_ENV_VAR, "0")
        monkeypatch.setenv(core.OBS_DIR_ENV_VAR, str(tmp_path))
        core.refresh_from_env()
        obs_off = parallel_metrics()
        assert not (tmp_path / obs_bus.BUS_FILENAME).exists()
        monkeypatch.setenv(core.OBS_ENV_VAR, "1")
        core.refresh_from_env()
        bus_on = parallel_metrics()
        assert json.dumps(bus_on, sort_keys=True) \
            == json.dumps(obs_off, sort_keys=True)
        # The enabled run narrated the whole task lifecycle.
        records = obs_bus.read_events(tmp_path / obs_bus.BUS_FILENAME)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "sweep-begin" and kinds[-1] == "sweep-end"
        for kind in ("admitted", "started", "completed"):
            assert kind in kinds
        assert len({r["run_id"] for r in records}) == 1


class TestTelemetryOutputHygiene:
    def test_heartbeat_goes_to_stderr_not_stdout(self, obs_enabled, capsys):
        _sweep_metrics()
        captured = capsys.readouterr()
        assert "[obs] sweep" in captured.err
        assert "[obs]" not in captured.out    # golden tables stay clean

    def test_no_heartbeat_when_disabled(self, capsys):
        core.configure(enabled=False)
        _sweep_metrics()
        assert "[obs]" not in capsys.readouterr().err


def _log_records(obs_dir):
    """The ``log`` instants' fields, as flushed into the bus."""
    events = obs_bus.trace_events(
        obs_bus.read_events(obs_dir / obs_bus.BUS_FILENAME))
    return [e["args"] for e in events if e["name"] == "log"]


class TestStructuredDebugRouting:
    def test_debug_lands_in_obs_dir(self, obs_enabled, monkeypatch,
                                    capsys):
        monkeypatch.delenv(obs_log.DEBUG_ENV_VAR, raising=False)
        record = obs_log.debug("native", "compile failed", cache="/x")
        assert record["subsystem"] == "native"
        obs.flush(tag="debug")
        (entry,) = _log_records(obs_enabled)
        assert entry["message"] == "compile failed"
        assert entry["cache"] == "/x"
        assert capsys.readouterr().err == ""   # stderr needs REPRO_DEBUG

    def test_both_sinks_with_obs_and_repro_debug(self, obs_enabled,
                                                 monkeypatch, capsys):
        monkeypatch.setenv(obs_log.DEBUG_ENV_VAR, "1")
        obs_log.debug("native", "compile failed", error="boom")
        obs.flush(tag="debug")
        assert [e["error"] for e in _log_records(obs_enabled)] == ["boom"]
        assert "[repro.native] compile failed" in capsys.readouterr().err

    def test_stderr_fallback_with_repro_debug(self, monkeypatch, capsys):
        core.configure(enabled=False)
        monkeypatch.setenv(obs_log.DEBUG_ENV_VAR, "1")
        obs_log.debug("native", "compile failed", error="boom")
        err = capsys.readouterr().err
        assert "[repro.native] compile failed" in err
        assert "error=boom" in err

    def test_silent_without_either_switch(self, monkeypatch, capsys):
        core.configure(enabled=False)
        monkeypatch.delenv(obs_log.DEBUG_ENV_VAR, raising=False)
        assert obs_log.debug("native", "nothing") is None
        assert capsys.readouterr().err == ""

    def test_native_debug_routes_through_logger(self, obs_enabled,
                                                monkeypatch):
        from repro.sim import _native
        _native._debug("no C compiler or kernel source")
        obs.flush(tag="native")
        assert _log_records(obs_enabled)[-1]["subsystem"] == "native"


class TestResilienceReportCacheCounters:
    def test_cache_counts_are_informational(self):
        report = ResilienceReport()
        report.cache_hits = 10
        report.cache_misses = 3
        assert report.events() == 0
        report.retries = 1
        assert report.events() == 1

    def test_render_mentions_cache_activity(self):
        report = ResilienceReport(retries=1)
        report.cache_hits = 5
        assert "cache hits: 5" in report.render()
