"""Bus crash consistency under scheduler chaos.

The event bus is telemetry riding shotgun on a fault-injected sweep: it
must never perturb the sweep's merged output (bit-identical with
observability on or off), and every record that reaches the stream must
validate — crashes, retries and torn tails included.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.common import faults, recordlog
from repro.obs import bus as obs_bus
from repro.obs import core as obs_core
from repro.sweep.cli import merged_digest, run_probe_sweep
from repro.sweep.tasks import _execute_probe

PROBES = 60
PAIR_TIMEOUT = 30.0
#: Enough scheduler-side churn (crashes, retries) to exercise the
#: interesting emission sites without slow hang-detection waits.
CHAOS_SPEC = "worker_crash:0.05:4"


@pytest.fixture(autouse=True)
def chaos_env(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_HEARTBEAT", "0.05")
    monkeypatch.setenv("REPRO_HANG_SECONDS", "2.0")
    yield
    faults.reset()


@pytest.fixture
def obs_enabled(monkeypatch, tmp_path):
    saved_enabled = obs_core.ENABLED
    saved_override = obs_core._out_dir_override
    monkeypatch.setenv(obs_core.OBS_ENV_VAR, "1")
    monkeypatch.setenv(obs_core.OBS_DIR_ENV_VAR, str(tmp_path / "obs"))
    obs_core.refresh_from_env()
    obs.reset()
    yield tmp_path / "obs"
    obs_core.ENABLED = saved_enabled
    obs_core._out_dir_override = saved_override
    obs.reset()


@pytest.fixture(scope="module")
def probe_reference():
    results = {seed: _execute_probe({}, dict(seed=seed, spin=200))
               [0][0][1]["value"] for seed in range(PROBES)}
    return merged_digest(results)


def _bus_lines(path):
    return [line for line in path.read_bytes().split(b"\n") if line]


class TestBusUnderChaos:
    def test_chaotic_sweep_streams_only_valid_records(self, obs_enabled,
                                                      probe_reference):
        faults.configure(CHAOS_SPEC, seed=7)
        results, service = run_probe_sweep(PROBES, workers=4,
                                           pair_timeout=PAIR_TIMEOUT)
        assert merged_digest(results) == probe_reference
        bus_file = obs_enabled / obs_bus.BUS_FILENAME
        assert bus_file.exists()
        records = [recordlog.open_record(line)
                   for line in _bus_lines(bus_file)]
        assert records and all(r is not None for r in records)
        kinds = {r["kind"] for r in records}
        assert {"sweep-begin", "admitted", "started", "completed",
                "sweep-end"} <= kinds
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # Every record belongs to this sweep's run.
        assert {r["run_id"] for r in records} == {service.run_id}
        # The stream saw every task complete, each after a dispatch
        # (parallel "started") or a serial-tier fallback ("serial").
        started = {r["key"] for r in records if r["kind"] == "started"}
        serial = {r["key"] for r in records if r["kind"] == "serial"}
        completed = {r["key"] for r in records if r["kind"] == "completed"}
        assert len(completed) == PROBES
        assert completed <= started | serial

    def test_digest_identical_bus_on_off_and_vetoed(self, monkeypatch,
                                                    obs_enabled,
                                                    probe_reference):
        faults.configure(CHAOS_SPEC, seed=7)
        on, _ = run_probe_sweep(PROBES, workers=4,
                                pair_timeout=PAIR_TIMEOUT)
        faults.reset()
        monkeypatch.setenv(obs_core.OBS_ENV_VAR, "0")
        obs_core.refresh_from_env()
        faults.configure(CHAOS_SPEC, seed=7)
        off, _ = run_probe_sweep(PROBES, workers=4,
                                 pair_timeout=PAIR_TIMEOUT)
        assert merged_digest(on) == probe_reference
        assert merged_digest(off) == probe_reference

    def test_sweep_truncates_predecessors_torn_tail(self, obs_enabled,
                                                    probe_reference):
        """A crashed predecessor's half-written record must not poison
        the stream the next sweep appends to."""
        bus_file = obs_enabled / obs_bus.BUS_FILENAME
        bus_file.parent.mkdir(parents=True, exist_ok=True)
        good = recordlog.seal({"kind": "sweep-begin", "run_id": "dead",
                             "seq": 0})
        torn = recordlog.seal({"kind": "admitted", "run_id": "dead",
                             "seq": 1})[:17]
        bus_file.write_bytes(good + torn)
        faults.configure(CHAOS_SPEC, seed=7)
        results, _service = run_probe_sweep(PROBES, workers=4,
                                            pair_timeout=PAIR_TIMEOUT)
        assert merged_digest(results) == probe_reference
        records = [recordlog.open_record(line)
                   for line in _bus_lines(bus_file)]
        assert all(r is not None for r in records)
        # The predecessor's good prefix survived; the torn tail did not.
        assert records[0]["run_id"] == "dead"
        assert sum(1 for r in records if r["run_id"] == "dead") == 1
