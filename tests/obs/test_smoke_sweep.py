"""CI smoke sweep: produce, flush, validate, and render obs artifacts.

The ``obs-trace`` CI job runs exactly this module with ``REPRO_OBS=1``
and ``REPRO_OBS_DIR=obs-trace`` in the environment, then uploads the
flushed directory as a workflow artifact.  Run locally without those
variables, the test writes into a throwaway directory instead.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro import obs
from repro.core.config import HardwareScale
from repro.obs import bus, core, report, trace
from repro.sim.runner import ExperimentRunner


def _metrics_records(path):
    return [r for r in bus.read_events(path) if r["kind"] == "metrics"]


def test_smoke_sweep_produces_loadable_artifacts(tmp_path):
    if os.environ.get(core.OBS_ENV_VAR):
        core.refresh_from_env()     # honor the CI job's ambient obs dir
    else:
        core.configure(enabled=True, out_dir=str(tmp_path))
    obs.reset()
    runner = ExperimentRunner(profile="bench", scale=HardwareScale.bench())
    out = runner.run_pairs(pairs=[("bfs", "FR")])
    assert len(out) == 7

    paths = obs.flush(tag="smoke", run_id="ci-smoke")
    assert paths is not None
    for path in paths.values():
        assert Path(path).stat().st_size > 0

    chrome = json.loads(Path(paths["trace"]).read_text())
    assert trace.validate_chrome(chrome) == []
    assert chrome["otherData"]["run_id"] == "ci-smoke"

    registry = [r for r in _metrics_records(paths["bus"])
                if r["run_id"] == "ci-smoke"][-1]
    assert registry["tag"] == "smoke"
    assert registry["counters"], "the sweep must record counters"
    assert registry["histograms"], "the sweep must record histograms"

    rendered = report.render_report(core.out_dir())
    assert "Translation hit rates" in rendered
    assert "Span summary" in rendered
    assert "Walk-depth distribution" in rendered


def test_consecutive_flushes_partition(tmp_path):
    core.configure(enabled=True, out_dir=str(tmp_path))
    obs.reset()
    core.REGISTRY.counter("first").inc()
    first = obs.flush(tag="a")
    core.REGISTRY.counter("second").inc()
    second = obs.flush(tag="b")
    assert first["bus"] == second["bus"]
    payload_a, payload_b = _metrics_records(second["bus"])
    assert (payload_a["tag"], payload_b["tag"]) == ("a", "b")
    assert payload_a["counters"] == {"first": 1}
    assert payload_b["counters"] == {"second": 1}


def test_same_tag_flushes_from_two_processes_both_count(tmp_path):
    """Two processes flushing one tag into one obs dir: the report sums
    both instead of the second flush overwriting the first."""
    env = dict(os.environ, **{core.OBS_ENV_VAR: "1",
                              core.OBS_DIR_ENV_VAR: str(tmp_path)})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(obs.__file__).parents[2]), env.get("PYTHONPATH", "")])
    script = ("from repro import obs\n"
              "obs.counter('runs').inc()\n"
              "obs.flush(tag='figure8')\n")
    for _ in range(2):
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       timeout=60)
    rendered = report.render_report(tmp_path)
    assert re.search(r"^runs\s*\|\s*2\s*$", rendered, re.MULTILINE), rendered


def test_flush_disabled_returns_none():
    core.configure(enabled=False)
    assert obs.flush() is None
