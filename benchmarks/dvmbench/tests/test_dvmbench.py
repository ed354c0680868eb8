"""Tests for dvmbench itself (not part of the tier-1 suite).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/dvmbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import dvmbench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCRIPT = HERE / "dvmbench.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
         1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}}


def run_bench(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced --tiny run over every workload."""
    out = tmp_path_factory.mktemp("tiny")
    lines = {}
    for trace in (0, 1):
        proc = run_bench("--tiny", "--trace", str(trace), "--out", str(out))
        assert proc.returncode == 0, proc.stderr[-3000:]
        lines[trace] = json.loads(proc.stdout.splitlines()[-1])
    results = [json.loads(path.read_text()) for path in out.glob("*.json")]
    return results, lines


def test_tiny_smoke_emits_every_metric_with_its_unit(tiny_runs):
    results, _ = tiny_runs
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in results) \
        == sorted((name, trace) for name in names for trace in (0, 1))
    for result in results:
        assert result["correct"] and result["failed"] == 0
        emitted = {name: entry["unit"]
                   for name, entry in result["metrics"].items()}
        assert emitted == UNITS[result["trace"]]
        if not result["trace"]:
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values())
        assert set(result["host"]) >= {"nproc", "mem_total_mb", "numpy",
                                       "python", "native_kernel", "seed",
                                       "git_revision"}


def test_last_line_is_the_result_object(tiny_runs):
    _, lines = tiny_runs
    for trace, line in lines.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        units = {name.split(".", 1)[1]: entry["unit"]
                 for name, entry in line["metrics"].items()}
        assert units == UNITS[trace]


def test_traced_self_times_cover_the_traced_wall(tiny_runs):
    results, _ = tiny_runs
    for result in results:
        if result["trace"]:
            layers = result["per_layer"]
            assert layers["bench.self_time_coverage"] == pytest.approx(
                1.0, abs=0.05)
            assert layers["bench.traced_rounds"] == 1


def test_corrupted_reference_digest_is_caught_and_counted(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    row = "faults/bfs/Wikib/swap/dvm_pe"
    reference["sections"]["tiny"][row] = "0" * 16
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    proc = run_bench("--tiny", "--workload", "faults", "--reference",
                     str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    line = json.loads(proc.stdout.splitlines()[-1])
    # The warm-up and the one measured round both produce the row.
    assert line["correct"] is False and line["failed"] == 2
    assert f"FAILED {row}: digest" in proc.stdout


def _span(name, start, end, parent):
    return [name, "", start, end, parent, ""]


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    tree = [_span("bench.round", 0.0, 10.0, -1),
            _span("fastpath.bind", 1.0, 4.0, 0),
            _span("fastpath.bind", 2.0, 3.0, 1),     # recursion via alias
            _span("kernel.boot", 5.0, 9.0, 0),
            _span("graphs.build", 6.0, 7.5, 3)]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.5, 1.5]
    inclusive, own = spans.layer_times(tree)
    assert inclusive == {"bench.round": 10.0, "fastpath.bind": 3.0,
                         "kernel.boot": 4.0, "graphs.build": 1.5}
    assert own == {"bench.round": 3.0, "fastpath.bind": 3.0,
                   "kernel.boot": 2.5, "graphs.build": 1.5}
    layers = spans.layer_metrics(tree, {}, Counter(), {}, 2, 0.0)
    assert layers["bench.self_time_coverage"] == 1.0
    assert layers["bench.unattributed_frac"] == pytest.approx(0.3)
    assert layers["fastpath.bind_s"] == 1.5          # per round
    assert set(layers) == set(UNITS[1])


def test_worker_span_files_rebase_parents_per_flush(tmp_path):
    rec = spans.Recorder(tmp_path)
    rec.main_pid = -1                                 # act as a worker
    for _ in range(2):
        outer = rec.open("sweep.worker_task")
        inner = rec.open("runner.run")
        rec.close(inner)
        rec.close(outer)
        rec.counts["runner.cache_hits"] += 1
        rec.flush()
    workers, counts, _ = spans.read_worker_spans(tmp_path)
    (rows,) = workers.values()
    assert [span[spans.PARENT] for span in rows] == [-1, 0, -1, 2]
    assert counts["runner.cache_hits"] == 2


def test_traced_run_wrappers_are_removed_afterwards(tmp_path):
    from repro.graphs import rmat
    rec = spans.Recorder(tmp_path)
    undo = spans.install(rec)

    def current(target, attr, is_item):
        return target[attr] if is_item else vars(target)[attr]

    try:
        for target, attr, original, is_item in undo:
            assert current(target, attr, is_item) is not original
        rmat.rmat_graph(6, 4, seed=1)
    finally:
        spans.uninstall(undo)
    assert [span[spans.NAME] for span in rec.spans] == ["graphs.build"]
    for target, attr, original, is_item in undo:
        assert current(target, attr, is_item) is original


def test_seconds_is_fixed_at_the_benchmark_window():
    assert dvmbench.RUN_SECONDS == BENCHMARK["run_seconds"]
    assert dvmbench.parse_args(["--seconds", "20"]).seconds == 20
    with pytest.raises(SystemExit):
        dvmbench.parse_args(["--seconds", "5"])


def _fake_scenarios(monkeypatch, bad):
    """Scenario generation that raises for the ``bad`` seeds and cycles
    through the schedule's (pressure, scale) classes otherwise."""
    classes = list(workloads.FuzzSchedule.QUOTAS)

    def scenario_from_seed(seed):
        if seed in bad:
            raise ValueError("no benign region")
        pressure, scale = classes[seed % len(classes)]
        return SimpleNamespace(plan=SimpleNamespace(pressure=pressure,
                                                    scale=scale))
    monkeypatch.setattr(workloads.oracle, "scenario_from_seed",
                        scenario_from_seed)


def _fuzz_rounds(monkeypatch, bad, count=4):
    _fake_scenarios(monkeypatch, bad)
    fuzz = workloads.Fuzz(0, False, None)
    monkeypatch.setattr(fuzz, "_check",
                        lambda seeds: workloads.Round("fuzz",
                                                      attempted=len(seeds)))
    state = fuzz.prepare()
    return state, [fuzz.round(state, index) for index in range(count)]


def test_fuzz_counts_skipped_seeds_within_the_allowance(monkeypatch):
    state, rounds = _fuzz_rounds(monkeypatch, bad={5})
    assert state.skipped == [5] and state.round_skips[0] == [5]
    assert rounds[0].attempted == 33 and rounds[0].failed == 0
    assert sum(r.failed for r in rounds) == 0


def test_fuzz_fails_skipped_seeds_beyond_the_allowance(monkeypatch):
    state, rounds = _fuzz_rounds(monkeypatch, bad=set(range(1, 4000, 50)))
    assert state.over_allowance()
    skipped = sum(len(state.round_skips[i]) for i in range(len(rounds)))
    assert skipped > 0
    assert sum(r.failed for r in rounds) == skipped
    assert "over the 1% allowance" in rounds[0].failures[0]


def test_fuzz_schedule_stops_after_consecutive_skips(monkeypatch):
    limit = workloads.FuzzSchedule.MAX_CONSECUTIVE_SKIPS
    _fake_scenarios(monkeypatch, bad=set(range(10, 10 + limit)))
    schedule = workloads.FuzzSchedule(10)
    with pytest.raises(RuntimeError, match="in a row"):
        schedule.take()
    assert schedule.next_seed == 10 + limit


HOST = {"nproc": 2, "mem_total_mb": 8000, "numpy": "2", "python": "3.11",
        "native_kernel": True}


def _run(seed, wall, host=HOST, raw=None, failed=0, at=None):
    return {"workload": "faults", "seed": seed, "trace": 0, "tiny": False,
            "finished_at": seed if at is None else at,
            "host": host, "correct": failed == 0, "attempted": 72,
            "failed": failed, "end_to_end": {"wall_s": wall},
            "end_to_end_raw": {"wall_s": wall if raw is None else raw},
            "per_layer": {}}


WALL_BOUND = next(m["bound"] for m in BENCHMARK["end_to_end"]
                  if m["name"] == "wall_s")


@pytest.mark.parametrize("factor, expected", [
    (1.0, "unchanged"),
    (1.0 + WALL_BOUND / 2, "unchanged"),     # worse, but within the bound
    (0.8, "improved"),
    (1.0 + WALL_BOUND * 1.2, "regressed"),
])
def test_compare_verdicts(factor, expected):
    base = [_run(s, 10.0 + 0.01 * s) for s in range(10)]
    change = [_run(s, (10.0 + 0.01 * s) * factor) for s in range(10)]
    rows, problems = compare.compare(base, change, BENCHMARK)
    assert not problems
    assert [(row["verdict"], row["raw_verdict"]) for row in rows] \
        == [(expected, expected)]
    assert not rows[0]["flagged"]


@pytest.mark.parametrize("change_after, flagged", [
    (0, True),         # runs interleaved in time: raw times comparable
    (100, False),      # change ran after the base: raw includes drift
])
def test_compare_flags_a_regression_seen_only_in_raw_times(change_after,
                                                            flagged):
    # The change's rescaled walls match, but its raw walls are slower:
    # the probe slowed with them.
    base = [_run(s, 10.0 + 0.01 * s) for s in range(10)]
    change = [_run(s, 10.0 + 0.01 * s,
                   raw=(10.0 + 0.01 * s) * (1.0 + WALL_BOUND * 1.2),
                   at=change_after + s)
              for s in range(10)]
    rows, problems = compare.compare(base, change, BENCHMARK)
    assert not problems
    assert rows[0]["verdict"] == "unchanged"
    assert rows[0]["raw_verdict"] == "regressed"
    assert rows[0]["flagged"] is flagged


def test_compare_refuses_runs_with_failed_units():
    base = [_run(s, 10.0) for s in range(10)]
    change = [_run(s, 5.0, failed=int(s == 3)) for s in range(10)]
    _, problems = compare.compare(base, change, BENCHMARK)
    assert problems == ["change has runs with failed units: "
                        "faults seed 3 (1 of 72 units failed)"]


def test_compare_reports_wide_spread_as_unresolved():
    wide = 2 * WALL_BOUND
    base = [_run(s, 10.0 * (1.0 + wide * (s % 2))) for s in range(10)]
    rows, _ = compare.compare(base, [_run(s, 11.0) for s in range(10)],
                              BENCHMARK)
    assert rows[0]["verdict"] == "unresolved"


def test_compare_refuses_results_from_different_hosts():
    other = dict(HOST, nproc=8)
    _, problems = compare.compare([_run(0, 1.0)], [_run(0, 1.0, other)],
                                  BENCHMARK)
    assert problems and "different hosts" in problems[0]
