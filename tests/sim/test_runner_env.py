"""Environment wiring and multi-writer behaviour of the runner."""

from __future__ import annotations

import threading

import pytest

from repro.core.config import HardwareScale
from repro.sim.runner import (CACHE_DIR_ENV_VAR, PAIR_TIMEOUT_ENV_VAR,
                              WORKERS_ENV_VAR, ExperimentRunner,
                              pair_timeout_from_env, workers_from_env)

PAIRS = [("bfs", "FR"), ("pagerank", "FR")]


def bench_runner(**kw):
    return ExperimentRunner(profile="bench", scale=HardwareScale.bench(),
                            **kw)


class TestWorkersFromEnv:
    def test_unset_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert workers_from_env() == 1

    def test_empty_string_defaults_to_one(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "")
        assert workers_from_env() == 1

    @pytest.mark.parametrize("raw", ["-3", "0"])
    def test_non_positive_clamps_to_one(self, raw, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, raw)
        assert workers_from_env() == 1

    def test_valid_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        assert workers_from_env() == 8

    @pytest.mark.parametrize("raw", ["four", "2.5", " "])
    def test_non_integer_exits_with_message(self, raw, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, raw)
        with pytest.raises(SystemExit, match=WORKERS_ENV_VAR):
            workers_from_env()


class TestPairTimeoutFromEnv:
    def test_unset_and_empty_mean_no_timeout(self, monkeypatch):
        monkeypatch.delenv(PAIR_TIMEOUT_ENV_VAR, raising=False)
        assert pair_timeout_from_env() is None
        monkeypatch.setenv(PAIR_TIMEOUT_ENV_VAR, "")
        assert pair_timeout_from_env() is None

    def test_non_positive_means_no_timeout(self, monkeypatch):
        monkeypatch.setenv(PAIR_TIMEOUT_ENV_VAR, "0")
        assert pair_timeout_from_env() is None
        monkeypatch.setenv(PAIR_TIMEOUT_ENV_VAR, "-5")
        assert pair_timeout_from_env() is None

    def test_valid_timeout(self, monkeypatch):
        monkeypatch.setenv(PAIR_TIMEOUT_ENV_VAR, "2.5")
        assert pair_timeout_from_env() == 2.5

    def test_non_numeric_exits_with_message(self, monkeypatch):
        monkeypatch.setenv(PAIR_TIMEOUT_ENV_VAR, "soon")
        with pytest.raises(SystemExit, match=PAIR_TIMEOUT_ENV_VAR):
            pair_timeout_from_env()


class TestFromEnv:
    def test_empty_cache_dir_disables_persistence(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, "")
        assert ExperimentRunner.from_env().cache_dir is None

    def test_env_values_wired(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setenv(PAIR_TIMEOUT_ENV_VAR, "3")
        runner = ExperimentRunner.from_env()
        assert runner.cache_dir == str(tmp_path)
        assert runner.pair_timeout == 3.0

    def test_keyword_overrides_win(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "env"))
        monkeypatch.setenv(PAIR_TIMEOUT_ENV_VAR, "3")
        runner = ExperimentRunner.from_env(cache_dir=str(tmp_path / "kw"),
                                           pair_timeout=None)
        assert runner.cache_dir == str(tmp_path / "kw")
        assert runner.pair_timeout is None

    def test_scale_follows_profile(self):
        # "bench" means bench datasets on bench hardware, for every entry
        # point that builds its runner here (figures, ablations, faults,
        # multiplexing, the sweep CLI).
        assert (ExperimentRunner.from_env(profile="bench").scale
                == HardwareScale.bench())
        assert ExperimentRunner.from_env(profile="full").scale == \
            HardwareScale()
        assert ExperimentRunner.from_env().scale == HardwareScale()

    def test_explicit_scale_wins(self):
        runner = ExperimentRunner.from_env(profile="bench",
                                           scale=HardwareScale())
        assert runner.scale == HardwareScale()


class TestConcurrentWriters:
    def test_two_runners_share_one_cache_dir(self, tmp_path):
        # Two concurrent sweeps race on the same artifacts; the atomic
        # os.replace publish means both finish with identical results
        # and every artifact on disk still verifies.
        results = {}

        def sweep(tag):
            runner = bench_runner(cache_dir=str(tmp_path))
            out = runner.run_pairs(pairs=PAIRS)
            results[tag] = {k: m.to_dict() for k, m in out.items()}

        threads = [threading.Thread(target=sweep, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] == results[1]
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.endswith((".tmp", ".corrupt"))]
        assert leftovers == []
        reader = bench_runner(cache_dir=str(tmp_path))
        out = reader.run_pairs(pairs=PAIRS)
        assert {k: m.to_dict() for k, m in out.items()} == results[0]
        assert reader.resilience.quarantined == 0
