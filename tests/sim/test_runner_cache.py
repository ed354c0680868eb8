"""Runner-level caching and parallel execution tests (bench scale)."""

from __future__ import annotations

import pytest

from repro.core.config import HardwareScale
from repro.sim.runner import ExperimentRunner

PAIRS = [("bfs", "FR"), ("pagerank", "FR")]


def bench_runner(**kw):
    return ExperimentRunner(profile="bench", scale=HardwareScale.bench(),
                            **kw)


@pytest.fixture(scope="module")
def serial_metrics():
    return bench_runner().run_pairs(pairs=PAIRS)


class TestRunPairs:
    def test_covers_all_configs(self, serial_metrics):
        assert len(serial_metrics) == len(PAIRS) * 7

    def test_workers_match_serial(self, serial_metrics):
        parallel = bench_runner().run_pairs(pairs=PAIRS, workers=2)
        assert list(parallel) == list(serial_metrics)
        for key in serial_metrics:
            assert parallel[key].to_dict() == serial_metrics[key].to_dict()

    def test_workers_populate_memo(self):
        runner = bench_runner()
        out = runner.run_pairs(pairs=PAIRS, workers=2)
        config = runner.configs()["conv_4k"]
        # run() must hit the merged in-memory cache, not recompute.
        assert runner.run("bfs", "FR", config) is out[("bfs", "FR",
                                                       "conv_4k")]

    def test_engines_agree_end_to_end(self, serial_metrics):
        fast = bench_runner(engine="fast").run_pairs(pairs=PAIRS)
        scalar = bench_runner(engine="scalar").run_pairs(pairs=PAIRS)
        for key in fast:
            assert fast[key].to_dict() == scalar[key].to_dict()
            assert fast[key].to_dict() == serial_metrics[key].to_dict()


class TestDiskCache:
    def test_round_trip(self, serial_metrics, tmp_path):
        first = bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        # Artifacts land in two-hex-char shard subdirectories.
        names = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        assert sum(n.startswith("metrics-") for n in names) == len(PAIRS) * 7
        # one published memmapped column store per trace
        stores = [p for p in tmp_path.rglob("trace-*.mm") if p.is_dir()]
        assert len(stores) == len(PAIRS)
        # a completed sweep leaves no checkpoint journal behind (the
        # journal and its .gen fence live flat at the cache root)
        assert not any(n.startswith("sweep-") for n in names)
        second = bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        for key in first:
            assert second[key].to_dict() == first[key].to_dict()
            assert first[key].to_dict() == serial_metrics[key].to_dict()

    def test_trace_restored_from_disk(self, tmp_path):
        warm = bench_runner(cache_dir=str(tmp_path))
        warm.prepare("bfs", "FR")
        cold = bench_runner(cache_dir=str(tmp_path))
        prepared = cold.prepare("bfs", "FR")
        assert "restored_from" in prepared.result.aux

    def test_keys_cover_config(self, tmp_path):
        # Two configs sharing a name but differing in content must not
        # collide: the key includes the configuration fingerprint.
        runner = bench_runner(cache_dir=str(tmp_path))
        configs = runner.configs()
        a = runner._metrics_path("bfs", "FR", configs["conv_4k"])
        b = runner._metrics_path("bfs", "FR", configs["conv_2m"])
        assert a != b
        full = ExperimentRunner(profile="bench", cache_dir=str(tmp_path))
        c = full._metrics_path("bfs", "FR", full.configs()["conv_4k"])
        assert c != a  # different HardwareScale -> different key


class TestCacheCounters:
    """Disk-cache hit/miss accounting in the resilience report."""

    def test_cold_run_counts_misses(self, tmp_path):
        runner = bench_runner(cache_dir=str(tmp_path))
        runner.run_pairs(pairs=PAIRS)
        assert runner.resilience.cache_hits == 0
        # per pair: one trace artifact plus seven metrics artifacts
        assert runner.resilience.cache_misses == len(PAIRS) * 8

    def test_warm_run_counts_hits(self, tmp_path):
        bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        warm = bench_runner(cache_dir=str(tmp_path))
        warm.run_pairs(pairs=PAIRS)
        # warm metrics reads never touch the trace cache
        assert warm.resilience.cache_hits == len(PAIRS) * 7
        assert warm.resilience.cache_misses == 0
        # informational counters: a fully cached sweep is still clean
        assert warm.resilience.events() == 0

    def test_no_cache_dir_counts_nothing(self):
        runner = bench_runner()
        runner.run_pairs(pairs=PAIRS)
        assert runner.resilience.cache_hits == 0
        assert runner.resilience.cache_misses == 0

    def test_parallel_workers_ship_counts_back(self, tmp_path):
        bench_runner(cache_dir=str(tmp_path)).run_pairs(pairs=PAIRS)
        warm = bench_runner(cache_dir=str(tmp_path))
        # force re-execution of the pairs in pool workers: delete the
        # checkpoint-resume shortcut by disabling resume
        warm.run_pairs(pairs=PAIRS, workers=2, resume=False)
        assert warm.resilience.cache_hits == len(PAIRS) * 7
        assert warm.resilience.cache_misses == 0


class TestPreparedRelease:
    """A serial sweep holds one pair's graph and trace at a time."""

    PAIRS = [("bfs", "FR"), ("pagerank", "FR"), ("cf", "NF")]

    @pytest.mark.parametrize("cache", [False, True])
    def test_one_prepared_pair(self, tmp_path, monkeypatch, cache):
        runner = bench_runner(cache_dir=str(tmp_path) if cache else None)
        held, tokens = [], {}
        prepare = ExperimentRunner.prepare

        def counting_prepare(self, workload, dataset):
            prepared = prepare(self, workload, dataset)
            held.append(len(self._prepared))
            tokens[workload, dataset] = prepared.result.trace.content_token()
            return prepared

        monkeypatch.setattr(ExperimentRunner, "prepare", counting_prepare)
        runner.run_pairs(pairs=self.PAIRS,
                         config_names=["conv_4k", "dvm_pe"])
        assert len(held) == len(self.PAIRS) * 2
        assert max(held) == 1
        # The last pair stays prepared; an earlier one is rebuilt (or
        # reopened from the trace cache) with the same trace.
        last = runner._prepared[self.PAIRS[-1]]
        assert prepare(runner, *self.PAIRS[-1]) is last
        first = self.PAIRS[0]
        again = prepare(runner, *first)
        assert again.result.trace.content_token() == tokens[first]
