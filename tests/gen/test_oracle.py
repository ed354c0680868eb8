"""Differential-oracle guarantees: clean matrix, self-test, shrinking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import config_with, scenario_configs
from repro.gen import cli
from repro.gen.layout import realize
from repro.gen.oracle import (SelfTestCorruption, check_scenario,
                              repro_command, scenario_from_seed, shrink)
from repro.gen.streams import concretize_stream
from repro.hw.iommu import TimingStats
from repro.sim import fastpath

SMOKE_SEEDS = range(12)


class TestDifferentialMatrix:
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_scenario_is_clean_across_all_configs(self, seed):
        result = check_scenario(scenario_from_seed(seed))
        assert result.ok, result.mismatches

    def test_matrix_covers_the_interesting_shapes(self):
        plans = [scenario_from_seed(s).plan for s in SMOKE_SEEDS]
        assert {p.pressure for p in plans} == {"none", "fragment", "reclaim"}
        assert {p.demand for p in plans} == {False, True}
        assert any(p.unmap_region is not None for p in plans)
        assert any(scenario_from_seed(s).violation is not None
                   for s in SMOKE_SEEDS)


class TestSelfTest:
    def test_corruption_is_caught_and_shrunk(self):
        corrupt = SelfTestCorruption()
        scenario = scenario_from_seed(0)
        result = check_scenario(scenario, corrupt=corrupt)
        assert not result.ok

        def failing(candidate):
            return not check_scenario(candidate, configs=("conv_4k",),
                                      corrupt=corrupt).ok

        small, evals = shrink(scenario, failing)
        assert evals > 0
        # The corruption triggers at >= threshold accesses, so a correct
        # shrinker lands exactly on the threshold.
        assert len(small.stream) == corrupt.threshold
        assert len(small.plan.regions) == 1
        assert small.plan.pressure == "none"

    def test_nested_energy_event_bump_is_a_stats_divergence(self):
        # The twins' TimingStats are compared as dataclasses: a count
        # inside the nested energy account must still tell them apart.
        class EnergyBump(SelfTestCorruption):
            def apply(self, name, stats, n_accesses):
                if name == self.config and stats is not None:
                    events = stats.energy.events
                    events[next(iter(events))] += 1

        result = check_scenario(scenario_from_seed(0), configs=("conv_4k",),
                                corrupt=EnergyBump())
        assert result.mismatches == [
            "conv_4k: scalar/fast divergence in stats"]

    def test_repro_command_round_trips_through_the_cli(self, tmp_path,
                                                       capsys):
        cmd = repro_command(0, self_test=True)
        assert cmd == ("PYTHONPATH=src python -m repro fuzz "
                       "--repro 0 --self-test")
        argv = cmd.split("python -m repro fuzz ")[1].split()
        rc = cli.main(argv + ["--out", str(tmp_path)])
        assert rc == 1       # the repro reproduces the mismatch
        assert "MISMATCH" in capsys.readouterr().out
        assert (tmp_path / "mismatch-seed0.json").exists()

    def test_self_test_mode_inverts_the_exit_code(self, tmp_path, capsys):
        rc = cli.main(["--seeds", "2", "--self-test",
                       "--out", str(tmp_path)])
        assert rc == 0       # caught corruption == pipeline works
        assert "corruption caught" in capsys.readouterr().out


class TestCli:
    def test_smoke_slice_passes(self, tmp_path, capsys):
        rc = cli.main(["--seeds", "4", "--out", str(tmp_path)])
        assert rc == 0
        assert "0 mismatching" in capsys.readouterr().out

    def test_config_restriction(self, tmp_path, capsys):
        rc = cli.main(["--seeds", "2", "--configs", "dvm_pe,ideal",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert "x 2 configs" in capsys.readouterr().out


class TestWalkSetPressure:
    """Generator-found fastpath bug, pinned: with a low-associativity
    AVC, one page's walk blocks can overflow a set, so the scalar loop
    re-misses on every interior access of a page run while the per-head
    replay assumed residency.  The screen must refuse such geometry
    (`walk_set_pressure`) and fall back — found by fuzz seed 5 under a
    2-way fuzz scale (`python -m repro fuzz --repro 5`)."""

    SEED = 5

    def build(self, ways: int):
        scenario = scenario_from_seed(self.SEED)
        base = scenario_configs(scenario.plan.scale)["dvm_pe"]
        config = config_with(base, walk_cache_ways=ways)
        realized = realize(scenario.plan, config)
        addrs, writes = concretize_stream(scenario.stream,
                                          realized.region_vas)
        return realized, addrs, writes

    def test_low_associativity_refuses_the_fastpath(self):
        realized, addrs, writes = self.build(ways=2)
        batch = fastpath.PageRunBatch.from_trace(addrs, writes)
        outcome = fastpath.run_batch(realized.iommu, batch, TimingStats())
        assert not outcome and outcome.reason == "walk_set_pressure"

    def test_engines_still_agree_via_the_fallback(self):
        scalar, addrs, writes = self.build(ways=2)
        fast, _addrs, _writes = self.build(ways=2)
        s = scalar.iommu.run_trace(addrs, writes, engine="scalar")
        f = fast.iommu.run_trace(addrs, writes, engine="fast")
        from dataclasses import asdict
        assert asdict(s) == asdict(f)

    def test_four_way_geometry_keeps_the_fastpath(self):
        realized, addrs, writes = self.build(ways=4)
        batch = fastpath.PageRunBatch.from_trace(addrs, writes)
        outcome = fastpath.run_batch(realized.iommu, batch, TimingStats())
        assert outcome


class TestRunnerAdapter:
    def test_clean_scenario_leaves_resilience_untouched(self):
        from repro.sim.runner import ExperimentRunner
        runner = ExperimentRunner()
        result = runner.check_scenario_pair(0, config_names=("conv_4k",))
        assert result.ok
        assert runner.resilience.guest_violations == 0

    def test_concretization_is_shared_across_twins(self):
        scenario = scenario_from_seed(1)
        config = scenario_configs(scenario.plan.scale,
                                  demand=scenario.plan.demand)["dvm_pe"]
        a = realize(scenario.plan, config)
        b = realize(scenario.plan, config)
        assert a.region_vas == b.region_vas
        addrs, _ = concretize_stream(scenario.stream, a.region_vas)
        assert addrs.dtype == np.int64
