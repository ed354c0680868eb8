"""Fault-injector unit tests: parsing, determinism, scoping, hooks."""

from __future__ import annotations

import pytest

from repro.common import faults
from repro.common.errors import (ConfigError, InjectedOutOfMemoryError,
                                 OutOfMemoryError, TransientError)
from repro.common.faults import FaultInjector, parse_spec


class TestParsing:
    def test_basic_spec(self):
        specs = parse_spec("worker_crash:0.2,cache_corrupt:0.1")
        assert specs["worker_crash"].probability == 0.2
        assert specs["cache_corrupt"].probability == 0.1
        assert specs["worker_crash"].max_fires is None

    def test_max_fires(self):
        specs = parse_spec("alloc_oom:1.0:3")
        assert specs["alloc_oom"].max_fires == 3

    def test_whitespace_and_empty_parts(self):
        specs = parse_spec(" worker_crash:1.0 , ,compile_fail:0.5,")
        assert set(specs) == {"worker_crash", "compile_fail"}

    def test_unknown_site_lists_valid_names(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_spec("frobnicate:0.5")
        message = str(excinfo.value)
        assert "frobnicate" in message
        for site in faults.KNOWN_SITES:
            assert site in message

    @pytest.mark.parametrize("bad", [
        "worker_crash", "worker_crash:x", "worker_crash:1.5",
        "worker_crash:-0.1", "worker_crash:0.5:x", "worker_crash:0.5:1:2",
    ])
    def test_malformed_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_spec(bad)


class TestDeterminism:
    def pattern(self, seed, n=200, p=0.5):
        inj = FaultInjector(parse_spec(f"worker_crash:{p}"), seed=seed)
        return [inj.should_fire("worker_crash") for _ in range(n)]

    def test_same_seed_same_pattern(self):
        assert self.pattern(7) == self.pattern(7)

    def test_different_seeds_differ(self):
        assert self.pattern(7) != self.pattern(8)

    def test_rate_roughly_matches_probability(self):
        fired = sum(self.pattern(0, n=2000, p=0.25))
        assert 0.18 < fired / 2000 < 0.32

    def test_sites_decide_independently(self):
        # Interleaving checks across sites must not change either
        # site's per-index decisions.
        spec = "worker_crash:0.5,cache_corrupt:0.5"
        solo = FaultInjector(parse_spec(spec), seed=3)
        crash_solo = [solo.should_fire("worker_crash") for _ in range(50)]
        mixed = FaultInjector(parse_spec(spec), seed=3)
        crash_mixed = []
        for _ in range(50):
            crash_mixed.append(mixed.should_fire("worker_crash"))
            mixed.should_fire("cache_corrupt")
        assert crash_solo == crash_mixed

    def test_max_fires_caps(self):
        inj = FaultInjector(parse_spec("worker_crash:1.0:2"), seed=0)
        fires = [inj.should_fire("worker_crash") for _ in range(5)]
        assert fires == [True, True, False, False, False]
        assert inj.stats["worker_crash"].checks == 5
        assert inj.stats["worker_crash"].fires == 2

    def test_probability_extremes(self):
        inj = FaultInjector(parse_spec("worker_crash:0.0,worker_exit:1.0"),
                            seed=0)
        assert not any(inj.should_fire("worker_crash") for _ in range(20))
        assert all(inj.should_fire("worker_exit") for _ in range(20))


class TestModuleState:
    def test_inactive_by_default(self):
        faults.reset()
        assert not faults.active()
        assert not faults.should_fire("worker_crash")
        assert faults.injector() is None

    def test_configure_and_reset(self):
        inj = faults.configure("worker_crash:1.0", seed=0)
        assert faults.active()
        assert faults.should_fire("worker_crash")
        assert inj.fire_counts() == {"worker_crash": 1}
        faults.configure(None)
        assert not faults.active()

    def test_env_loading(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "compile_fail:1.0")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV_VAR, "42")
        faults.reset()
        assert faults.active()
        assert faults.injector().seed == 42
        assert faults.should_fire("compile_fail")

    def test_env_bad_seed_is_config_error(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "worker_crash:0.1")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV_VAR, "x")
        faults.reset()
        for _ in range(2):     # never marked loaded: every hook re-raises
            with pytest.raises(ConfigError,
                               match=faults.FAULTS_SEED_ENV_VAR):
                faults.active()

    def test_env_bad_seed_exits_2_at_the_cli(self, monkeypatch, capsys):
        from repro.__main__ import main as repro_main
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "worker_crash:0.1")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV_VAR, "x")
        faults.reset()
        assert repro_main(["figure8", "--bench"]) == 2
        assert (f"error: {faults.FAULTS_SEED_ENV_VAR} must be an integer"
                in capsys.readouterr().err)

    def test_rescope_is_deterministic(self):
        def scoped_pattern(tag):
            faults.configure("worker_crash:0.5", seed=9)
            faults.rescope(tag)
            return [faults.should_fire("worker_crash") for _ in range(50)]

        assert scoped_pattern("bfs/FR#a1") == scoped_pattern("bfs/FR#a1")
        assert scoped_pattern("bfs/FR#a1") != scoped_pattern("bfs/FR#a2")

    def test_maybe_raise_default_and_custom(self):
        faults.configure("worker_crash:1.0", seed=0)
        with pytest.raises(faults.InjectedFault):
            faults.maybe_raise("worker_crash")
        with pytest.raises(ValueError):
            faults.maybe_raise("worker_crash", lambda: ValueError("boom"))

    @pytest.mark.parametrize("spec", [
        "worker_crash:1",
        "perm_fault:1:1",
        "worker_hang:0.01:1,checkpoint_torn:0.05,heartbeat_loss:0.1:3",
        "alloc_oom:0.123456789:7",
        "cache_corrupt:0",
    ])
    def test_active_spec_round_trips(self, spec):
        faults.configure(spec, seed=42)
        text, seed = faults.active_spec()
        assert text == spec and seed == 42
        faults.configure(text, seed)
        assert faults.injector().specs == parse_spec(spec)
        assert faults.active_spec() == (spec, 42)

    def test_active_spec_without_injector(self):
        faults.configure(None)
        assert faults.active_spec() == (None, 0)

    def test_perturbation_tracking(self):
        faults.configure("alloc_oom:1.0,worker_crash:1.0", seed=0)
        mark = faults.perturbation_mark()
        faults.should_fire("worker_crash")       # non-perturbing
        assert not faults.perturbed_since(mark)
        faults.should_fire("alloc_oom")          # perturbing
        assert faults.perturbed_since(mark)


class TestInjectedOOMTaxonomy:
    def test_is_both_oom_and_transient(self):
        exc = InjectedOutOfMemoryError("x")
        assert isinstance(exc, OutOfMemoryError)
        assert isinstance(exc, TransientError)


class TestIdentityFallbackUnderOOM:
    """Injected allocator OOM exercises the paper's Figure 7 fallback."""

    def test_identity_mapping_degrades_to_demand_paging(self, dvm_kernel):
        proc = dvm_kernel.spawn()            # segments before chaos starts
        mapper = proc.vmm.identity_mapper
        baseline_failures = mapper.stats.contiguity_failures
        faults.configure("alloc_oom:1.0:1", seed=0)
        alloc = proc.vmm.mmap(1 << 20)
        assert alloc.identity is False
        assert mapper.stats.contiguity_failures == baseline_failures + 1
        # The allocation is fully usable despite the fault.
        assert alloc.size == 1 << 20

    def test_buddy_counts_injected_failures(self, phys):
        faults.configure("alloc_oom:1.0:1", seed=0)
        with pytest.raises(OutOfMemoryError):
            phys.allocator.alloc_range(1 << 16)
        assert phys.allocator.stats.failed_allocations == 1
        # The cap expired; the allocator works again.
        addr = phys.allocator.alloc_range(1 << 16)
        assert addr >= phys.allocator.base
