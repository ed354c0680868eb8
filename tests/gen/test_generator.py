"""Generation-side guarantees: determinism, constraints, serialization."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.common.consts import PAGE_SIZE
from repro.gen import seeds
from repro.gen.layout import PRESSURE_KINDS, gen_layout
from repro.gen.oracle import (check_scenario, scenario_from_dict,
                              scenario_from_seed, scenario_to_dict)
from repro.gen.perms import (GAP_PROBE_REGION, readable, writable)

SEEDS = range(48)

#: Seeds whose layout once munmapped the only readable region, leaving the
#: benign stream nothing to target (gen_stream raised ValueError).
ONCE_UNBUILDABLE = (1551, 1646, 2317, 12942, 19879)

#: SHA-256 over the canonical JSON of the scenarios for seeds 0-255.  A
#: generator change that moves any existing seed's scenario changes this.
PINNED_DIGEST_0_255 = (
    "19433450abcda35c247f1b98827139c2a05c74a2bd03eeabcc97cc5c597c4501")


class TestSeedDiscipline:
    def test_rng_for_is_deterministic(self):
        a = seeds.rng_for(7, "layout").integers(0, 1 << 30, 8)
        b = seeds.rng_for(7, "layout").integers(0, 1 << 30, 8)
        assert (a == b).all()

    def test_purposes_are_independent_streams(self):
        a = seeds.rng_for(7, "layout").integers(0, 1 << 30, 8)
        b = seeds.rng_for(7, "stream").integers(0, 1 << 30, 8)
        assert (a != b).any()

    def test_existing_seeds_keep_their_scenarios(self):
        digest = hashlib.sha256()
        for seed in range(256):
            digest.update(json.dumps(scenario_to_dict(scenario_from_seed(seed)),
                                     sort_keys=True).encode())
        assert digest.hexdigest() == PINNED_DIGEST_0_255

    def test_scenario_is_a_pure_function_of_its_seed(self):
        for seed in (0, 3, 17):
            assert scenario_to_dict(scenario_from_seed(seed)) \
                == scenario_to_dict(scenario_from_seed(seed))


class TestLayoutConstraints:
    def test_plans_respect_the_constraint_envelope(self):
        for seed in SEEDS:
            plan = gen_layout(seeds.rng_for(seed, "layout"))
            assert 2 <= len(plan.regions) <= 6
            assert plan.pressure in PRESSURE_KINDS
            assert any(writable(r.perm) for r in plan.regions)
            if plan.unmap_region is not None:
                assert 0 <= plan.unmap_region < len(plan.regions)
            assert plan.scale in ("default", "fuzz")

    def test_unmap_never_removes_the_only_readable_region(self):
        for seed in (*SEEDS, *ONCE_UNBUILDABLE):
            plan = gen_layout(seeds.rng_for(seed, "layout"))
            assert any(readable(r.perm) for i, r in enumerate(plan.regions)
                       if i != plan.unmap_region), seed

    def test_once_unbuildable_seeds_build_and_pass_the_oracle(self):
        for seed in ONCE_UNBUILDABLE:
            scenario = scenario_from_seed(seed)
            assert scenario.plan.unmap_region is not None
            assert len(scenario.stream) > 0
            result = check_scenario(scenario)
            assert result.ok, (seed, result.mismatches)

    def test_worst_case_config_fits_the_physical_budget(self):
        # conv_1g eagerly populates one scaled-1G chunk per region and
        # the kernel reserves half of phys; every drawable plan must
        # still realize (matrix regression: seeds 16/22/45/... OOMed
        # conv_1g when fragment plans ran on a 32 MB machine).
        from repro.core.config import scale_by_name
        for seed in SEEDS:
            plan = gen_layout(seeds.rng_for(seed, "layout"))
            chunk = scale_by_name(plan.scale).page_1g
            need = len(plan.regions) * chunk
            assert need <= plan.phys_mb * (1 << 20) // 2 - (1 << 20), seed

    def test_violations_have_satisfiable_preconditions(self):
        for seed in SEEDS:
            s = scenario_from_seed(seed)
            v = s.violation
            if v is None:
                continue
            if v.region == GAP_PROBE_REGION:
                continue
            perm = s.plan.regions[v.region].perm
            hit_unmapped = v.region == s.plan.unmap_region
            # The planned access must actually violate: an unmapped
            # target, a write to a non-writable page, or a read of a
            # no-access page.
            assert hit_unmapped or (v.write and not writable(perm)) \
                or (not v.write and not readable(perm))


class TestStreamConstraints:
    def test_benign_accesses_never_violate(self):
        for seed in SEEDS:
            s = scenario_from_seed(seed)
            k = None
            if s.violation is not None:
                k = int(s.violation.frac * (len(s.stream) - 1))
            for i in range(len(s.stream)):
                if i == k:
                    continue
                region = int(s.stream.region[i])
                spec = s.plan.regions[region]
                assert region != s.plan.unmap_region
                assert readable(spec.perm)
                if s.stream.write[i]:
                    assert writable(spec.perm)
                off = int(s.stream.offset[i])
                assert 0 <= off < spec.pages * PAGE_SIZE

    def test_streams_hit_page_boundaries(self):
        # The boundary/strided patterns must actually produce accesses
        # in the first words of a page (page-run heads of length one).
        near_edge = 0
        for seed in SEEDS:
            s = scenario_from_seed(seed)
            near_edge += int(np.sum((s.stream.offset % PAGE_SIZE) < 24))
        assert near_edge > 0


class TestSerialization:
    def test_round_trip_is_lossless(self):
        for seed in (0, 2, 11):
            d = scenario_to_dict(scenario_from_seed(seed))
            assert scenario_to_dict(scenario_from_dict(d)) == d
