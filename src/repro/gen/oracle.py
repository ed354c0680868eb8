"""Differential oracle: generated scenarios vs the scalar ground truth.

For one :class:`Scenario`, :func:`check_scenario` realizes every MMU
configuration twice, runs the access stream through the scalar loops on
one twin and the vectorized fastpath on the other, and asserts:

(a) **identical permission/violation outcomes** — same
    :class:`~repro.common.errors.AccessViolation` (index, va, access,
    kind) or same clean completion, engine for engine, plus a
    cross-configuration check that every protection-checking config
    refuses the same access;
(b) **bit-identical timing** — ``TimingStats`` equality
    (energy events included), fault-machinery counters, and hardware
    structure state;
(c) **fault-accounting invariants** — faults serviced by the handler
    equal the faults the layout injected (an independent pure model of
    the kernel's paging semantics predicts major/swap counts), every
    fault stalls one PRI round trip, and no spurious services appear.

A failing scenario shrinks (:func:`shrink`) by delta-debugging the
access stream and simplifying the layout, and is reported with a
one-line ``python -m repro fuzz --repro <seed>`` command.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.common.consts import PAGE_SHIFT, PAGE_SIZE
from repro.common.errors import AccessViolation
from repro.common.perms import Perm, allows
from repro.core.config import scenario_configs
from repro.gen import seeds
from repro.gen.layout import LayoutPlan, RegionSpec, gen_layout, realize
from repro.gen.perms import ViolationPlan, gen_violation
from repro.gen.streams import StreamPlan, concretize_stream, gen_stream
from repro.hw.fault_queue import ROUND_TRIP_CYCLES
from repro.obs import core as obs_core

#: Base configuration names every scenario is checked under.
CONFIG_NAMES = ("conv_4k", "conv_2m", "conv_1g", "dvm_bm", "dvm_pe",
                "dvm_pe_plus", "ideal")


@dataclass(frozen=True)
class Scenario:
    """One generated scenario: layout + stream + planned violation."""

    seed: int
    plan: LayoutPlan
    stream: StreamPlan
    violation: ViolationPlan | None


def scenario_from_seed(seed: int) -> Scenario:
    """Generate the scenario for ``seed``.

    Layout, violation and stream generation draw from independent
    per-purpose RNG streams (:mod:`repro.gen.seeds`), so extending one
    generator never perturbs the others for existing seeds.
    """
    plan = gen_layout(seeds.rng_for(seed, "layout"))
    sizes = [r.pages * PAGE_SIZE for r in plan.regions]
    violation = gen_violation(seeds.rng_for(seed, "violation"),
                              [r.perm for r in plan.regions], sizes,
                              plan.unmap_region)
    stream = gen_stream(seeds.rng_for(seed, "stream"), plan, violation)
    return Scenario(seed=int(seed), plan=plan, stream=stream,
                    violation=violation)


# -- serialization (quarantined artifacts) --------------------------------


def scenario_to_dict(s: Scenario) -> dict:
    """JSON-serializable form of a scenario (shrunk ones included)."""
    plan = asdict(s.plan)
    plan["regions"] = [[r.pages, int(r.perm)] for r in s.plan.regions]
    return {
        "seed": s.seed,
        "plan": plan,
        "violation": None if s.violation is None else asdict(s.violation),
        "stream": {"region": s.stream.region.tolist(),
                   "offset": s.stream.offset.tolist(),
                   "write": s.stream.write.tolist()},
    }


def scenario_from_dict(d: dict) -> Scenario:
    """Inverse of :func:`scenario_to_dict`."""
    plan_d = dict(d["plan"])
    plan_d["regions"] = tuple(RegionSpec(pages=p, perm=Perm(perm))
                              for p, perm in plan_d["regions"])
    violation = (None if d["violation"] is None
                 else ViolationPlan(**d["violation"]))
    stream = StreamPlan(
        region=np.array(d["stream"]["region"], dtype=np.int16),
        offset=np.array(d["stream"]["offset"], dtype=np.int64),
        write=np.array(d["stream"]["write"], dtype=np.int8))
    return Scenario(seed=int(d["seed"]), plan=LayoutPlan(**plan_d),
                    stream=stream, violation=violation)


# -- reference model -------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """Outcome predicted by the pure paging-semantics model."""

    violation_index: int | None
    major: int
    swap: int
    checked: bool       # False for the ideal config (no protection)


def reference_outcome(realized, addrs: np.ndarray,
                      writes: np.ndarray) -> Expected:
    """Predict a run's outcome from kernel state alone.

    An independent re-statement of ``kernel/fault.py`` semantics over
    the *pre-run* page table: walk each first-touched page, simulate
    chunk population for demand allocations and per-page swap-in for
    reclaimed pages, and apply the 2-bit permission check — no IOMMU
    structures involved, so agreement is meaningful.
    """
    cfg = realized.config
    if cfg.mech == "ideal":
        return Expected(None, 0, 0, checked=False)
    page_table = realized.process.page_table
    vmm = realized.process.vmm
    reclaimer = realized.kernel.reclaimer
    demand_faulting = cfg.policy.demand_faulting
    chunk_size = cfg.policy.page_size
    known: dict[int, Perm | None] = {}      # page -> perm (None: unmapped)
    major = swap = 0
    for i, (va, w) in enumerate(zip(addrs.tolist(), writes.tolist())):
        access = "w" if w else "r"
        page = va >> PAGE_SHIFT
        if page in known:
            perm = known[page]
            if perm is None or not allows(perm, access):
                return Expected(i, major, swap, checked=True)
            continue
        result = page_table.walk(va)
        if result.ok:
            known[page] = result.perm
            if not allows(result.perm, access):
                return Expected(i, major, swap, checked=True)
            continue
        if result.swapped:
            if reclaimer is None or not allows(result.perm, access):
                return Expected(i, major, swap, checked=True)
            swap += 1                        # swap-in heals one 4 KB page
            known[page] = result.perm
            continue
        alloc = vmm.allocation_at(va)
        if alloc is None or alloc.identity or not demand_faulting:
            known[page] = None
            return Expected(i, major, swap, checked=True)
        # Mirror VMM.populate_for_fault's chunk extent exactly.
        chunk_start = max(va & ~(chunk_size - 1), alloc.va)
        chunk = min(chunk_size, alloc.va + alloc.size - chunk_start)
        if chunk_start % chunk_size or chunk < chunk_size:
            chunk = PAGE_SIZE
            chunk_start = va & ~(PAGE_SIZE - 1)
        perm = alloc.vma.perm
        for healed in range(chunk_start >> PAGE_SHIFT,
                            (chunk_start + chunk) >> PAGE_SHIFT):
            known[healed] = perm
        if not allows(perm, access):
            # The handler populates, re-walks, then refuses: a violation,
            # not a counted major fault.
            return Expected(i, major, swap, checked=True)
        major += 1
    return Expected(None, major, swap, checked=True)


# -- differential check ----------------------------------------------------


@dataclass
class SelfTestCorruption:
    """Deterministic fast-engine corruption for oracle self-tests.

    Bumps one counter on the fast twin's stats for clean runs of
    ``config`` with at least ``threshold`` accesses — so the oracle
    must both *catch* it and *shrink* the stream down to the threshold.
    """

    config: str = "conv_4k"
    threshold: int = 32

    def apply(self, name: str, stats, n_accesses: int) -> None:
        """Corrupt ``stats`` in place when the trigger condition holds."""
        if (name == self.config and stats is not None
                and n_accesses >= self.threshold):
            stats.sram_stall_cycles += 1


@dataclass
class ScenarioResult:
    """Verdict for one scenario across all checked configurations."""

    seed: int
    configs: tuple[str, ...]
    accesses: int
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every configuration passed every check."""
        return not self.mismatches


def _structure_counters(iommu) -> dict:
    """Observable hit/miss/walk/DRAM counters of the MMU structures."""
    s: dict = {}
    if iommu.tlb is not None:
        s["tlb"] = (iommu.tlb.stats.hits, iommu.tlb.stats.misses)
    if iommu.walker is not None:
        s["wc"] = (iommu.walker.cache.stats.hits,
                   iommu.walker.cache.stats.misses)
        s["walks"] = iommu.walker.walks
    if iommu.perm_bitmap is not None:
        s["bm"] = (iommu.perm_bitmap.cache.stats.hits,
                   iommu.perm_bitmap.cache.stats.misses)
    s["dram"] = iommu.dram.stats
    return s


def _structure_contents(iommu) -> dict:
    """Full contents of the MMU structures (clean runs only)."""
    s: dict = {}
    if iommu.tlb is not None:
        s["tlb"] = [list(d.items()) for d in iommu.tlb._sets]
    if iommu.walker is not None:
        s["wc"] = [list(d.items()) for d in iommu.walker.cache._sets]
    if iommu.perm_bitmap is not None:
        s["bm"] = [list(d.items()) for d in iommu.perm_bitmap.cache._sets]
    return s


def _fault_state(realized) -> dict:
    return {"path": vars(realized.iommu.fault_path.stats).copy(),
            "handler": vars(realized.handler.stats).copy()}


def _run_one(realized, addrs, writes, engine):
    stats = exc = None
    try:
        stats = realized.iommu.run_trace(addrs, writes, engine=engine)
    except AccessViolation as e:
        exc = (e.record.index, e.record.va, e.record.access, e.record.kind)
    return stats, exc


def _observable(stats, exc, realized) -> dict:
    # Live dataclasses, not asdict() copies: dataclass equality compares
    # the same fields (nested ``energy`` included), and both twins are
    # compared before either runs again.
    obs = {"stats": stats,
           "exc": exc,
           "fault": _fault_state(realized),
           "counters": _structure_counters(realized.iommu)}
    if exc is None:
        # Aborted runs legitimately leave different in-flight dict
        # contents (see the hand-written equivalence suite); clean runs
        # must match structure for structure.
        obs["contents"] = _structure_contents(realized.iommu)
    return obs


def _diff_keys(a: dict, b: dict) -> str:
    keys = [k for k in a if a.get(k) != b.get(k)]
    return ",".join(keys) or "?"


def check_scenario(scenario: Scenario,
                   configs: tuple[str, ...] | None = None,
                   corrupt: SelfTestCorruption | None = None,
                   ) -> ScenarioResult:
    """Differentially check one scenario; returns the verdict."""
    plan = scenario.plan
    names = configs or CONFIG_NAMES
    result = ScenarioResult(seed=scenario.seed, configs=tuple(names),
                            accesses=len(scenario.stream))
    config_set = scenario_configs(plan.scale, demand=plan.demand,
                                  names=tuple(names))
    mism = result.mismatches
    violations: dict[str, tuple | None] = {}
    for name, cfg in config_set.items():
        try:
            scalar = realize(plan, cfg)
            fast = realize(plan, cfg)
            if scalar.region_vas != fast.region_vas:
                mism.append(f"{name}: non-deterministic realization: "
                            f"{scalar.region_vas} != {fast.region_vas}")
                continue
            addrs, writes = concretize_stream(scenario.stream,
                                              scalar.region_vas)
            expected = reference_outcome(scalar, addrs, writes)
            s_stats, s_exc = _run_one(scalar, addrs, writes, "scalar")
            f_stats, f_exc = _run_one(fast, addrs, writes, "fast")
        except Exception as e:  # noqa: BLE001  # dvmlint: disable=FAULT002
            # Deliberately broad: the oracle's job is to *report* any
            # escape — taxonomy errors included — as a finding, never to
            # crash the fuzz sweep.
            mism.append(f"{name}: crashed: {type(e).__name__}: {e}")
            continue
        if corrupt is not None:
            corrupt.apply(name, f_stats, len(addrs))
        s_obs = _observable(s_stats, s_exc, scalar)
        f_obs = _observable(f_stats, f_exc, fast)
        if s_obs != f_obs:
            mism.append(f"{name}: scalar/fast divergence in "
                        f"{_diff_keys(s_obs, f_obs)}")
        # (a) permission/violation outcome vs the reference model.  The
        # scalar loops leave record.index at -1 (position unknown), so
        # violations are matched by (va, access): the model names the
        # refusing access, and the raised record must carry its address.
        if not expected.checked:
            if s_exc is not None:
                mism.append(f"{name}: ideal config raised {s_exc}")
        else:
            idx = expected.violation_index
            violations[name] = (None if s_exc is None
                                else (idx, s_exc[2]))
            if (s_exc is None) != (idx is None):
                mism.append(f"{name}: violation {s_exc}, model predicts "
                            f"index {idx}")
            elif s_exc is not None:
                want = (int(addrs[idx]), "w" if writes[idx] else "r")
                if (s_exc[1], s_exc[2]) != want:
                    mism.append(f"{name}: violation at va "
                                f"{s_exc[1]:#x}/{s_exc[2]}, model predicts "
                                f"{want[0]:#x}/{want[1]} (index {idx})")
            if (scenario.violation is not None) != (expected.violation_index
                                                   is not None):
                mism.append(f"{name}: planned violation "
                            f"{scenario.violation} but model predicts "
                            f"index {expected.violation_index}")
        # (c) fault-accounting invariants (clean, checked runs).
        if expected.checked and s_exc is None and s_stats is not None:
            fstate = _fault_state(scalar)
            checks = {
                "major_faults==model": (s_stats.major_faults, expected.major),
                "swap_faults==model": (s_stats.swap_faults, expected.swap),
                "faults==path.serviced": (s_stats.faults,
                                          fstate["path"]["serviced"]),
                "fault_stall==faults*ROUND_TRIP": (
                    s_stats.fault_stall_cycles,
                    s_stats.faults * ROUND_TRIP_CYCLES),
                "serviced==handler.major+swap+spurious": (
                    fstate["path"]["serviced"],
                    fstate["handler"]["major"] + fstate["handler"]["swap"]
                    + fstate["handler"]["spurious"]),
                "handler.major==stats": (fstate["handler"]["major"],
                                         s_stats.major_faults),
                "handler.swap==stats": (fstate["handler"]["swap"],
                                        s_stats.swap_faults),
                "no spurious services": (fstate["handler"]["spurious"], 0),
                "fault energy==faults": (
                    s_stats.energy.events.get("fault_service", 0),
                    s_stats.faults),
            }
            for what, (got, want) in checks.items():
                if got != want:
                    mism.append(f"{name}: {what} failed: {got} != {want}")
    distinct = set(violations.values())
    if len(distinct) > 1:
        mism.append(f"violation outcome differs across configs: {violations}")
    if obs_core.ENABLED:
        obs_core.REGISTRY.counter("fuzz.scenarios").inc()
        if mism:
            obs_core.REGISTRY.counter("fuzz.mismatches").inc()
    return result


# -- shrinking -------------------------------------------------------------


def _subset_stream(stream: StreamPlan, idx: np.ndarray) -> StreamPlan:
    return StreamPlan(region=stream.region[idx], offset=stream.offset[idx],
                      write=stream.write[idx])


def _shrink_stream(scenario, failing, budget) -> Scenario:
    """ddmin over the access stream: remove chunks while still failing."""
    chunk = max(len(scenario.stream) // 2, 1)
    while chunk >= 1 and budget.left > 0:
        i = 0
        while i < len(scenario.stream) and budget.left > 0:
            n = len(scenario.stream)
            keep = np.concatenate([np.arange(0, i),
                                   np.arange(min(i + chunk, n), n)])
            if keep.size == 0:
                i += chunk
                continue
            candidate = replace(scenario,
                                stream=_subset_stream(scenario.stream, keep))
            budget.left -= 1
            if failing(candidate):
                scenario = candidate
            else:
                i += chunk
        chunk //= 2
    return scenario


def _drop_region(scenario: Scenario, index: int) -> Scenario:
    """Remove one region, remapping stream/violation/unmap indices."""
    plan = scenario.plan
    regions = tuple(r for i, r in enumerate(plan.regions) if i != index)
    unmap = plan.unmap_region
    if unmap is not None and unmap > index:
        unmap -= 1
    new_plan = replace(plan, regions=regions, unmap_region=unmap)
    region = np.array(scenario.stream.region, copy=True)
    region[region > index] -= 1
    stream = replace(scenario.stream, region=region)
    violation = scenario.violation
    if violation is not None and violation.region > index:
        violation = replace(violation, region=violation.region - 1)
    return replace(scenario, plan=new_plan, stream=stream,
                   violation=violation)


def _layout_candidates(scenario: Scenario):
    plan = scenario.plan
    if plan.pressure != "none":
        yield replace(scenario, plan=replace(plan, pressure="none"))
    if plan.demand:
        yield replace(scenario, plan=replace(plan, demand=False))
    if plan.scale != "default":
        yield replace(scenario, plan=replace(plan, scale="default"))
    used = set(np.unique(scenario.stream.region).tolist())
    if scenario.violation is not None:
        used.add(scenario.violation.region)
    if plan.unmap_region is not None and plan.unmap_region not in used:
        yield replace(scenario, plan=replace(plan, unmap_region=None))
    if len(plan.regions) > 1:
        for i in reversed(range(len(plan.regions))):
            if i not in used and plan.unmap_region != i:
                yield _drop_region(scenario, i)


@dataclass
class _Budget:
    left: int


def shrink(scenario: Scenario, failing, max_evals: int = 80,
           ) -> tuple[Scenario, int]:
    """Minimize a failing scenario; returns (smaller scenario, evals).

    ``failing(candidate)`` must return True while the candidate still
    reproduces the mismatch.  Stream ddmin runs before and after the
    layout-simplification passes, all under one evaluation budget.
    """
    budget = _Budget(left=max_evals)
    scenario = _shrink_stream(scenario, failing, budget)
    progress = True
    while progress and budget.left > 0:
        progress = False
        for candidate in _layout_candidates(scenario):
            if budget.left <= 0:
                break
            budget.left -= 1
            if failing(candidate):
                scenario = candidate
                progress = True
                break
    scenario = _shrink_stream(scenario, failing, budget)
    return scenario, max_evals - budget.left


def repro_command(seed: int, self_test: bool = False) -> str:
    """The one-line command reproducing a mismatch for ``seed``."""
    extra = " --self-test" if self_test else ""
    return f"PYTHONPATH=src python -m repro fuzz --repro {seed}{extra}"
