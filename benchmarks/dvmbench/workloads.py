"""The four dvmbench workloads and the rows they check.

Each workload prepares its inputs from the seed, then runs *rounds*: a
fixed amount of user-visible work whose host wall time is one sample.
A round returns one digest per simulated output row; the benchmark
compares every digest with the scalar-engine reference in
``reference.json``.  Rows are named ``workload/app/graph/mode/config``.

Graph inputs are scaled-down copies of the registry's full-profile
shapes (``repro.graphs.datasets``): same generator, same edge factor and
user:item ratio, the registry's generator seed plus the *variant*
``seed % VARIANTS``.  ``--tiny`` swaps in the registry's bench-profile
graphs.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

from repro.accel import algorithms
from repro.core.config import (HardwareScale, demand_faulting_config,
                               standard_configs)
from repro.gen import oracle
from repro.graphs import bipartite, rmat
from repro.graphs.datasets import WORKLOAD_PAIRS
from repro.sim import system as sim_system
from repro.sim.runner import ExperimentRunner

#: Graph inputs come in this many seed variants, each with stored
#: reference digests; ``--seed N`` selects variant ``N % VARIANTS``.
VARIANTS = 16


def digest(record: dict) -> str:
    """Short content digest of one output record."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class GraphSpec:
    """A seeded surrogate shaped like one registry dataset.

    ``scale`` is log2 of the vertex count (RMAT) or of the user count
    (bipartite, which also sets ``items_log2``); ``seed`` is the
    registry's generator seed, offset by the variant.
    """

    name: str
    scale: int
    edge_factor: int
    seed: int
    items_log2: int = 0

    def build(self, variant: int):
        """(graph, bipartite shape or None) for one variant."""
        if self.items_log2:
            return bipartite.bipartite_from_rmat(
                1 << self.scale, 1 << self.items_log2,
                self.edge_factor << self.scale, seed=self.seed + variant)
        return rmat.rmat_graph(self.scale, self.edge_factor,
                               seed=self.seed + variant), None


# Full-profile shapes scaled down ("e": an eighth of S24's 2^19
# vertices and Bip2's 2^18 users; "q": a quarter of Wiki's and LJ's
# 2^18 vertices), and the bench profile itself ("b").
S24E = GraphSpec("S24e", 16, 16, 14)
BIP2E = GraphSpec("Bip2e", 15, 16, 17, items_log2=11)
WIKIQ = GraphSpec("Wikiq", 16, 16, 12)
LJQ = GraphSpec("LJq", 16, 14, 13)
S24B = GraphSpec("S24b", 13, 16, 14)
BIP2B = GraphSpec("Bip2b", 13, 16, 17, items_log2=9)
WIKIB = GraphSpec("Wikib", 12, 16, 12)
LJB = GraphSpec("LJb", 12, 14, 13)


@dataclass
class Round:
    """What one round did, for the metrics and the reference check."""

    section: str                                  # reference.json section
    rows: dict = field(default_factory=dict)      # row name -> digest
    units: list = field(default_factory=list)     # host s per unit of work
    accesses: int = 0                             # simulated, x configs
    attempted: int = 0                            # units of work
    failed: int = 0                               # units that failed
    failures: list = field(default_factory=list)  # what failed, for humans
    counters: dict = field(default_factory=dict)  # the program's own counts
    wall: float = 0.0


def _configs():
    return standard_configs(HardwareScale())


class Fig8Large:
    """Cold, serial Figure 8 regeneration of two large-trace pairs.

    The same call sequence as ``ExperimentRunner._simulate``: build the
    graph, run the accelerator functionally, then boot one system per
    configuration and run the trace with one batch cache per pair.
    """

    name = "fig8-large"
    PAIRS = (("bfs", S24E), ("cf", BIP2E))
    TINY_PAIRS = (("bfs", S24B), ("cf", BIP2B))

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        self.variant = 0 if tiny else seed % VARIANTS
        self.section = "tiny" if tiny else f"v{self.variant}"
        self.pairs = self.TINY_PAIRS if tiny else self.PAIRS

    def prepare(self):
        return None                 # every round builds its inputs cold

    def warm_up(self, state) -> Round:
        return self._simulate(self.TINY_PAIRS, 0, "tiny", "fast")

    def reset(self, state, index: int) -> None:
        pass

    def round(self, state, index: int) -> Round:
        return self._simulate(self.pairs, self.variant, self.section, "fast")

    def reference_rows(self) -> dict:
        return self._simulate(self.pairs, self.variant, self.section,
                              "scalar").rows

    def _simulate(self, pairs, variant, section, engine) -> Round:
        out = Round(section)
        configs = _configs()
        for app, spec in pairs:
            graph, shape = spec.build(variant)
            trace = algorithms.run_workload(app, graph, shape=shape).trace
            prop = algorithms.prop_bytes_for(app)
            cache: dict = {}
            for name, config in configs.items():
                start = time.perf_counter()
                system = sim_system.HeterogeneousSystem(config)
                system.load_graph(graph, prop_bytes=prop)
                metrics = system.run(trace, workload=app, graph=spec.name,
                                     engine=engine, batch_cache=cache)
                out.units.append(time.perf_counter() - start)
                out.rows[f"{self.name}/{app}/{spec.name}/-/{name}"] = \
                    digest(metrics.to_dict())
            out.accesses += len(trace) * len(configs)
            out.attempted += len(configs)
            del graph, trace, cache
        return out


class Faults:
    """Fault pre-delivery through the real fault queue and handler.

    Traces are prepared in set-up.  Each round times, per pair and mode,
    booting the system, applying reclaim pressure, binding the trace
    with a fresh batch cache and running the batch.
    """

    name = "faults"
    #: (fault mode, base configuration).
    MODES = (("demand", "conv_4k"), ("swap", "dvm_pe"), ("swap", "dvm_bm"))
    SWAP_FRACTION = 0.5
    PAIRS = (("bfs", WIKIQ), ("pagerank", LJQ))
    TINY_PAIRS = (("bfs", WIKIB), ("pagerank", LJB))

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        self.variant = 0 if tiny else seed % VARIANTS
        self.section = "tiny" if tiny else f"v{self.variant}"
        self.pairs = self.TINY_PAIRS if tiny else self.PAIRS

    def prepare(self):
        return self._traces(self.pairs, self.variant)

    def warm_up(self, state) -> Round:
        return self._simulate(self._traces(self.TINY_PAIRS, 0), "tiny",
                              "fast")

    def reset(self, state, index: int) -> None:
        pass

    def round(self, state, index: int) -> Round:
        return self._simulate(state, self.section, "fast")

    def reference_rows(self) -> dict:
        return self._simulate(self.prepare(), self.section, "scalar").rows

    @staticmethod
    def _traces(pairs, variant):
        out = []
        for app, spec in pairs:
            graph, shape = spec.build(variant)
            trace = algorithms.run_workload(app, graph, shape=shape).trace
            out.append((app, spec, graph, trace))
        return out

    def _simulate(self, traces, section, engine) -> Round:
        out = Round(section)
        configs = _configs()
        for app, spec, graph, trace in traces:
            for mode, base in self.MODES:
                start = time.perf_counter()
                config = configs[base]
                if mode == "demand":
                    config = demand_faulting_config(config)
                system = sim_system.HeterogeneousSystem(config)
                system.load_graph(graph,
                                  prop_bytes=algorithms.prop_bytes_for(app))
                if mode == "swap":
                    system.apply_reclaim_pressure(self.SWAP_FRACTION)
                stats = system.run_trace(trace, engine=engine, batch_cache={})
                out.units.append(time.perf_counter() - start)
                out.rows[f"{self.name}/{app}/{spec.name}/{mode}/{base}"] = \
                    digest(asdict(stats))
            out.accesses += len(trace) * len(self.MODES)
            out.attempted += len(self.MODES)
        return out


class SweepBench:
    """All 15 pairs x 7 configurations through the supervised sweep.

    Bench profile and bench hardware scale, 2 workers, warm traces in
    the artifact cache and cold metrics: per-pair compute is small, so
    the sweep's control plane dominates.  The inputs are the registry's
    bench graphs for every seed.  With 2 workers the pair order sets the
    makespan, so each round dispatches the pairs in its own order, drawn
    from the seed and the round index: a run's median then rests on
    several orders, not on the one its seed happens to give.
    """

    name = "sweep-bench"
    WORKERS = 2
    #: The warm-up sweep, and the whole sweep under ``--tiny``.
    SMALL_PAIRS = (("bfs", "FR"), ("pagerank", "Wiki"), ("cf", "NF"))

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        self.seed = seed
        self.pairs = list(self.SMALL_PAIRS if tiny else WORKLOAD_PAIRS)
        self.section = "bench"
        self.cache_dir = work_dir / "sweep-cache"

    def _runner(self, engine="fast", cache=True) -> ExperimentRunner:
        return ExperimentRunner(
            profile="bench", scale=HardwareScale.bench(), engine=engine,
            cache_dir=str(self.cache_dir) if cache else None)

    def prepare(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        runner = self._runner()
        traced = sum(runner.prepare(*pair).trace_length for pair in self.pairs)
        return SimpleNamespace(accesses=traced * len(runner.configs()))

    def warm_up(self, state) -> Round:
        self.reset(state, -1)
        return self._sweep(self.SMALL_PAIRS, 0)

    def reset(self, state, index: int) -> None:
        """Drop the metrics envelopes so every sweep computes them."""
        for path in self.cache_dir.glob("*/metrics-*.json"):
            path.unlink()

    def round(self, state, index: int) -> Round:
        pairs = list(self.pairs)
        random.Random(f"{self.seed}:{index}").shuffle(pairs)
        return self._sweep(pairs, state.accesses)

    def reference_rows(self) -> dict:
        runner = self._runner(engine="scalar", cache=False)
        return self._rows(runner.run_pairs(pairs=self.pairs), runner,
                          self.pairs, 0).rows

    def _sweep(self, pairs, accesses) -> Round:
        runner = self._runner()
        merged = runner.run_pairs(pairs=pairs, workers=self.WORKERS)
        return self._rows(merged, runner, pairs, accesses)

    def _rows(self, merged, runner, pairs, accesses) -> Round:
        out = Round(self.section, accesses=accesses)
        out.attempted = len(pairs) * len(runner.configs())
        for (app, dataset, name), metrics in merged.items():
            out.rows[f"{self.name}/{app}/{dataset}/-/{name}"] = \
                digest(metrics.to_dict())
        # A quarantined pair leaves rows out; a retried, timed-out or
        # degraded pair shows up as a resilience event.
        report = runner.resilience
        out.failed = out.attempted - len(out.rows) + report.events()
        if out.failed:
            out.failures.append(report.render())
        out.counters = {"runner.cache_hits": report.cache_hits,
                        "runner.cache_misses": report.cache_misses,
                        "runner.retries": report.retries,
                        "sweep.steals": report.steals,
                        "sweep.hedges": report.hedges}
        return out


class FuzzSchedule:
    """Scenario seeds from ``base`` upward, dealt into stratified rounds.

    Scenario cost depends mostly on the memory-pressure prelude and the
    hardware scale of the generated layout, so every round takes a fixed
    quota of each (pressure, scale) class in seed order.  That keeps
    rounds comparable across seeds without choosing the scenarios.

    Seeds the generator cannot build are skipped (``gen_stream`` raises
    ``ValueError`` when a plan leaves no benign region to draw from:
    about one seed in 4,000, e.g. 1551).  Each round records the seeds
    skipped while it was dealt; :meth:`over_allowance` tells whether
    they exceed :data:`SKIP_ALLOWANCE` of the seeds drawn.
    """

    #: Per-round quota, proportional to each class's share of seeds.
    QUOTAS = {("fragment", "default"): 6, ("fragment", "fuzz"): 3,
              ("none", "default"): 9, ("none", "fuzz"): 5,
              ("reclaim", "default"): 6, ("reclaim", "fuzz"): 3}
    #: Share of drawn seeds that may be skipped before skips count as
    #: failures.
    SKIP_ALLOWANCE = 0.01
    #: :meth:`take` gives up after this many unbuildable seeds in a row.
    MAX_CONSECUTIVE_SKIPS = 8

    def __init__(self, base: int):
        self.base = base
        self.next_seed = base
        self.pools: dict = {cls: [] for cls in self.QUOTAS}
        self.rounds: list[list[int]] = []
        #: Per round, the seeds skipped while dealing it.
        self.round_skips: list[list[int]] = []
        #: Every seed the generator could not turn into a scenario.
        self.skipped: list[int] = []

    def take(self) -> tuple[int, tuple]:
        """The next generatable seed and its (pressure, scale) class."""
        for _ in range(self.MAX_CONSECUTIVE_SKIPS):
            seed = self.next_seed
            self.next_seed += 1
            try:
                plan = oracle.scenario_from_seed(seed).plan
            except ValueError:
                self.skipped.append(seed)
                continue
            return seed, (plan.pressure, plan.scale)
        raise RuntimeError(f"scenario generation raised for "
                           f"{self.MAX_CONSECUTIVE_SKIPS} seeds in a row "
                           f"(up to {self.next_seed - 1})")

    def over_allowance(self) -> bool:
        return len(self.skipped) > self.SKIP_ALLOWANCE * (self.next_seed
                                                          - self.base)

    def deal(self, count: int) -> None:
        """One unstratified round of the next ``count`` seeds."""
        skipped = len(self.skipped)
        self.rounds.append([self.take()[0] for _ in range(count)])
        self.round_skips.append(self.skipped[skipped:])

    def extend(self, count: int) -> None:
        """Deal stratified rounds until there are at least ``count``."""
        while len(self.rounds) < count:
            skipped = len(self.skipped)
            while any(len(self.pools[cls]) < quota
                      for cls, quota in self.QUOTAS.items()):
                seed, cls = self.take()
                self.pools[cls].append(seed)
            seeds = []
            for cls, quota in self.QUOTAS.items():
                seeds += self.pools[cls][:quota]
                del self.pools[cls][:quota]
            self.rounds.append(sorted(seeds))
            self.round_skips.append(self.skipped[skipped:])


class Fuzz:
    """The differential oracle over generated scenarios.

    Every scenario runs all 7 configurations under the scalar engine,
    the fast engine and the independent permission model, so each
    scenario checks itself: there are no stored reference rows.
    """

    name = "fuzz"
    TINY_SCENARIOS = 8
    #: Fixed, like every workload's warm-up: scenario cost has a heavy
    #: tail, so warming up on the seed's own scenarios would make set-up
    #: time depend on the seed.
    WARM_UP_SEEDS = (0, 1, 2, 3)

    #: Rounds dealt during set-up, enough for a 20 s window.
    ROUNDS_DEALT = 24

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        self.base = seed * 512
        self.tiny = tiny

    def prepare(self):
        schedule = FuzzSchedule(self.base)
        if self.tiny:
            schedule.deal(self.TINY_SCENARIOS)
        else:
            schedule.extend(self.ROUNDS_DEALT)
        return schedule

    def warm_up(self, state) -> Round:
        return self._check(self.WARM_UP_SEEDS)

    def reset(self, state, index: int) -> None:
        state.extend(index + 1)

    def round(self, state, index: int) -> Round:
        out = self._check(state.rounds[index])
        # Skipped seeds were attempted; beyond the allowance they failed.
        skipped = state.round_skips[index]
        out.attempted += len(skipped)
        if skipped and state.over_allowance():
            out.failed += len(skipped)
            out.failures.append(
                f"fuzz seeds {skipped}: scenario generation raised; "
                f"{len(state.skipped)} of {state.next_seed - state.base} "
                f"seeds drawn were skipped, over the "
                f"{state.SKIP_ALLOWANCE:.0%} allowance")
        return out

    def _check(self, seeds) -> Round:
        out = Round("fuzz")
        for seed in seeds:
            start = time.perf_counter()
            result = oracle.check_scenario(oracle.scenario_from_seed(seed))
            out.units.append(time.perf_counter() - start)
            # Both engines run every configuration.
            out.accesses += result.accesses * len(result.configs) * 2
            out.attempted += 1
            if not result.ok:
                out.failed += 1
                out.failures.append(f"fuzz seed {seed}: "
                                    + "; ".join(result.mismatches)
                                    + f" (repro: {oracle.repro_command(seed)})")
        return out


WORKLOADS = {cls.name: cls for cls in (Fig8Large, Faults, SweepBench, Fuzz)}
