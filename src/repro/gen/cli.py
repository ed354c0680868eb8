"""``python -m repro fuzz`` — the differential fuzz driver.

Usage::

    python -m repro fuzz                     # smoke: 64 scenarios
    python -m repro fuzz --seed-matrix       # CI matrix: 224 scenarios
    python -m repro fuzz --seeds N           # explicit scenario count
    python -m repro fuzz --base-seed B       # rotate the seed window
    python -m repro fuzz --configs a,b       # restrict the config set
    python -m repro fuzz --repro SEED        # re-run one seed verbosely
    python -m repro fuzz --self-test         # inject a known corruption
    python -m repro fuzz --out DIR           # artifact dir (build/fuzz)
    python -m repro fuzz --workers N         # fan seeds across the sweep
                                             # service (default REPRO_WORKERS)

Every scenario is derived from its seed alone, so a failure anywhere
reproduces with ``--repro <seed>`` — no artifact file needed.  The
artifact (written under ``--out``) additionally carries the *shrunken*
scenario, the mismatch list and the repro command, for post-mortems
where re-shrinking would be wasteful.

``--self-test`` deterministically corrupts the fast engine's stats
(:class:`~repro.gen.oracle.SelfTestCorruption`) and inverts the exit
code: the run passes only if the oracle catches the corruption and the
shrinker minimizes it, proving the pipeline would catch a real bug.

With ``--workers > 1`` the seed checks fan out through the supervised
sweep service (:mod:`repro.sweep.scheduler`) — the same scheduler,
liveness supervision and resilience reporting the figure sweeps use —
while shrinking (rare) and ``--self-test`` / ``--repro`` (stateful or
verbose by design) stay in-parent.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.common import env
from repro.gen.oracle import (
    CONFIG_NAMES,
    ScenarioResult,
    SelfTestCorruption,
    check_scenario,
    repro_command,
    scenario_from_seed,
    scenario_to_dict,
    shrink,
)
from repro.obs import trace as obs_trace

#: Scenario counts for the two CI profiles.  The matrix count clears the
#: 200-scenario acceptance floor with headroom for future skips.
SMOKE_SEEDS = 64
MATRIX_SEEDS = 224

DEFAULT_OUT = Path("build/fuzz")


def _mismatching_configs(result: ScenarioResult) -> tuple[str, ...]:
    """Config names implicated by a verdict's mismatch lines."""
    names = [n for n in result.configs
             if any(m.startswith(f"{n}:") for m in result.mismatches)]
    return tuple(names) or result.configs


def _shrink_and_report(scenario, result, out_dir: Path,
                       corrupt: SelfTestCorruption | None) -> Path:
    """Shrink a failing scenario and quarantine the artifact."""
    focus = _mismatching_configs(result)

    def failing(candidate) -> bool:
        return not check_scenario(candidate, configs=focus,
                                  corrupt=corrupt).ok

    with obs_trace.span("fuzz.shrink", cat="fuzz", seed=scenario.seed):
        small, evals = shrink(scenario, failing)
    final = check_scenario(small, configs=focus, corrupt=corrupt)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = out_dir / f"mismatch-seed{scenario.seed}.json"
    artifact.write_text(json.dumps({
        "repro": repro_command(scenario.seed,
                               self_test=corrupt is not None),
        "mismatches": result.mismatches,
        "shrunk_mismatches": final.mismatches,
        "shrink_evals": evals,
        "original_accesses": len(scenario.stream),
        "shrunk_accesses": len(small.stream),
        "configs": list(focus),
        "scenario": scenario_to_dict(small),
    }, indent=2))
    print(f"  shrunk {len(scenario.stream)} -> {len(small.stream)} "
          f"accesses in {evals} evals; artifact: {artifact}")
    print(f"  repro: {repro_command(scenario.seed, corrupt is not None)}")
    return artifact


def _parse(argv: list[str]) -> dict:
    opts = {"seeds": None, "base_seed": 0, "configs": None, "repro": None,
            "self_test": False, "out": DEFAULT_OUT, "seed_matrix": False,
            "workers": None}
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--seed-matrix":
            opts["seed_matrix"] = True
        elif a == "--smoke":
            opts["seeds"] = SMOKE_SEEDS
        elif a == "--self-test":
            opts["self_test"] = True
        elif a in ("--seeds", "--base-seed", "--configs", "--repro",
                   "--out", "--workers"):
            if i + 1 >= len(argv):
                raise SystemExit(f"{a} needs a value")
            v = argv[i + 1]
            i += 1
            if a == "--seeds":
                opts["seeds"] = int(v)
            elif a == "--base-seed":
                opts["base_seed"] = int(v)
            elif a == "--configs":
                opts["configs"] = tuple(v.split(","))
            elif a == "--repro":
                opts["repro"] = int(v)
            elif a == "--workers":
                opts["workers"] = max(int(v), 1)
            else:
                opts["out"] = Path(v)
        else:
            raise SystemExit(f"unknown fuzz option {a!r} (see "
                             f"'python -m repro fuzz --help' in docs/"
                             f"fuzzing.md)")
        i += 1
    if opts["seeds"] is None:
        opts["seeds"] = MATRIX_SEEDS if opts["seed_matrix"] else SMOKE_SEEDS
    return opts


def _check_seeds_supervised(seeds: list[int], configs,
                            workers: int) -> dict[int, dict]:
    """Fan seed checks through the supervised sweep service.

    Returns ``{seed: verdict}`` where a verdict carries ``ok``,
    ``accesses`` and ``mismatches``.  The service folds worker
    observability and resilience counters into the parent exactly as in
    a pair sweep; anything the scheduler had to repair is printed so a
    chaotic nightly run is never silently "clean".
    """
    from repro.sim.resilience import ResilienceReport
    from repro.sweep.scheduler import SweepService
    from repro.sweep.tasks import TaskSpec

    verdicts: dict[int, dict] = {}

    def on_done(task, entries) -> None:
        verdicts[task.payload["seed"]] = dict(entries[0][1])

    report = ResilienceReport()
    SweepService(
        tasks=[TaskSpec(key=f"fuzz/seed{seed}", kind="fuzz",
                        payload=dict(seed=seed,
                                     config_names=list(configs)),
                        shard=str(seed))
               for seed in seeds],
        runner_spec={},
        report=report,
        on_done=on_done,
        on_violation=lambda task, exc: verdicts.__setitem__(
            task.payload["seed"],
            dict(seed=task.payload["seed"], ok=False, accesses=0,
                 mismatches=[f"guest violation in worker: {exc}"])),
        workers=workers,
    ).run()
    if report.events():
        print(report.render())
    return verdicts


def main(argv: list[str]) -> int:
    """Entry point for ``python -m repro fuzz``."""
    opts = _parse(argv)
    corrupt = SelfTestCorruption() if opts["self_test"] else None
    configs = opts["configs"] or CONFIG_NAMES
    if opts["repro"] is not None:
        seeds = [opts["repro"]]
    else:
        seeds = list(range(opts["base_seed"],
                           opts["base_seed"] + opts["seeds"]))
    workers = opts["workers"] or env.workers()
    supervised = (workers > 1 and len(seeds) > 1
                  and opts["repro"] is None and corrupt is None)
    t0 = time.time()
    failures: list[int] = []
    checked = 0
    verdicts = _check_seeds_supervised(seeds, configs, workers) \
        if supervised else None
    for seed in seeds:
        if verdicts is not None:
            verdict = verdicts.get(seed)
            if verdict is not None and verdict["ok"]:
                checked += 1
                continue
            # Mismatch (or a seed the scheduler quarantined): recompute
            # in-parent — scenario checks are pure functions of the
            # seed — for the verbose report and the shrink.
        scenario = scenario_from_seed(seed)
        with obs_trace.span("fuzz.scenario", cat="fuzz", seed=seed,
                            accesses=len(scenario.stream)):
            result = check_scenario(scenario, configs=configs,
                                    corrupt=corrupt)
        checked += 1
        if result.ok:
            if opts["repro"] is not None:
                print(f"seed {seed}: ok ({result.accesses} accesses x "
                      f"{len(result.configs)} configs)")
            continue
        failures.append(seed)
        print(f"seed {seed}: MISMATCH "
              f"({result.accesses} accesses, {len(scenario.plan.regions)} "
              f"regions, pressure={scenario.plan.pressure})")
        for m in result.mismatches:
            print(f"    {m}")
        _shrink_and_report(scenario, result, opts["out"], corrupt)
    dt = time.time() - t0
    label = "self-test " if corrupt else ""
    print(f"fuzz: {checked} {label}scenarios x {len(configs)} configs, "
          f"{len(failures)} mismatching, {dt:.1f}s")
    if corrupt is not None and opts["repro"] is None:
        # Self-test inverts the verdict: the corruption MUST be caught.
        if failures:
            print("self-test: corruption caught and shrunk (pipeline ok)")
            return 0
        print("self-test: injected corruption was NOT caught")
        return 1
    return 1 if failures else 0
