"""``python -m repro sweep`` — the supervised sweep service entry point.

Usage::

    python -m repro sweep pairs [--bench] [--workers N]
                                [--pairs w/d,w/d] [--configs a,b]
    python -m repro sweep probes [--count N] [--spin S] [--workers N]
    python -m repro sweep --chaos-smoke [--count N] [--workers N]

``pairs`` runs a (workload, dataset) matrix through
:meth:`~repro.sim.runner.ExperimentRunner.run_pairs` — the same path the
figure artifacts use — honoring ``REPRO_CACHE_DIR`` / ``REPRO_WORKERS``
/ ``REPRO_PAIR_TIMEOUT`` and printing the resilience report.

``probes`` runs synthetic deterministic tasks (see
:func:`repro.sweep.tasks._execute_probe`): cheap enough for
hundreds-of-task scheduler exercises, strict enough that any lost,
duplicated, or double-counted task changes the merged digest.

``--chaos-smoke`` is the CI gate: it computes a fault-free serial
reference for a probe sweep, then re-runs the sweep once per scheduler
fault site — worker hangs, exits, crashes, torn checkpoint appends,
lost heartbeats, supervisor stalls — and fails unless every run's
merged output is bit-identical to the reference and hang detection beat
the pair timeout by a wide margin.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from repro.common import env, faults
from repro.common.errors import InjectedFault

#: Probe cost knob making one task outlast the liveness grace window
#: (~120 ms vs 0.1 s) — required for a suppressed heartbeat to be
#: *observable*, not merely injected.
SLOW_SPIN = 1_000_000
#: Task count for slow-probe rounds (keeps the serial reference cheap).
SLOW_COUNT = 60

#: Scheduler fault sites exercised by ``--chaos-smoke``: (site, spec,
#: overrides).  Probabilities are tuned so a ~200-probe sweep sees a
#: handful of firings without the wall clock exploding; heartbeat-family
#: sites run fewer, slower probes so tasks outlive the grace window.
CHAOS_SITES = (
    ("worker_hang", "worker_hang:0.02:2", {}),
    ("worker_exit", "worker_exit:0.02:2", {}),
    ("worker_crash", "worker_crash:0.05:4", {}),
    ("scheduler_stall", "scheduler_stall:0.01:2", {}),
    ("checkpoint_torn", "checkpoint_torn:0.05:1", {}),
    ("heartbeat_loss", "heartbeat_loss:0.1:3",
     {"count": SLOW_COUNT, "spin": SLOW_SPIN}),
    # The acceptance gate: every scheduler fault site live in ONE sweep.
    ("all-sites", "worker_hang:0.01:1,worker_exit:0.01:1,"
                  "worker_crash:0.03:2,scheduler_stall:0.01:1,"
                  "checkpoint_torn:0.03:1,heartbeat_loss:0.05:2",
     {"count": SLOW_COUNT, "spin": SLOW_SPIN}),
)

#: Environment pinned during the chaos smoke so hangs resolve in tens of
#: milliseconds instead of the production defaults.
CHAOS_ENV = {
    "REPRO_SWEEP_HEARTBEAT": "0.05",
    "REPRO_HANG_SECONDS": "2.0",
}


def run_probe_sweep(count: int, workers: int, *, spin: int = 200,
                    report=None, journal_path: str | Path | None = None,
                    pair_timeout: float | None = None):
    """Run ``count`` probe tasks through the sweep service.

    Returns ``(results, service)`` where ``results`` maps seed to the
    probe's deterministic value and ``service`` exposes the scheduler's
    internals (``detection_latencies``, ``report``) for tests.  With
    ``journal_path`` set, completions stream into a crash-consistent
    :class:`~repro.sweep.journal.SweepJournal` and a re-run resumes from
    it — the exact ``run_pairs`` checkpoint discipline.
    """
    from repro.sim.resilience import ResilienceReport
    from repro.sweep.journal import SweepJournal
    from repro.sweep.scheduler import SweepService
    from repro.sweep.tasks import TaskSpec

    report = report if report is not None else ResilienceReport()
    sweep_key = f"probe-sweep-{count}-{spin}"
    journal = SweepJournal(Path(journal_path), sweep_key) \
        if journal_path is not None else None
    results: dict[int, int] = {}
    if journal is not None:
        for _key, entries in journal.load().items():
            payload = entries[0][1]
            results[payload["seed"]] = payload["value"]
        report.resumed_pairs += len(results)
        report.torn_records += journal.torn_records
        report.fenced_records += journal.fenced_records

    def on_done(task, entries) -> None:
        payload = entries[0][1]
        results[payload["seed"]] = payload["value"]
        if journal is not None:
            journal.append(task.key, [[name, dict(value)]
                                      for name, value in entries])

    service = SweepService(
        tasks=[TaskSpec(key=f"probe/{seed}", kind="probe",
                        payload=dict(seed=seed, spin=spin),
                        shard=str(seed % 8))
               for seed in range(count) if seed not in results],
        runner_spec={},
        report=report,
        on_done=on_done,
        on_violation=lambda task, exc: None,    # probes cannot violate
        workers=workers,
        pair_timeout=pair_timeout,
    )
    service.run()
    return results, service


def merged_digest(results: dict[int, int]) -> str:
    """Order-independent content digest of a probe sweep's merged output."""
    blob = json.dumps(sorted(results.items()), separators=(",", ":"),
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _chaos_round(site, spec, overrides, *, count, workers, pair_timeout,
                 reference_digest):
    """One chaos-smoke round; returns the failed-site list (0 or 1)."""
    site_count = overrides.get("count", count)
    spin = overrides.get("spin", 200)
    want = reference_digest(site_count, spin)
    t0 = time.time()
    faults.reset()
    faults.configure(spec, seed=7)
    detail = ""
    fired = 0
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = Path(tmp) / "sweep.ckpt.jsonl"
        try:
            results, service = run_probe_sweep(
                site_count, workers=workers, spin=spin,
                journal_path=journal_path,
                pair_timeout=pair_timeout)
        except InjectedFault:
            # A torn checkpoint append killed the sweep mid-flight; a
            # fresh incarnation must truncate the torn tail and resume
            # to the identical merge.
            fired += sum(faults.injector().fire_counts().values())
            faults.reset()
            results, service = run_probe_sweep(
                site_count, workers=workers, spin=spin,
                journal_path=journal_path,
                pair_timeout=pair_timeout)
            detail = (f" (resumed past torn tail: "
                      f"{service.report.resumed_pairs} replayed, "
                      f"{service.report.torn_records} truncated)")
    got = merged_digest(results)
    ok = got == want and len(results) == site_count
    # Parent-side firings only: worker-side sites (hangs, exits) show
    # up through the report's repair counters instead.
    fired += sum(faults.injector().fire_counts().values()) \
        if faults.injector() else 0
    repairs = {k: v for k, v in asdict(service.report).items()
               if isinstance(v, int) and v
               and k not in ("resumed_pairs", "torn_records")
               and k not in service.report._INFORMATIONAL}
    if repairs:
        detail += " [" + " ".join(f"{k}={v}" for k, v
                                  in sorted(repairs.items())) + "]"
    if service.detection_latencies:
        worst = max(service.detection_latencies)
        detail += f" (hang detected in {worst:.2f}s" \
                  f" vs {pair_timeout:.0f}s timeout)"
        if worst > pair_timeout / 5:
            ok = False
            detail += " TOO SLOW"
    status = "ok" if ok else "MISMATCH"
    print(f"chaos-smoke: {site:<16} fired x{fired} -> {got} "
          f"{status} [{time.time() - t0:.1f}s]{detail}")
    return [] if ok else [site]


def chaos_smoke(count: int = 220, workers: int = 4) -> int:
    """The CI chaos gate; returns a process exit code.

    Reference first (fault-free, serial), then one sweep per scheduler
    fault site.  Every sweep must merge bit-identical to the reference;
    the ``checkpoint_torn`` sweep must crash on the injected torn append
    and *resume* to the identical result; the ``worker_hang`` sweep must
    detect the hang in a small fraction of the pair timeout.
    """
    failures: list[str] = []
    references: dict[tuple[int, int], str] = {}

    def reference_digest(ref_count: int, spin: int) -> str:
        shape = (ref_count, spin)
        if shape not in references:
            ref, _ = run_probe_sweep(ref_count, workers=1, spin=spin)
            references[shape] = merged_digest(ref)
            print(f"chaos-smoke: reference {ref_count} probes "
                  f"(spin {spin}) -> {references[shape]}")
        return references[shape]

    pair_timeout = 30.0
    try:
        with env.override(CHAOS_ENV):
            faults.reset()
            for site, spec, overrides in CHAOS_SITES:
                failures.extend(_chaos_round(
                    site, spec, overrides, count=count, workers=workers,
                    pair_timeout=pair_timeout,
                    reference_digest=reference_digest))
    finally:
        faults.reset()
    if failures:
        print(f"chaos-smoke: FAILED sites: {', '.join(failures)}")
        return 1
    print(f"chaos-smoke: all {len(CHAOS_SITES)} scheduler fault sites "
          f"recovered bit-identically")
    return 0


def _run_pairs_cmd(opts: dict) -> int:
    from repro.graphs import datasets
    from repro.sim.runner import ExperimentRunner

    profile = "bench" if opts["bench"] else "full"
    runner = ExperimentRunner.from_env(profile=profile)
    pairs = None
    if opts["pairs"]:
        pairs = [tuple(item.split("/", 1)) for item in opts["pairs"]]
        unknown = [p for p in pairs if p not in
                   {tuple(q) for q in datasets.WORKLOAD_PAIRS}]
        if unknown:
            raise SystemExit(f"unknown pair(s): {unknown}; see "
                             f"'python -m repro list'")
    workers = opts["workers"] or env.workers()
    out = runner.run_pairs(pairs=pairs, config_names=opts["configs"],
                           workers=workers)
    print(f"sweep: {len(out)} (workload, dataset, config) results "
          f"with {workers} worker(s)")
    print(runner.resilience.render())
    return 0


def _run_probes_cmd(opts: dict) -> int:
    workers = opts["workers"] or env.workers()
    t0 = time.time()
    results, service = run_probe_sweep(opts["count"], workers=workers,
                                       spin=opts["spin"])
    print(f"sweep: {len(results)} probes x {workers} worker(s) -> "
          f"{merged_digest(results)} [{time.time() - t0:.1f}s]")
    print(service.report.render())
    return 0


def main(argv: list[str]) -> int:
    """Entry point for ``python -m repro sweep``."""
    opts = {"mode": None, "count": 220, "spin": 200, "workers": None,
            "bench": False, "pairs": None, "configs": None}
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in ("pairs", "probes"):
            opts["mode"] = a
        elif a == "--chaos-smoke":
            opts["mode"] = "chaos-smoke"
        elif a == "--bench":
            opts["bench"] = True
        elif a in ("--count", "--spin", "--workers", "--pairs",
                   "--configs"):
            if i + 1 >= len(argv):
                raise SystemExit(f"{a} needs a value")
            v = argv[i + 1]
            i += 1
            if a == "--count":
                opts["count"] = max(int(v), 1)
            elif a == "--spin":
                opts["spin"] = max(int(v), 0)
            elif a == "--workers":
                opts["workers"] = max(int(v), 1)
            elif a == "--pairs":
                opts["pairs"] = v.split(",")
            else:
                opts["configs"] = v.split(",")
        elif a in ("help", "-h", "--help"):
            print(__doc__)
            return 0
        else:
            raise SystemExit(f"unknown sweep option {a!r} "
                             f"(see docs/sweep.md)")
        i += 1
    if opts["mode"] == "chaos-smoke":
        workers = opts["workers"] or 4
        return chaos_smoke(opts["count"], workers=workers)
    if opts["mode"] == "pairs":
        return _run_pairs_cmd(opts)
    if opts["mode"] in (None, "probes"):
        return _run_probes_cmd(opts)
    raise SystemExit(f"unknown sweep mode {opts['mode']!r}")
