"""Sweep task model: what a unit of work is and how a worker runs one.

The sweep service schedules opaque :class:`TaskSpec` units; what a task
*means* is delegated to a small executor registry so every matrix the
repo runs — figure pairs, the fault-model ablation, nightly fuzz seed
shards, the chaos-smoke synthetic probes — flows through one scheduler,
one cache, one journal, and one resilience report:

``pair``
    one (workload, dataset) pair across a set of configurations — the
    classic ``run_pairs`` unit.  Entries are
    ``[(config_name, metrics_dict), ...]``.
``fuzz``
    one generated-scenario seed checked by the differential oracle
    (:mod:`repro.gen.oracle`).  Entries are a single
    ``[("fuzz", verdict_dict)]`` row.
``probe``
    a tiny deterministic self-test unit used by the chaos tests and the
    CI chaos-smoke sweep: cheap enough to run hundreds of, heavy enough
    to exercise every scheduler path.

Workers are long-lived processes (one per scheduler slot) running
:func:`_sweep_worker_main`: pull a task, re-key fault injection for the
attempt, reset observability, execute, ship
``{"key", "attempt", "entries"|"error", "report", "obs"}`` back on the
slot's private result pipe.  The scheduler's serial tier runs the same
executors in-process.  Chaos hooks for ``worker_exit`` /
``worker_hang`` / ``worker_crash`` / ``heartbeat_loss`` live at the top
of the task loop.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import asdict, dataclass, field

from repro.common import env, faults
from repro.obs import core as obs_core
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace
from repro import obs
from repro.common.errors import (PageFault, ProtectionFault, TransientError,
                                 WorkerCrashError)


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit of sweep work.

    ``key`` is the task's identity for journaling, dedup and resume
    (``workload/dataset`` for pairs, ``fuzz/seed<N>`` for fuzz seeds);
    ``shard`` is a locality hint — tasks sharing a shard are assigned to
    the same worker's deque so its memmapped traces and graph surrogates
    stay warm (a stolen task merely loses the warmth, never the result).
    """

    key: str
    kind: str
    payload: dict = field(default_factory=dict)
    shard: str = ""


# -- executors ----------------------------------------------------------------
#
# Each executor maps (runner_spec, payload) -> (entries, report): the
# journal entries the parent merges, plus the worker-side resilience
# counters (cache hits/misses, quarantines, perturbation reruns, ...)
# accumulated while computing them.

def _execute_pair(runner_spec: dict, payload: dict) -> tuple[list, dict]:
    """Run one pair's configurations; returns journal entries."""
    from repro.sim.runner import ExperimentRunner
    runner = ExperimentRunner(**runner_spec)
    configs = runner.configs()
    selected = {name: configs[name] for name in payload["config_names"]}
    entries = runner._run_pair_serial(
        (payload["workload"], payload["dataset"]), selected)
    report = {key: value
              for key, value in asdict(runner.resilience).items()
              if isinstance(value, int) and value}
    return entries, report


def _execute_fuzz(runner_spec: dict, payload: dict) -> tuple[list, dict]:
    """Check one generated scenario seed against the oracle."""
    from repro.gen.oracle import check_scenario, scenario_from_seed
    seed = payload["seed"]
    names = tuple(payload["config_names"]) \
        if payload.get("config_names") else None
    with obs_trace.span("fuzz.scenario", cat="fuzz", seed=seed):
        result = check_scenario(scenario_from_seed(seed), configs=names)
    return [["fuzz", {"seed": seed, "ok": result.ok,
                      "accesses": result.accesses,
                      "mismatches": list(result.mismatches)}]], {}


def _execute_probe(runner_spec: dict, payload: dict) -> tuple[list, dict]:
    """A deterministic synthetic unit for chaos/scale tests.

    Computes a pure function of the probe's seed (a seeded LCG mixing
    loop) so a 200-task sweep costs milliseconds yet any lost,
    duplicated, reordered, or double-counted task changes the merged
    output.  ``spin`` adds bounded busy work to give the supervisor
    realistic in-flight durations (a task must outlive the liveness
    grace for a suppressed heartbeat to be observable).
    """
    seed = int(payload.get("seed", 0))
    spin = int(payload.get("spin", 0))
    value = (seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
    for _ in range(1000 + spin):
        value = (value * 6364136223846793005 + 1442695040888963407) \
            & 0xFFFFFFFFFFFFFFFF
    return [["probe", {"seed": seed, "value": value}]], {}


#: kind -> executor(runner_spec, payload) -> journal entries.
EXECUTORS = {
    "pair": _execute_pair,
    "fuzz": _execute_fuzz,
    "probe": _execute_probe,
}


# -- worker process entry -----------------------------------------------------

#: Seconds an idle worker waits for a task before it re-checks that its
#: parent is alive.  Idleness alone never ends a worker: a sibling's
#: straggler can keep the sweep going for minutes.
IDLE_SLICE = 60.0


def _sweep_worker_main(slot: int, task_r, result_w, beats,
                       heartbeat_interval: float, runner_spec: dict,
                       fault_spec: str | None, fault_seed: int) -> None:
    """Long-lived sweep worker: pull tasks, execute, ship results.

    The fault spec is configured explicitly from shipped arguments (not
    inherited fork state) so spawn-style contexts and chaos determinism
    agree; each task then re-keys the injector with its
    ``key#a<attempt>`` scope exactly like the pool-based worker did, so
    fault patterns are a pure function of (seed, task, attempt), never
    of which worker slot the task landed in.

    Every task ships its own observability payload and worker-side
    resilience counters back with its result; state is reset per task so
    nothing is double-shipped.  The worker exits only on a ``None``
    sentinel, a closed task pipe, or its parent's death (a changed
    ``os.getppid()``, checked every :data:`IDLE_SLICE` seconds idle).
    """
    # A fork-context worker inherits the parent's whole heap; a gen-2
    # collection here would traverse millions of inherited objects with
    # the GIL held — a multi-hundred-ms pause that starves the Pulse
    # thread and reads, from the supervisor's side, exactly like a hang.
    # Freezing moves the inherited heap to the permanent generation, so
    # worker collections only ever walk worker-allocated objects (and
    # copy-on-write pages stay shared instead of being dirtied by
    # refcount/GC-header writes during traversal).
    gc.freeze()
    faults.reset()
    faults.configure(fault_spec, fault_seed)
    pulse = obs_progress.Pulse(beats, slot, heartbeat_interval).start()
    parent = os.getppid()
    while True:
        try:
            if not task_r.poll(IDLE_SLICE):
                if os.getppid() != parent:
                    break
                continue
            task = task_r.recv()
        # Pipe closed: the parent tore the slot down; exit quietly.
        except (EOFError, OSError):
            break
        if task is None:
            break
        key, kind, payload, attempt = task
        pulse.resume()
        faults.configure(fault_spec, fault_seed)
        faults.rescope(f"{key}#a{attempt}")
        obs_core.refresh_from_env()
        obs.reset()
        result = {"key": key, "attempt": attempt}
        try:
            if faults.should_fire("worker_exit"):
                os._exit(13)    # simulate a hard worker death
            if faults.should_fire("worker_hang"):
                # A frozen worker beats no heartbeat; the supervisor
                # must detect the stale slot and kill this process long
                # before the pair wall-clock budget expires.
                pulse.suppress()
                time.sleep(env.floating("REPRO_HANG_SECONDS", 30.0))
                pulse.resume()
            if faults.should_fire("heartbeat_loss"):
                # Telemetry dies but the work continues: the supervisor
                # kills and requeues; it closes this worker's result
                # pipe unread, so the requeued attempt's result is the
                # only one.
                pulse.suppress()
            faults.maybe_raise(
                "worker_crash",
                lambda: WorkerCrashError(f"injected worker crash on {key}"))
            # The worker half of the stitched cross-process trace: the
            # flow *finish* binds to this task span, and its id matches
            # the flow start the scheduler emits for the same
            # ``key#a<attempt>`` dispatch — Perfetto draws the arrow.
            with obs_trace.span("task", cat="sched", key=key,
                                attempt=attempt):
                obs_trace.flow("f", "task-flow", "sched",
                               obs_trace.flow_id(f"{key}#a{attempt}"))
                entries, report = EXECUTORS[kind](runner_spec, payload)
            result["entries"] = entries
            result["report"] = report
        except (PageFault, ProtectionFault) as exc:
            result["error"] = exc           # picklable via __reduce__
        except TransientError as exc:
            result["error"] = exc
        # Worker entries ship failures back to the supervisor instead of
        # dying with an unclassified traceback (ship, don't die).
        # dvmlint: disable=FAULT002
        except BaseException as exc:        # noqa: BLE001
            result["error"] = WorkerCrashError(
                f"worker failed on {key}: {exc!r}")
        if obs_core.ENABLED:
            result["obs"] = {"registry": obs_core.REGISTRY.to_dict(),
                             "events": obs_trace.COLLECTOR.drain()}
        try:
            result_w.send(result)
        # The parent tore the pipe down mid-ship; nothing to report to.
        except OSError:
            break
    pulse.stop()
