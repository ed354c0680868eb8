"""The supervised sweep service: work stealing under a liveness supervisor.

The parent owns every worker process instead of handing them to a
``ProcessPoolExecutor``, which cannot kill a wedged worker (the only
lever is abandoning the future and waiting out the pair timeout), shares
one task/result queue a dying worker can corrupt for everyone, and
rebuilds the *whole* pool when one process breaks:

**Per-worker deques + stealing.**  Every worker slot has a parent-side
deque, and every task goes onto its shard-affine slot's deque at start
(same shard → same slot, so memmapped traces and graph surrogates stay
warm).  An idle worker steals from the *tail* of the longest other
deque — locality for the owner, cold tasks for the thief.

**One blocking point.**  The supervisor blocks in
:func:`multiprocessing.connection.wait` on the live slots' result pipes
and process sentinels, with half a heartbeat as the timeout: a
completion or a death wakes it at once, and the liveness and deadline
checks still run at least once per tick.

**Liveness supervision.**  Workers beat a timestamp into a shared slot
array (:class:`repro.obs.progress.Pulse`); the supervisor declares a
worker hung when its slot is staler than ``2 x REPRO_SWEEP_HEARTBEAT``
and SIGKILLs it immediately — detection in a couple of heartbeat
intervals (sub-second by default), not the full ``REPRO_PAIR_TIMEOUT``.
Until a worker's *first* beat lands the supervisor applies the longer
``REPRO_SWEEP_STARTUP_GRACE`` instead, so a slow process boot (forking
a large parent, spawn-context reimports) is never mistaken for a hang.
Each worker owns a private one-way task pipe and result pipe, so killing
it mid-``send`` can corrupt only channels that die with it.

**One degradation ladder.**  retry → steal → respawn the dead slot from
one pool-wide ``max_pool_rebuilds`` budget → in-process serial tier.  A
slot that dies past the budget stays dead (live workers steal its
queued work); when no live slot remains the loop ends and the serial
tier, which cannot break, finishes the sweep through the same task
executors the workers run.

**One attempt in flight.**  Tasks are deterministic, so a second copy
of a running task could only lose.  A key is dispatched only from a
deque and requeued only after its attempt failed or its worker was
killed (a killed worker's result pipe is closed undrained), so it is in
flight on at most one slot: the one whose ``busy`` names it.

Results merge exactly as before: the caller's ``on_done`` journals each
completion and the final merge iterates the task list in submission
order, so however chaotic the execution, the merged output is
bit-identical to a fault-free serial run.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass, field

from repro.common import env, faults
from repro.common.errors import PageFault, ProtectionFault, TransientError
from repro.obs import bus as obs_bus
from repro.obs import core as obs_core
from repro.obs import trace as obs_trace
from repro.sim.resilience import ResilienceReport, RetryPolicy, retry_call
from repro.sweep.tasks import EXECUTORS, _sweep_worker_main

#: Environment knobs (documented in docs/configuration.md).
HEARTBEAT_ENV_VAR = "REPRO_SWEEP_HEARTBEAT"
STARTUP_GRACE_ENV_VAR = "REPRO_SWEEP_STARTUP_GRACE"

#: A worker is hung when its beat is staler than this many intervals.
LIVENESS_GRACE_INTERVALS = 2.0


def _stable_slot(shard: str, nslots: int) -> int:
    """Deterministic shard → slot assignment (never builtin ``hash``,
    which is salted per process and would scatter affinity per run)."""
    digest = hashlib.sha256(shard.encode()).digest()
    return int.from_bytes(digest[:4], "big") % nslots


@dataclass
class _Worker:
    """Parent-side state for one worker slot."""

    slot: int
    process: object = None
    task_w: object = None            # parent's sending end of the task pipe
    result_r: object = None          # parent's receiving end of the results
    busy: str | None = None          # key of the task in flight
    started: float = 0.0             # dispatch time of the in-flight task
    spawned: float = 0.0             # process start time (boot grace)
    deadline: float | None = None    # wall-clock budget expiry
    dead: bool = False
    attempt: int = 0                 # dispatch seq of the in-flight task
    trace_started: float = 0.0       # dispatch time on the trace clock

    @property
    def idle(self) -> bool:
        return not self.dead and self.busy is None


@dataclass
class SweepService:
    """One supervised execution of a task set across worker slots.

    The caller supplies the policy surface — what to do on completion
    (``on_done``, which typically journals and may raise, e.g. the
    ``sweep_abort`` chaos hook) and how to contain a deterministic guest
    violation (``on_violation``).  The service owns scheduling,
    liveness, slot rebuilds, requeueing and the serial tier; it folds
    every payload's counters and observations into the sweep itself and
    reports everything it did through the shared
    :class:`~repro.sim.resilience.ResilienceReport`.
    """

    tasks: list
    runner_spec: dict
    report: ResilienceReport
    on_done: object                  # (task, entries) -> None
    on_violation: object             # (task, exc) -> None
    workers: int = 2
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    pair_timeout: float | None = None
    max_pool_rebuilds: int = 2
    sleep: object = time.sleep

    def __post_init__(self):
        self.heartbeat = max(
            env.floating(HEARTBEAT_ENV_VAR, 0.25), 0.01)
        self.grace = LIVENESS_GRACE_INTERVALS * self.heartbeat
        # Until a worker's *first* beat lands, the tight beat grace
        # would race process startup: forking a large parent (or a
        # spawn-context numpy reimport) can take far longer than
        # 2 x heartbeat, and killing a worker that is still booting
        # collapses the whole sweep to the serial tier for no reason.
        self.startup_grace = max(
            env.floating(STARTUP_GRACE_ENV_VAR, 10.0), self.grace)
        self.by_key = {task.key: task for task in self.tasks}
        self.done: set[str] = set()      # completed, violated, or absorbed
        self.shelved: set[str] = set()   # left for the serial tier
        self.attempts: dict[str, int] = {}   # failed/killed dispatches
        self.seq: dict[str, int] = {}        # dispatch counter (scopes)
        self.detection_latencies: list[float] = []
        self.slots: list[_Worker] = []
        self.deques: list[collections.deque] = []
        self.rebuilds = 0                    # slots respawned, pool-wide
        self._ctx = multiprocessing.get_context("fork")
        # The streaming telemetry bus (obs/bus.py).  Content-derived
        # run id, so re-running the same task set is attributable; the
        # bus is the NULL_BUS unless observability is on, making every
        # _emit below one no-op method call in production sweeps.
        self.run_id = hashlib.sha256(
            "\n".join(sorted(self.by_key)).encode()).hexdigest()[:12]
        self.bus = obs_bus.sweep_bus(self.run_id)
        self._stolen: set[str] = set()
        self._queued_at: dict[str, float] = {}
        self._tick_every = max(self.heartbeat, 0.25)
        self._last_tick = 0.0

    # -- telemetry ------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        """Narrate one lifecycle transition onto the event bus."""
        self.bus.emit(kind, **fields)

    def queue_depth(self) -> int:
        """Tasks waiting in the per-worker deques (live consumers: the
        heartbeat line and ``repro top``)."""
        return sum(len(d) for d in self.deques)

    # -- public entry ---------------------------------------------------------

    def run(self) -> None:
        """Execute every task; raises only what the caller's hooks raise
        (plus ``KeyboardInterrupt``).  On normal return every task is
        done, violated, or finished by the serial tier."""
        nslots = max(1, min(self.workers, len(self.tasks)))
        self._emit("sweep-begin", tasks=len(self.tasks),
                   workers=self.workers, slots=nslots)
        try:
            if nslots > 1:
                self._run_supervised(nslots)
            self._run_serial_tier()
            self._emit("sweep-end", done=len(self.done),
                       shelved=len(self.shelved))
        finally:
            self.bus.close()

    # -- supervised (parallel) tier -------------------------------------------

    def _run_supervised(self, nslots: int) -> None:
        # lock=False: beats must stay readable after a worker is
        # SIGKILLed — a lock the victim died holding would wedge the
        # supervisor.  Torn reads of a double are harmless here (any
        # plausible value is "recent enough" for liveness).
        self.beats = self._ctx.Array("d", nslots, lock=False)
        self.slots = [_Worker(slot=i) for i in range(nslots)]
        self.deques = [collections.deque() for _ in range(nslots)]
        for worker in self.slots:
            self._spawn(worker)
        for task in self.tasks:
            self._enqueue(task.key)
        try:
            self._supervise()
        except BaseException:
            self._shutdown(graceful=False)
            raise
        self._shutdown(graceful=True)

    def _spawn(self, worker: _Worker) -> None:
        """(Re)start one worker slot with fresh private pipes."""
        task_r, worker.task_w = self._ctx.Pipe(duplex=False)
        worker.result_r, result_w = self._ctx.Pipe(duplex=False)
        worker.busy = None
        worker.deadline = None
        worker.dead = False
        # 0.0 = "no beat yet": liveness applies the startup grace until
        # the worker's Pulse stamps its first real (nonzero) timestamp.
        self.beats[worker.slot] = 0.0
        worker.spawned = time.monotonic()
        spec, seed = faults.active_spec()
        worker.process = self._ctx.Process(
            target=_sweep_worker_main, name=f"sweep-worker-{worker.slot}",
            args=(worker.slot, task_r, result_w, self.beats,
                  self.heartbeat, self.runner_spec, spec, seed),
            daemon=True)
        worker.process.start()
        # The child holds the other ends now; closing ours makes the
        # child's exit read as EOF on ``result_r``.
        task_r.close()
        result_w.close()

    def _supervise(self) -> None:
        """The supervisor loop: dispatch, wait for results, check
        liveness — until no live work or no live slot remains."""
        tick = self.heartbeat / 2.0
        while True:
            if faults.should_fire("scheduler_stall"):
                # A wedged scheduler must not cost correctness: workers
                # keep beating and computing; on wake the supervisor
                # sees fresh beats (no spurious kills) and drains
                # everything that completed meanwhile.
                self.report.scheduler_stalls += 1
                self._emit("stalled", grace=self.grace)
                self.sleep(self.grace)
            self._tick()
            if all(worker.dead for worker in self.slots):
                break
            for worker in self.slots:
                if worker.idle:
                    self._dispatch(worker)
            self._await_results(tick)
            self._check_liveness()
            if not self._live_work_remains():
                break

    def _tick(self) -> None:
        """Rate-limited scheduler snapshot for live dashboards."""
        now = time.monotonic()
        if now - self._last_tick < self._tick_every:
            return
        self._last_tick = now
        self._emit("tick", done=len(self.done),
                   idle=sum(1 for w in self.slots if w.idle),
                   dead=sum(1 for w in self.slots if w.dead))

    def _enqueue(self, key: str, *, front: bool = False) -> None:
        """Queue one task key on its affinity slot's deque.  A dead
        slot's deque is drained by stealing, or by the serial tier."""
        task = self.by_key[key]
        slot = _stable_slot(task.shard or task.key, len(self.slots))
        if front:
            self.deques[slot].appendleft(key)
        else:
            self.deques[slot].append(key)
        if obs_core.ENABLED:
            self._queued_at[key] = obs_trace.now()
        self._emit("admitted", key=key, slot=slot,
                   shard=task.shard or task.key)

    # -- dispatch and stealing ------------------------------------------------

    def _dispatch(self, worker: _Worker) -> None:
        key = self._next_key(worker)
        if key is None:
            return
        if not self._send(worker, key):
            # A broken task pipe means the worker exited: the task goes
            # back on its deque and the slot is handled as dead.
            self._enqueue(key, front=True)
            self._worker_died(worker, hung=False)
            return
        self._emit("started", key=key, slot=worker.slot,
                   attempt=worker.attempt, stolen=key in self._stolen)
        self._stolen.discard(key)

    def _send(self, worker: _Worker, key: str) -> bool:
        """Ship one attempt of ``key`` to ``worker`` and mark it in
        flight; False if the worker's task pipe is gone."""
        task = self.by_key[key]
        self.seq[key] = attempt = self.seq.get(key, 0) + 1
        try:
            worker.task_w.send((key, task.kind, task.payload, attempt))
        except (OSError, ValueError):
            return False
        worker.busy = key
        worker.started = time.monotonic()
        worker.deadline = (worker.started + self.pair_timeout
                           if self.pair_timeout is not None else None)
        worker.attempt = attempt
        worker.trace_started = obs_trace.now() if obs_core.ENABLED else 0.0
        return True

    def _next_key(self, worker: _Worker) -> str | None:
        """The worker's next task: own deque first, then steal."""
        own = self.deques[worker.slot]
        while own:
            key = own.popleft()
            if key not in self.done and key not in self.shelved:
                return key
        victim = max((d for i, d in enumerate(self.deques)
                      if i != worker.slot), key=len, default=None)
        while victim:
            key = victim.pop()          # steal cold end, keep owner's warm
            if key in self.done or key in self.shelved:
                continue
            self.report.steals += 1
            self._stolen.add(key)
            self._emit("stolen", key=key, slot=worker.slot)
            obs_trace.instant("steal", cat="sched", key=key,
                              slot=worker.slot)
            return key
        return None

    # -- results --------------------------------------------------------------

    def _await_results(self, timeout: float) -> None:
        """Block until a live slot has a result or has exited (at most
        ``timeout``), then drain every slot that woke the wait."""
        waiting = {}
        for worker in self.slots:
            if not worker.dead:
                waiting[worker.result_r] = worker
                waiting[worker.process.sentinel] = worker
        ready = multiprocessing.connection.wait(list(waiting),
                                                timeout=timeout)
        for handle in ready:
            worker = waiting[handle]
            if not worker.dead:
                self._drain(worker)

    def _drain(self, worker: _Worker) -> None:
        """Complete every result waiting on one slot's pipe; a closed
        pipe means the worker exited."""
        while True:
            try:
                if not worker.result_r.poll():
                    return
                payload = worker.result_r.recv()
            except (EOFError, OSError):
                self._worker_died(worker, hung=False)
                return
            self._complete(worker, payload)

    def _complete(self, worker: _Worker, payload: dict) -> None:
        key = payload.get("key")
        duration = time.monotonic() - worker.started
        worker.busy = None
        worker.deadline = None
        if key in self.done:
            # Safety check: with one attempt in flight per task no
            # second result can exist, but if one ever arrives it is
            # dropped whole — entries, counters and obs events — so
            # nothing is double-counted.
            self.report.duplicate_results += 1
            self._emit("duplicate", key=key, slot=worker.slot)
            return
        error = payload.get("error")
        if isinstance(error, (PageFault, ProtectionFault)):
            self.done.add(key)
            self.attempts.pop(key, None)
            self._emit("quarantined", key=key, slot=worker.slot,
                       error=type(error).__name__)
            self.on_violation(self.by_key[key], error)
            return
        if error is not None:
            transient = isinstance(error, TransientError)
            if transient:
                self.report.worker_crashes += 1
            self._emit("failed", key=key, slot=worker.slot,
                       error=type(error).__name__)
            self._requeue(key, transient=transient)
            return
        self.done.add(key)
        if obs_core.ENABLED:
            self._stitch(worker, key, payload.get("attempt"))
        entries = self._fold(payload)
        self._emit("completed", key=key, slot=worker.slot,
                   attempt=payload.get("attempt"),
                   duration=round(duration, 4))
        self.on_done(self.by_key[key], entries)

    def _fold(self, payload: dict) -> list:
        """Fold one payload into the sweep and return its entries: its
        resilience counters into the report, its shipped registry and
        trace events into this process's, so a flushed sweep trace
        covers every process."""
        for name, value in (payload.get("report") or {}).items():
            if isinstance(value, int) and hasattr(self.report, name):
                setattr(self.report, name,
                        getattr(self.report, name) + value)
        shipped = payload.get("obs")
        if shipped:
            obs_core.REGISTRY.merge(shipped.get("registry") or {})
            obs_trace.COLLECTOR.absorb(shipped.get("events") or [])
        return payload["entries"]

    def _stitch(self, worker: _Worker, key: str, attempt) -> None:
        """Emit the scheduler-side half of the stitched cross-worker
        trace: queue-time and dispatch spans on the parent track, plus
        the flow *start* whose matching finish the worker recorded
        inside its ``task`` span — Perfetto draws the arrow between
        them, so one trace shows where sweep wall-clock actually went.
        """
        end = obs_trace.now()
        queued_at = self._queued_at.pop(key, None)
        started = worker.trace_started
        if not started:
            return
        if queued_at is not None and queued_at <= started:
            obs_trace.complete("task-queued", "sched", queued_at, started,
                               key=key, slot=worker.slot)
        obs_trace.complete("task-run", "sched", started, end, key=key,
                           slot=worker.slot, attempt=attempt)
        obs_trace.flow("s", "task-flow", "sched",
                       obs_trace.flow_id(f"{key}#a{attempt}"), ts=started)

    def _requeue(self, key: str, *, transient: bool) -> None:
        """One attempt of ``key`` failed or died: queue it again (with
        backoff if the failure was transient) or, past
        ``retry.max_attempts``, shelve it for the serial tier."""
        attempt = self.attempts.get(key, 0) + 1
        self.attempts[key] = attempt
        if attempt >= self.retry.max_attempts:
            self.shelved.add(key)
            self._emit("shelved", key=key, reason="retries-exhausted")
            return
        if transient:
            self.report.retries += 1
            delay = self.retry.delay(attempt, tag=key)
            if delay > 0:
                self.sleep(delay)
        self._emit("retried", key=key, attempt=attempt)
        self._enqueue(key, front=True)

    # -- liveness and rebuilds ------------------------------------------------

    def _check_liveness(self) -> None:
        """Kill workers whose heartbeat went stale or deadline passed.

        A stale beat means the *process* is wedged (or its telemetry
        died — indistinguishable from outside, and treated the same:
        kill and requeue; the killed worker's result pipe is closed
        unread, so a result it was about to ship is simply lost).
        Detection latency is bounded by the grace period plus one wait
        tick — a couple of heartbeat intervals — independent of the much
        larger pair timeout.
        """
        now = time.monotonic()
        for worker in self.slots:
            if worker.dead:
                continue
            if not worker.process.is_alive():
                self._worker_died(worker, hung=False)
                continue
            if worker.busy is None:
                continue
            beat = self.beats[worker.slot]
            if beat:
                hung = now - beat > self.grace
            else:
                # Still booting (never beat): only the generous startup
                # grace applies — a slow fork is not a hung worker.
                hung = now - worker.spawned > self.startup_grace
            timed_out = worker.deadline is not None and now > worker.deadline
            if hung or timed_out:
                latency = now - worker.started
                self.detection_latencies.append(latency)
                if obs_core.ENABLED:
                    obs_core.histogram("sweep.hang_detection_ms").observe(
                        int(latency * 1000))
                self.report.pair_timeouts += 1
                if hung:
                    self.report.hung_workers += 1
                self._emit("beat-stale", key=worker.busy, slot=worker.slot,
                           hung=hung, latency=round(latency, 3))
                self._worker_died(worker, hung=True)

    def _worker_died(self, worker: _Worker, *, hung: bool) -> None:
        """Contain one worker death: kill it, requeue its task, and
        respawn the slot while the pool's rebuild budget lasts."""
        key = worker.busy
        worker.busy = None
        worker.deadline = None
        worker.dead = True
        process = worker.process
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        self._emit("killed", key=key, slot=worker.slot, hung=hung)
        self._close_channels(worker)
        if key is not None:
            if not hung:
                self.report.worker_crashes += 1
            self._requeue(key, transient=False)
        if self.rebuilds < self.max_pool_rebuilds:
            self.rebuilds += 1
            self.report.pool_rebuilds += 1
            self._emit("pool-rebuilt", slot=worker.slot,
                       rebuilds=self.rebuilds)
            self._spawn(worker)
        else:
            self._emit("pool-exhausted", slot=worker.slot)

    @staticmethod
    def _close_channels(worker: _Worker) -> None:
        """Drop a dead worker's private pipes (possibly torn mid-message
        — which is exactly why they are private)."""
        for conn in (worker.task_w, worker.result_r):
            if conn is not None:
                conn.close()
        worker.task_w = None
        worker.result_r = None

    # -- loop bookkeeping ------------------------------------------------------

    def _live_work_remains(self) -> bool:
        if any(worker.busy is not None for worker in self.slots):
            return True
        return any(key not in self.done and key not in self.shelved
                   for d in self.deques for key in d)

    def _shutdown(self, *, graceful: bool) -> None:
        """Stop every worker; never blocks unboundedly.

        Graceful shutdown sends sentinels and joins briefly; either way
        stragglers are killed — an abandoned sweep's in-flight work is
        worthless, and the journal already holds everything completed.
        """
        for worker in self.slots:
            if graceful and not worker.dead:
                try:
                    worker.task_w.send(None)
                except (OSError, ValueError):
                    pass
        for worker in self.slots:
            process = worker.process
            if process is None:
                continue
            if graceful:
                process.join(timeout=2.0 if not worker.dead else 0.1)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            self._close_channels(worker)
            worker.process = None

    # -- serial tier ----------------------------------------------------------

    def _run_serial_tier(self) -> None:
        """Finish every unfinished task in-process, in submission order.

        The tier of last resort: no pool, no pipes, nothing left to
        break.  It runs the same executor a worker would, under the
        service's retry policy, and folds its result like a worker
        payload.  Each task counts one ``serial_degradation`` —
        the signal that the parallel tiers gave up on it.
        """
        for task in self.tasks:
            if task.key in self.done:
                continue
            self.report.serial_degradations += 1
            self._emit("serial", key=task.key)
            execute = functools.partial(EXECUTORS[task.kind],
                                        self.runner_spec, task.payload)
            try:
                entries, counters = retry_call(
                    execute, policy=self.retry, tag=task.key,
                    sleep=self.sleep,
                    on_retry=functools.partial(self._serial_retry, task.key))
            except (PageFault, ProtectionFault) as exc:
                self.done.add(task.key)
                self._emit("quarantined", key=task.key, slot=None,
                           error=type(exc).__name__)
                self.on_violation(task, exc)
                continue
            self._fold({"entries": entries, "report": counters})
            self.done.add(task.key)
            self._emit("completed", key=task.key, slot=None,
                       attempt=None, duration=None, tier="serial")
            self.on_done(task, entries)

    def _serial_retry(self, key: str, attempt: int, _exc, _delay) -> None:
        self.report.retries += 1
        self._emit("retried", key=key, attempt=attempt, tier="serial")
