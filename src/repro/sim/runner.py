"""Experiment runner: (workload, graph, configuration) -> metrics.

Caches the expensive artifacts so the figures share work exactly the way
the paper's evaluation does:

* one functional accelerator execution per (workload, dataset, profile) —
  every MMU configuration consumes the identical symbolic trace;
* one timing simulation per (workload, dataset, configuration) — Figures 2,
  8 and 9 all read from the same runs (Figure 2's miss rates come from the
  conventional configurations' TLBs);
* one concretization + page-run pre-pass per distinct address-space
  layout — configurations that bind the trace to the same addresses share
  a :class:`~repro.sim.fastpath.PageRunBatch`.

With ``cache_dir`` set the artifacts also persist across invocations:
symbolic traces as memmapped column stores (:mod:`repro.sweep.tracestore`)
and metrics as JSON, both under content keys covering every input that can
change the result (profile, workload knobs, hardware scale, system
parameters and the full configuration fingerprint — never just a name).
Every persisted artifact is integrity-protected (schema version +
SHA-256, sidecars for binaries); corrupt or stale entries are quarantined
as ``.corrupt`` and recomputed, and dead writers' ``.tmp`` droppings are
reaped on startup (:mod:`repro.common.integrity`).

``run_pairs(workers=N)`` fans independent (workload, dataset) pairs
through the supervised sweep service (:mod:`repro.sweep.scheduler`):
per-worker deques with shard-affine work stealing, heartbeat liveness
supervision (a hung worker is killed within a couple of heartbeat
intervals, not the full pair timeout), dead slots respawned from one
pool-wide rebuild budget, and an in-process serial tier of last
resort.  Completed pairs stream into a crash-consistent fsynced journal
(:mod:`repro.sweep.journal`), so an interrupted sweep resumes — even
past a torn trailing record or a zombie writer.  None of this changes
results: the merge iterates the (deduplicated) pair list in order, so
the returned dict is bit-identical to a fault-free serial run.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.accel.algorithms import prop_bytes_for, run_workload
from repro.accel.graphicionado import ExecutionResult
from repro.common import env, faults, integrity
from repro.common.errors import (CacheIntegrityError, ConfigError, PageFault,
                                 ProtectionFault, TransientError)
from repro.core.config import HardwareScale, MMUConfig, standard_configs
from repro.graphs import datasets
from repro.obs import core as obs_core
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace
from repro.sim.metrics import Metrics
from repro.sim.resilience import ResilienceReport, RetryPolicy, retry_call
from repro.sim.system import HeterogeneousSystem, SystemParams
from repro.sweep import tracestore
from repro.sweep.cache import ShardedCache
from repro.sweep.journal import StaleWriterError, SweepJournal
from repro.sweep.scheduler import SweepService
from repro.sweep.tasks import TaskSpec

#: Environment wiring for the figure entry points.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
PAIR_TIMEOUT_ENV_VAR = "REPRO_PAIR_TIMEOUT"

#: Artifact kind tag for metrics envelopes.
METRICS_KIND = "metrics"


def pair_timeout_from_env() -> float | None:
    """The ``REPRO_PAIR_TIMEOUT`` setting (seconds), if any; a value that
    is not a number raises :class:`ConfigError`, which the CLI turns
    into exit status 2."""
    raw = env.raw(PAIR_TIMEOUT_ENV_VAR, "") or ""
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise ConfigError(f"{PAIR_TIMEOUT_ENV_VAR} must be a number, "
                          f"got {raw!r}") from None
    return timeout if timeout > 0 else None


@dataclass
class PreparedWorkload:
    """A built graph plus its accelerator execution (trace + results)."""

    workload: str
    dataset: str
    graph: object
    shape: object
    result: ExecutionResult

    @property
    def trace_length(self) -> int:
        """Accesses in the symbolic trace."""
        return len(self.result.trace)


@dataclass
class ExperimentRunner:
    """Shared driver for all accelerator experiments."""

    profile: str = "full"
    scale: HardwareScale = field(default_factory=HardwareScale)
    params: SystemParams = field(default_factory=SystemParams)
    pagerank_iters: int = 1
    sssp_max_iters: int = 5
    cf_passes: int = 1
    engine: str | None = None            # timing engine ("fast"/"scalar")
    cache_dir: str | None = None         # on-disk artifact cache root
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    pair_timeout: float | None = None    # wall-clock budget per pair
    max_pool_rebuilds: int = 2           # dead sweep slots respawned
    max_perturbed_reruns: int = 16       # injected-perturbation discards
    resilience: ResilienceReport = field(default_factory=ResilienceReport,
                                         init=False)
    _prepared: dict = field(default_factory=dict, init=False)
    _metrics: dict = field(default_factory=dict, init=False)
    _batches: dict = field(default_factory=dict, init=False)
    _batch_pair: tuple | None = field(default=None, init=False)
    _cache: ShardedCache | None = field(default=None, init=False)
    _cache_swept: bool = field(default=False, init=False)
    #: The running SweepService during a parallel tier, for the live
    #: heartbeat's queue-depth/steal columns; None while serial.
    _active_service: object = field(default=None, init=False)

    #: Backoff sleep; class-level so tests can stub it without touching
    #: the picklable constructor spec.
    _sleep = staticmethod(time.sleep)

    @classmethod
    def from_env(cls, **overrides) -> "ExperimentRunner":
        """A runner wired from the environment.

        ``REPRO_CACHE_DIR`` sets the artifact cache directory (unset
        disables persistence) and ``REPRO_PAIR_TIMEOUT`` the per-pair
        wall-clock budget; the timing engine keeps its own
        ``REPRO_TIMING_ENGINE`` override.  The hardware scale follows the
        profile: the full profile simulates :class:`HardwareScale`, every
        smaller one :meth:`HardwareScale.bench`.  Keyword overrides win.
        """
        full = overrides.get("profile", "full") == "full"
        overrides.setdefault("scale", HardwareScale() if full
                             else HardwareScale.bench())
        overrides.setdefault("cache_dir",
                             env.raw(CACHE_DIR_ENV_VAR) or None)
        overrides.setdefault("pair_timeout", pair_timeout_from_env())
        return cls(**overrides)

    def configs(self) -> dict[str, MMUConfig]:
        """The seven standard configurations under this runner's scale."""
        return standard_configs(self.scale)

    # -- artifact cache -------------------------------------------------------

    def _spec(self) -> dict:
        """Picklable constructor kwargs reproducing this runner."""
        return dict(profile=self.profile, scale=self.scale,
                    params=self.params, pagerank_iters=self.pagerank_iters,
                    sssp_max_iters=self.sssp_max_iters,
                    cf_passes=self.cf_passes, engine=self.engine,
                    cache_dir=self.cache_dir, retry=self.retry,
                    pair_timeout=self.pair_timeout,
                    max_pool_rebuilds=self.max_pool_rebuilds,
                    max_perturbed_reruns=self.max_perturbed_reruns)

    def _workload_content(self, workload: str, dataset: str) -> dict:
        """Everything that determines a functional run's trace."""
        return dict(workload=workload, dataset=dataset, profile=self.profile,
                    pagerank_iters=self.pagerank_iters,
                    sssp_max_iters=self.sssp_max_iters,
                    cf_passes=self.cf_passes)

    @staticmethod
    def _content_key(payload: dict) -> str:
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha1(blob.encode()).hexdigest()[:20]

    def _artifact_path(self, kind: str, key: str, suffix: str) -> Path | None:
        if self.cache_dir is None:
            return None
        if self._cache is None:
            self._cache = ShardedCache(self.cache_dir)
        if not self._cache_swept:
            self.resilience.reaped_tmp += self._cache.sweep_tmp()
            self._cache_swept = True
        return self._cache.path(kind, key, suffix)

    def _trace_path(self, workload: str, dataset: str) -> Path | None:
        """The memmapped column-store directory for a pair's trace."""
        key = self._content_key(self._workload_content(workload, dataset))
        return self._artifact_path("trace", key, ".mm")

    def _metrics_path(self, workload: str, dataset: str,
                      config: MMUConfig) -> Path | None:
        payload = self._workload_content(workload, dataset)
        payload.update(scale=asdict(self.scale), params=asdict(self.params),
                       config=config.fingerprint())
        return self._artifact_path("metrics", self._content_key(payload),
                                   ".json")

    def _quarantine(self, path: Path) -> None:
        if integrity.quarantine(path) is not None:
            self.resilience.quarantined += 1

    # -- functional phase -----------------------------------------------------

    def prepare(self, workload: str, dataset: str) -> PreparedWorkload:
        """Build the dataset surrogate and run the accelerator functionally.

        With a cache directory configured, the symbolic trace round-trips
        through disk: a prior invocation's functional run is reused and
        only the (cheap, deterministic) graph surrogate is rebuilt.  A
        trace that fails checksum/schema validation is quarantined and
        regenerated.  The result is memoized until the runner simulates
        another pair (:meth:`_simulate` keeps one pair's).
        """
        key = (workload, dataset)
        prepared = self._prepared.get(key)
        if prepared is not None:
            return prepared
        graph, shape = datasets.load(dataset, self.profile)
        trace_path = self._trace_path(workload, dataset)
        result = None
        if trace_path is not None and tracestore.is_published(trace_path):
            try:
                trace = tracestore.open_trace(trace_path)
                result = ExecutionResult(
                    trace=trace, prop=np.empty(0), iterations=0,
                    converged=True, aux={"restored_from": str(trace_path)})
            except CacheIntegrityError:
                self._quarantine(trace_path)
        if result is not None:
            self.resilience.cache_hits += 1
            if obs_core.ENABLED:
                obs_core.counter("cache.trace.hits").inc()
        else:
            if trace_path is not None:
                self.resilience.cache_misses += 1
                if obs_core.ENABLED:
                    obs_core.counter("cache.trace.misses").inc()
            with obs_trace.span("trace-gen", cat="phase",
                                workload=workload, dataset=dataset):
                result = run_workload(
                    workload, graph, shape=shape,
                    pagerank_iters=self.pagerank_iters,
                    sssp_max_iters=self.sssp_max_iters,
                    cf_passes=self.cf_passes,
                )
            if trace_path is not None:
                tracestore.publish(trace_path, result.trace)
        prepared = PreparedWorkload(workload=workload, dataset=dataset,
                                    graph=graph, shape=shape, result=result)
        self._prepared[key] = prepared
        return prepared

    # -- timing phase -------------------------------------------------------------

    def run(self, workload: str, dataset: str, config: MMUConfig) -> Metrics:
        """Timing-simulate one (workload, dataset) pair under one config."""
        key = (workload, dataset, config.fingerprint())
        metrics = self._metrics.get(key)
        if metrics is not None:
            return metrics
        metrics_path = self._metrics_path(workload, dataset, config)
        if metrics_path is not None and metrics_path.exists():
            try:
                payload = integrity.read_json_verified(metrics_path,
                                                       METRICS_KIND)
                metrics = Metrics.from_dict(payload)
                self._metrics[key] = metrics
                self.resilience.cache_hits += 1
                if obs_core.ENABLED:
                    obs_core.counter("cache.metrics.hits").inc()
                return metrics
            except CacheIntegrityError:
                self._quarantine(metrics_path)
        if metrics_path is not None:
            self.resilience.cache_misses += 1
            if obs_core.ENABLED:
                obs_core.counter("cache.metrics.misses").inc()
        metrics = self._compute_metrics(workload, dataset, config)
        self._metrics[key] = metrics
        if metrics_path is not None:
            integrity.write_json_atomic(metrics_path, metrics.to_dict(),
                                        METRICS_KIND)
        return metrics

    def run_pair_configs(self, workload: str, dataset: str,
                         configs: dict[str, MMUConfig]
                         ) -> dict[str, Metrics] | None:
        """Run one pair under several configurations, or quarantine it.

        The serial figure entry points use this instead of bare
        :meth:`run` loops so a guest access violation quarantines the
        pair into the resilience report (exactly as ``run_pairs`` does)
        rather than aborting the whole figure.  Returns ``None`` for a
        quarantined pair.
        """
        try:
            with obs_trace.span("pair", cat="pair", workload=workload,
                                dataset=dataset):
                return {name: self.run(workload, dataset, config)
                        for name, config in configs.items()}
        except (PageFault, ProtectionFault) as exc:
            self._quarantine_pair((workload, dataset), exc)
            return None

    def _compute_metrics(self, workload: str, dataset: str,
                         config: MMUConfig) -> Metrics:
        """One timing simulation, shielded from injected perturbation.

        Injected allocator OOM (the ``alloc_oom`` fault) legitimately
        changes what a run measures — identity mapping falls back to
        demand paging, exactly as the paper describes.  To keep chaos
        runs bit-identical to fault-free ones, any computation during
        which a perturbing fault fired (or escaped as a transient error)
        is discarded and re-run; only perturbation-free results are
        memoized, persisted, or returned.
        """
        perturbed = 0
        while True:
            mark = faults.perturbation_mark()
            try:
                metrics = self._simulate(workload, dataset, config)
            except TransientError:
                # Not caused by a perturbing fault (or past the rerun
                # budget): a genuine transient, for the caller's retry
                # tier, not this barrier.
                if not faults.perturbed_since(mark) \
                        or perturbed >= self.max_perturbed_reruns:
                    raise
                metrics = None
            if metrics is not None and not faults.perturbed_since(mark):
                return metrics
            perturbed += 1
            self.resilience.perturbed_reruns += 1
            # A perturbed run bound the trace to a different (demand
            # paged) layout; its shared batches are unusable.
            self._batches.clear()
            self._batch_pair = None
            if metrics is not None and perturbed >= self.max_perturbed_reruns:
                # Only an uncapped high-rate injection can get here;
                # surface it rather than loop forever.
                self.resilience.perturbed_accepted += 1
                return metrics

    def _simulate(self, workload: str, dataset: str,
                  config: MMUConfig) -> Metrics:
        pair = (workload, dataset)
        if self._batch_pair != pair:
            # Shared page-run batches and prepared workloads are reused
            # within one pair: drop every other pair's before preparing
            # this one, so a sweep holds one pair's graph and trace.
            self._batches.clear()
            self._prepared = {key: prepared for key, prepared
                              in self._prepared.items() if key == pair}
            self._batch_pair = pair
        prepared = self.prepare(workload, dataset)
        system = HeterogeneousSystem(config, self.params)
        system.load_graph(prepared.graph,
                          prop_bytes=prop_bytes_for(workload))
        return system.run(prepared.result.trace, workload=workload,
                          graph=dataset, engine=self.engine,
                          batch_cache=self._batches)

    # -- sweep execution ------------------------------------------------------

    def run_pairs(self, pairs=None, config_names=None, workers: int = 1,
                  *, checkpoint: str | Path | None = None,
                  resume: bool = True
                  ) -> dict[tuple[str, str, str], Metrics]:
        """Run a set of (workload, dataset) pairs across configurations.

        Defaults to the paper's 15 pairs and all 7 configurations;
        duplicate pairs are collapsed (first occurrence wins) and unknown
        configuration names raise :class:`ConfigError` up front.

        ``workers > 1`` fans whole pairs across a process pool (a pair is
        the natural unit: its configurations share the functional trace)
        with per-pair retry, pool rebuild, and serial degradation as
        described in :mod:`repro.sim.resilience`.  With a cache directory
        (or an explicit ``checkpoint`` path) each completed pair is
        journaled, so an interrupted sweep resumes from the checkpoint;
        ``resume=False`` disables the journal.  However executed, the
        merge iterates the pair list in order, so the returned dict is
        bit-identical to a fault-free serial run.

        A pair whose guest faults unrecoverably (a structured
        :class:`~repro.common.errors.AccessViolation`, or a legacy
        ``PageFault``/``ProtectionFault`` raise) is quarantined: its
        violation is recorded in :attr:`resilience` and the pair is
        excluded from the merged result — no bare exception escapes.  A
        ``KeyboardInterrupt`` shuts worker pools down cleanly (workers
        terminated, journal already flushed) so the sweep resumes.
        """
        raw = pairs if pairs is not None else datasets.WORKLOAD_PAIRS
        pairs = list(dict.fromkeys(tuple(p) for p in raw))
        configs = self.configs()
        if config_names is not None:
            unknown = [n for n in config_names if n not in configs]
            if unknown:
                raise ConfigError(
                    f"unknown configuration name(s): "
                    f"{', '.join(map(repr, unknown))}; valid names: "
                    f"{', '.join(configs)}")
            configs = {name: configs[name] for name in config_names}
        names = list(configs)

        ckpt = self._sweep_checkpoint(checkpoint, pairs, names) \
            if resume else None
        completed: dict[tuple, list] = {}
        if ckpt is not None:
            journal = ckpt.load()
            if ckpt.torn_records:
                self.resilience.torn_records += ckpt.torn_records
                print(f"warning: sweep checkpoint {ckpt.path} had a torn "
                      f"trailing record; truncated and resuming from the "
                      f"last durable entry", file=sys.stderr)
            if ckpt.fenced_records:
                self.resilience.fenced_records += ckpt.fenced_records
            for pair in pairs:
                entries = journal.get(SweepJournal.pair_key(*pair))
                if entries is not None:
                    completed[pair] = [(name, payload)
                                       for name, payload in entries]
            self.resilience.resumed_pairs += len(completed)

        run_id = self._content_key(dict(profile=self.profile, pairs=pairs,
                                        configs=names))[:12]
        heartbeat = obs_progress.Heartbeat(len(pairs)) \
            if obs_core.ENABLED else None

        def finish_pair(pair, entries):
            nonlocal ckpt
            completed[pair] = entries
            if ckpt is not None:
                try:
                    ckpt.append(SweepJournal.pair_key(*pair), entries)
                except StaleWriterError:
                    # A newer sweep incarnation resumed this journal and
                    # fenced this writer off, or the journal at this path
                    # is another sweep's.  The in-memory results stay
                    # valid, so finish the sweep from memory and stop
                    # checkpointing — the journal (and its cleanup in
                    # complete()) belongs to its owner.
                    self.resilience.fenced_records += 1
                    ckpt = None
            if heartbeat is not None:
                service = self._active_service
                heartbeat.update(
                    len(completed),
                    cache_hits=self.resilience.cache_hits,
                    cache_misses=self.resilience.cache_misses,
                    retries=self.resilience.retries,
                    faults=sum(m.get("faults", 0)
                               for done in completed.values()
                               for _name, m in done),
                    queue_depth=(service.queue_depth()
                                 if service is not None else None),
                    steals=(self.resilience.steals
                            if service is not None else None))
            faults.maybe_raise("sweep_abort")

        pending = [pair for pair in pairs if pair not in completed]
        try:
            with obs_trace.span("sweep", cat="sweep", run_id=run_id,
                                pairs=len(pairs), pending=len(pending),
                                workers=workers):
                if workers > 1 and len(pending) > 1:
                    self._run_pairs_parallel(pending, names, workers,
                                             finish_pair)
                else:
                    for pair in pending:
                        try:
                            finish_pair(
                                pair,
                                self._run_pair_resilient(pair, configs))
                        except (PageFault, ProtectionFault) as exc:
                            self._quarantine_pair(pair, exc)
        except KeyboardInterrupt:
            # Graceful shutdown: every completed pair is already journaled
            # (finish_pair records atomically), so re-running this sweep
            # resumes from the checkpoint instead of starting over.
            self.resilience.interrupts += 1
            raise

        out: dict[tuple[str, str, str], Metrics] = {}
        for workload, dataset in pairs:
            entries = completed.get((workload, dataset))
            if entries is None:
                # Quarantined pair (guest access violation): reported in
                # the ResilienceReport, excluded from the merged result.
                continue
            for name, payload in entries:
                metrics = Metrics.from_dict(payload)
                out[(workload, dataset, name)] = metrics
                self._metrics[(workload, dataset,
                               configs[name].fingerprint())] = metrics
        if ckpt is not None:
            ckpt.complete()
        return out

    def pair_repro_command(self, workload: str, dataset: str,
                           config_name: str | None = None) -> str:
        """A copy-pasteable command reproducing one pair's run.

        Reconstructs the environment that shaped the run — the fault
        injector's spec and seed (chaos sweeps) and any timing-engine
        override — so the command reproduces the quarantined behavior
        from a fresh shell, not just the pair id.
        """
        parts = ["PYTHONPATH=src"]
        spec, seed = faults.active_spec()
        if spec is not None:
            parts.append(f"{faults.FAULTS_ENV_VAR}={spec}")
            parts.append(f"{faults.FAULTS_SEED_ENV_VAR}={seed}")
        if self.engine:
            parts.append(f"REPRO_TIMING_ENGINE={self.engine}")
        parts.append(f"python -m repro pair {workload}/{dataset}")
        if config_name:
            parts.append(f"--config {config_name}")
        if self.profile != "full":
            parts.append(f"--profile {self.profile}")
        return " ".join(parts)

    def _quarantine_pair(self, pair: tuple, exc) -> None:
        """Contain a pair whose guest faulted unrecoverably.

        An :class:`~repro.common.errors.AccessViolation` (or legacy
        ``PageFault``/``ProtectionFault``) is deterministic — retrying
        cannot help — so the pair is excluded from the merged result and
        reported with full structured context (including a copy-pasteable
        repro command) instead of poisoning the sweep.
        """
        workload, dataset = pair
        record = getattr(exc, "record", None)
        self.resilience.guest_violations += 1
        self.resilience.violations.append(dict(
            workload=workload, dataset=dataset,
            config=getattr(record, "config", None),
            va=getattr(exc, "va", None),
            access=getattr(exc, "access", None),
            kind=getattr(record, "kind", None),
            index=getattr(record, "index", None),
            message=str(exc),
            repro=self.pair_repro_command(workload, dataset,
                                          getattr(record, "config", None))))

    def _run_pair_serial(self, pair: tuple, configs: dict) -> list:
        """One pair's configurations, in-process; returns journal entries."""
        workload, dataset = pair
        entries = []
        with obs_trace.span("pair", cat="pair", workload=workload,
                            dataset=dataset):
            for name, config in configs.items():
                with obs_trace.span("attempt", cat="attempt", config=name,
                                    workload=workload, dataset=dataset):
                    entries.append(
                        (name, self.run(workload, dataset, config).to_dict()))
        return entries

    def _run_pair_resilient(self, pair: tuple, configs: dict) -> list:
        """In-process pair execution, retrying transient escapes.

        Completed configurations are memoized, so a retry recomputes
        only the configuration whose run actually failed.
        """

        def on_retry(_attempt, _exc, _delay):
            self.resilience.retries += 1

        return retry_call(lambda: self._run_pair_serial(pair, configs),
                          policy=self.retry,
                          tag=SweepJournal.pair_key(*pair),
                          sleep=self._sleep, on_retry=on_retry)

    def _sweep_checkpoint(self, checkpoint, pairs, names
                          ) -> SweepJournal | None:
        """The journal for this exact sweep, if anywhere to keep it.

        The sweep key covers everything that determines the merged
        result — runner knobs, scale, params, the pair list and each
        configuration's fingerprint — but *not* the timing engine, which
        is guaranteed bit-identical, so a sweep may resume under either
        engine.
        """
        payload = dict(profile=self.profile, scale=asdict(self.scale),
                       params=asdict(self.params),
                       pagerank_iters=self.pagerank_iters,
                       sssp_max_iters=self.sssp_max_iters,
                       cf_passes=self.cf_passes, pairs=pairs,
                       configs={name: self.configs()[name].fingerprint()
                                for name in names})
        key = self._content_key(payload)
        if checkpoint is not None:
            path = Path(checkpoint)
        else:
            path = self._artifact_path("sweep", key, ".ckpt.jsonl")
            if path is None:
                return None
        return SweepJournal(path, sweep_key=key)

    # -- parallel tier (the supervised sweep service) -------------------------

    def _run_pairs_parallel(self, pending, names, workers,
                            finish_pair) -> None:
        """Fan pending pairs through the supervised sweep service.

        The service (:class:`~repro.sweep.scheduler.SweepService`) owns
        scheduling — per-worker deques, shard-affine stealing, heartbeat
        liveness kills, slot rebuilds from one pool budget, the serial
        tier and folding every payload into :attr:`resilience` — and
        this runner supplies the policy surface: journaling completions
        (``finish_pair``) and quarantine.  Pairs are sharded by dataset
        so the workers that share a dataset's memmapped trace keep it
        page-cache warm.
        """
        key_to_pair = {SweepJournal.pair_key(*pair): pair
                       for pair in pending}
        tasks = [TaskSpec(key=SweepJournal.pair_key(*pair), kind="pair",
                          payload=dict(workload=pair[0], dataset=pair[1],
                                       config_names=list(names)),
                          shard=pair[1])
                 for pair in pending]
        service = SweepService(
            tasks=tasks,
            runner_spec=self._spec(),
            report=self.resilience,
            on_done=lambda task, entries: finish_pair(
                key_to_pair[task.key], entries),
            on_violation=lambda task, exc: self._quarantine_pair(
                key_to_pair[task.key], exc),
            workers=workers,
            retry=self.retry,
            pair_timeout=self.pair_timeout,
            max_pool_rebuilds=self.max_pool_rebuilds,
            sleep=self._sleep,
        )
        self._active_service = service
        try:
            service.run()
        finally:
            self._active_service = None


    # -- generated scenarios (repro/gen) --------------------------------------

    def check_scenario_pair(self, seed: int, config_names=None):
        """Adapter: one generated scenario as a quarantinable pair.

        Runs ``repro/gen``'s differential oracle for ``seed`` and folds
        the verdict into this runner's resilience machinery: a
        mismatching scenario is quarantined exactly like a violating
        (workload, dataset) pair — counted in ``guest_violations``,
        detailed in ``violations`` with its one-line repro command — so
        sweep tooling reports fuzz findings through the same channel as
        production pairs.  Returns the
        :class:`~repro.gen.oracle.ScenarioResult`.
        """
        from repro.gen.oracle import (check_scenario, repro_command,
                                      scenario_from_seed)
        scenario = scenario_from_seed(seed)
        names = tuple(config_names) if config_names else None
        result = check_scenario(scenario, configs=names)
        if not result.ok:
            self.resilience.guest_violations += 1
            self.resilience.violations.append(dict(
                workload="fuzz", dataset=f"seed{seed}",
                config=",".join(result.configs), va=None, access=None,
                kind="oracle_mismatch", index=None,
                message="; ".join(result.mismatches),
                repro=repro_command(seed)))
        return result


def pair_main(argv: list[str]) -> int:
    """``python -m repro pair <workload>/<dataset>`` — run one pair.

    The target of the quarantine repro command
    (:meth:`ExperimentRunner.pair_repro_command`): re-runs a single
    (workload, dataset) pair in-process, honoring ``REPRO_FAULTS`` /
    ``REPRO_TIMING_ENGINE`` from the environment, and prints each
    configuration's metrics or the structured violation that quarantined
    the pair.  Exits 1 if the pair is quarantined.
    """
    target = None
    config_names: list[str] = []
    profile = "full"
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--config":
            i += 1
            config_names.extend(argv[i].split(","))
        elif a == "--profile":
            i += 1
            profile = argv[i]
        elif a == "--bench":
            profile = "bench"
        elif a.startswith("--"):
            raise SystemExit(f"unknown pair option {a!r}")
        else:
            target = a
        i += 1
    if target is None or "/" not in target:
        raise SystemExit("usage: python -m repro pair <workload>/<dataset> "
                         "[--config NAME[,NAME...]] [--profile P|--bench]")
    workload, dataset = target.split("/", 1)
    runner = ExperimentRunner.from_env(profile=profile)
    configs = runner.configs()
    if config_names:
        unknown = [n for n in config_names if n not in configs]
        if unknown:
            raise SystemExit(f"unknown config(s) {unknown}; "
                             f"have {list(configs)}")
        configs = {n: configs[n] for n in config_names}
    metrics = runner.run_pair_configs(workload, dataset, configs)
    if metrics is None:
        print(f"{workload}/{dataset}: QUARANTINED")
        for v in runner.resilience.violations:
            print(f"  {v['kind']} va={v['va']} access={v['access']} "
                  f"config={v['config']}")
            print(f"  repro: {v['repro']}")
        return 1
    for name, m in metrics.items():
        print(f"{workload}/{dataset} {name}: cycles={m.cycles:.0f} "
              f"normalized={m.normalized_time:.3f} faults={m.faults}")
    return 0
