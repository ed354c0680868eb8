"""Deterministic fault injection for chaos-testing the pipeline.

DVM itself is built on graceful degradation — identity mapping falls back
to demand paging when contiguous memory runs out (paper Section 4.3) — and
the experiment harness mirrors that philosophy: workers are retried, corrupt
cache entries are quarantined and recomputed, broken pools are rebuilt.
This module *proves* those paths work by firing faults at them on demand.

Faults are configured from the environment (or programmatically)::

    REPRO_FAULTS="worker_crash:0.2,cache_corrupt:0.1,alloc_oom:1.0:2"
    REPRO_FAULTS_SEED=7

Each spec is ``site:probability[:max_fires]``.  Decisions are a pure
function of ``(seed, site, per-site check index)`` — no global RNG state —
so a given seed produces the identical fault pattern on every run, in any
process, regardless of thread or pool scheduling.  :func:`rescope` derives
a child seed from a tag (the runner uses ``"workload/dataset#attempt"``),
which keeps worker-side patterns deterministic per *pair attempt* even
though the pool assigns pairs to processes nondeterministically.

Sites (the complete registry — unknown names are a :class:`ConfigError`):

``worker_crash``
    ``_sweep_worker_main`` raises :class:`WorkerCrashError` (retried).
``worker_exit``
    ``_sweep_worker_main`` hard-exits, killing the worker process
    (exercises dead-worker detection and slot rebuilds).
``worker_hang``
    ``_sweep_worker_main`` sleeps for ``REPRO_HANG_SECONDS`` (default
    30) with its heartbeat suppressed (exercises liveness supervision:
    the supervisor must kill and requeue within ~2 heartbeat intervals,
    not the full pair timeout).
``cache_corrupt``
    artifact writes persist corrupted bytes (exercises checksum
    quarantine + recompute on the next read).
``compile_fail``
    ``repro.sim._native`` pretends the C compile failed (exercises the
    numpy-engine fallback).
``alloc_oom``
    the buddy allocator's contiguous path raises
    :class:`OutOfMemoryError` (exercises the paper's identity-mapping →
    demand-paging fallback).  This is a *perturbing* site: it changes
    what a simulation measures, so the runner discards and re-runs any
    computation during which it fired (see ``perturbation_mark``).
``sweep_abort``
    ``run_pairs`` raises :class:`InjectedFault` after checkpointing a
    pair (exercises kill-mid-sweep resume).
``page_fault``
    the IOMMU delivers a synthetic guest fault for one trace access
    through the recoverable-fault path (``hw/fault_queue.py`` +
    ``kernel/fault.py``); the kernel services it as spurious, so the
    trace completes with fault-service stall added.  A *perturbing*
    site — the stall changes the measured cycles, so the runner
    discards and re-runs (see ``perturbation_mark``).
``perm_fault``
    the IOMMU escalates a synthetic permission violation
    (:class:`~repro.common.errors.AccessViolation`) for one trace
    access (exercises sweep-level quarantine: the faulting pair lands
    in the ResilienceReport instead of poisoning the sweep).  Not
    perturbing: the pair produces no metrics at all.
``scheduler_stall``
    the sweep supervisor loop (``repro.sweep.scheduler``) freezes for
    one liveness grace period before continuing (exercises that worker
    heartbeats and deadlines survive a wedged scheduler without
    spurious kills or lost work).
``checkpoint_torn``
    a journal append writes only a prefix of the record and then dies
    (:class:`InjectedFault`), leaving a torn trailing record
    (exercises resume-time torn-write truncation in
    ``repro.sweep.journal``).
``heartbeat_loss``
    a sweep worker's heartbeat thread goes silent while the worker
    keeps computing (exercises supervisor kill + requeue of a worker
    that is still busy: its result pipe is closed before it is
    drained, so the requeued attempt is the only result — never a
    duplicate).

When no faults are configured every hook is a single global-flag check,
so production paths pay nothing.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from repro.common.errors import ConfigError, InjectedFault

FAULTS_ENV_VAR = "REPRO_FAULTS"
FAULTS_SEED_ENV_VAR = "REPRO_FAULTS_SEED"

#: The complete site registry (documented above).
KNOWN_SITES = (
    "worker_crash",
    "worker_exit",
    "worker_hang",
    "cache_corrupt",
    "compile_fail",
    "alloc_oom",
    "sweep_abort",
    "page_fault",
    "perm_fault",
    "scheduler_stall",
    "checkpoint_torn",
    "heartbeat_loss",
)

#: Sites whose firing changes simulation *results*, not just control flow.
#: Computations during which one fired are discarded and re-run so
#: persisted and returned metrics always come from fault-free executions.
PERTURBING_SITES = frozenset({"alloc_oom", "page_fault"})


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault: where, how often, and an optional cap."""

    site: str
    probability: float
    max_fires: int | None = None


@dataclass
class SiteStats:
    """Per-site decision counters."""

    checks: int = 0
    fires: int = 0


def parse_spec(spec: str) -> dict[str, FaultSpec]:
    """Parse ``site:prob[,site:prob[:max_fires]...]`` into specs."""
    specs: dict[str, FaultSpec] = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        fields = part.split(":")
        if len(fields) not in (2, 3):
            raise ConfigError(
                f"bad fault spec {part!r}: expected site:probability"
                f"[:max_fires]")
        site = fields[0]
        if site not in KNOWN_SITES:
            raise ConfigError(
                f"unknown fault site {site!r}; valid sites: "
                f"{', '.join(KNOWN_SITES)}")
        try:
            probability = float(fields[1])
        except ValueError:
            raise ConfigError(
                f"bad fault probability {fields[1]!r} for {site!r}"
            ) from None
        if not 0.0 <= probability <= 1.0:
            raise ConfigError(
                f"fault probability for {site!r} must be in [0, 1], "
                f"got {probability}")
        max_fires = None
        if len(fields) == 3:
            try:
                max_fires = int(fields[2])
            except ValueError:
                raise ConfigError(
                    f"bad max_fires {fields[2]!r} for {site!r}") from None
        specs[site] = FaultSpec(site, probability, max_fires)
    return specs


@dataclass
class FaultInjector:
    """Seeded, counter-indexed fault decisions plus per-site statistics."""

    specs: dict[str, FaultSpec]
    seed: int = 0
    stats: dict[str, SiteStats] = field(default_factory=dict)
    perturbations: int = 0

    def should_fire(self, site: str) -> bool:
        """Decide (and record) whether ``site``'s fault fires this check.

        The decision hashes ``(seed, site, check index)`` so it is
        reproducible independent of call interleaving across sites.
        """
        spec = self.specs.get(site)
        if spec is None:
            return False
        stat = self.stats.setdefault(site, SiteStats())
        index = stat.checks
        stat.checks += 1
        if spec.max_fires is not None and stat.fires >= spec.max_fires:
            return False
        if spec.probability >= 1.0:
            fired = True
        elif spec.probability <= 0.0:
            fired = False
        else:
            digest = hashlib.sha256(
                f"{self.seed}|{site}|{index}".encode()).digest()
            fired = int.from_bytes(digest[:8], "big") / 2**64 \
                < spec.probability
        if fired:
            stat.fires += 1
            if site in PERTURBING_SITES:
                self.perturbations += 1
        return fired

    def fire_counts(self) -> dict[str, int]:
        """Fires per site (sites that were never checked are omitted)."""
        return {site: s.fires for site, s in self.stats.items() if s.fires}

    def to_dict(self) -> dict:
        """JSON-friendly summary for resilience reports."""
        return {
            site: {"checks": s.checks, "fires": s.fires}
            for site, s in sorted(self.stats.items())
        }


# -- module-level injector (the hooks production code calls) -----------------

_injector: FaultInjector | None = None
_loaded = False       # whether the environment has been consulted
_active = False       # fast path: skip all work when nothing is configured


def _load_from_env() -> None:
    global _injector, _loaded, _active
    spec = os.environ.get(FAULTS_ENV_VAR, "")
    if not spec:
        _injector, _loaded, _active = None, True, False
        return
    seed = os.environ.get(FAULTS_SEED_ENV_VAR, "0") or "0"
    try:
        seed_value = int(seed)
    except ValueError:
        # ConfigError, not a ValueError traceback: the CLI turns it into
        # "error: ..." and exit status 2.  Nothing is marked loaded, so
        # every later hook raises it again instead of running fault-free.
        raise ConfigError(f"{FAULTS_SEED_ENV_VAR} must be an integer, "
                          f"got {seed!r}") from None
    _injector = FaultInjector(parse_spec(spec), seed=seed_value)
    _loaded = _active = True


def configure(spec: str | None, seed: int = 0) -> FaultInjector | None:
    """Install an injector programmatically (``None`` disables faults)."""
    global _injector, _loaded, _active
    _loaded = True
    if not spec:
        _injector, _active = None, False
        return None
    _injector = FaultInjector(parse_spec(spec), seed=seed)
    _active = True
    return _injector


def active_spec() -> tuple[str | None, int]:
    """The active injector as ``(spec, seed)``; ``configure(*active_spec())``
    installs an identical one.  ``(None, 0)`` when none is configured."""
    inj = injector()
    if inj is None or not inj.specs:
        return None, 0
    # repr is the shortest text that parses back to the same float.
    spec = ",".join(
        f"{s.site}:{repr(s.probability).removesuffix('.0')}"
        + (f":{s.max_fires}" if s.max_fires is not None else "")
        for s in inj.specs.values())
    return spec, inj.seed


def reset() -> None:
    """Forget any injector; the environment is re-read on the next hook."""
    global _injector, _loaded, _active
    _injector, _loaded, _active = None, False, False


def injector() -> FaultInjector | None:
    """The active injector, if any (loads from the environment once)."""
    if not _loaded:
        _load_from_env()
    return _injector


def active() -> bool:
    """Whether any fault is configured."""
    if not _loaded:
        _load_from_env()
    return _active


def derive_seed(seed: int, tag: str) -> int:
    """A child seed that is a pure function of ``(seed, tag)``."""
    digest = hashlib.sha256(f"{seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rescope(tag: str) -> None:
    """Re-key the injector for a new deterministic scope.

    Workers call this with a per-pair-attempt tag so their fault pattern
    depends only on ``(base seed, tag)``, never on which pool process
    happened to pick the task up.  Counters restart with the scope.
    """
    inj = injector()
    if inj is None:
        return
    global _injector
    _injector = FaultInjector(inj.specs, seed=derive_seed(inj.seed, tag))


def should_fire(site: str) -> bool:
    """Hook: whether the configured fault at ``site`` fires now."""
    if not _loaded:
        _load_from_env()
    if not _active:
        return False
    return _injector.should_fire(site)


def maybe_raise(site: str, exc_factory=None) -> None:
    """Hook: raise the site's fault if it fires.

    ``exc_factory`` builds the exception; the default is
    :class:`InjectedFault`.
    """
    if should_fire(site):
        if exc_factory is None:
            raise InjectedFault(f"injected fault at {site!r}")
        raise exc_factory()


def perturbation_mark() -> int:
    """Current count of perturbing fires (see :data:`PERTURBING_SITES`)."""
    inj = injector()
    return inj.perturbations if inj is not None else 0


def perturbed_since(mark: int) -> bool:
    """Whether a perturbing fault fired after ``mark`` was taken."""
    inj = injector()
    return inj is not None and inj.perturbations > mark
