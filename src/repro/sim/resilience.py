"""Fault tolerance for the experiment pipeline.

The design mirrors the system under test: DVM's identity mapping eagerly
allocates and degrades to demand paging rather than failing (paper
Section 4.3), and the harness degrades the same way — a failed worker is
retried with backoff, a broken process pool is rebuilt for just the
unfinished pairs, and the last tier is plain in-process serial execution,
which has no pool to break.  The invariant throughout (DESIGN.md):
retries, resume, and degradation may change *how long* a sweep takes,
never *what it computes* — merged metrics stay bit-identical to a
fault-free serial run.

Two pieces live here (the journal that lets an interrupted sweep resume
is :mod:`repro.sweep.journal`):

* :class:`RetryPolicy` / :func:`retry_call` — exponential backoff with
  *deterministic* jitter (a pure function of ``(seed, tag, attempt)``),
  so chaos tests replay exactly;
* :class:`ResilienceReport` — structured counters for everything the
  resilience machinery did, surfaced by the figure entry points.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field

from repro.common import faults
from repro.common.errors import TransientError

__all__ = ["RetryPolicy", "retry_call", "ResilienceReport"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, bounded jitter."""

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5          # +/- fraction of the nominal delay
    seed: int = 0

    def delay(self, attempt: int, tag: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based).

        Jitter is a pure function of ``(seed, tag, attempt)`` — no RNG
        state — so a given sweep produces the identical schedule on
        every run while distinct pairs still decorrelate.
        """
        nominal = min(self.max_delay,
                      self.base_delay * self.backoff_factor ** (attempt - 1))
        if self.jitter <= 0:
            return nominal
        digest = hashlib.sha256(
            f"{self.seed}|{tag}|{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64      # [0, 1)
        return nominal * (1.0 + self.jitter * (2.0 * unit - 1.0))


def retry_call(fn, *, policy: RetryPolicy | None = None, tag: str = "",
               retryable=(TransientError,), sleep=time.sleep,
               on_retry=None):
    """Call ``fn`` with retries for ``retryable`` failures.

    Anything outside ``retryable`` propagates on the first raise; the
    last retryable failure propagates once attempts are exhausted.
    ``on_retry(attempt, exc, delay)`` observes each scheduled retry.
    """
    policy = policy or RetryPolicy()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except retryable as exc:
            if attempt >= policy.max_attempts:
                raise
            delay = policy.delay(attempt, tag)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            if delay > 0:
                sleep(delay)


@dataclass
class ResilienceReport:
    """What the resilience machinery did during a sweep."""

    retries: int = 0                 # pair attempts rescheduled w/ backoff
    worker_crashes: int = 0          # transient worker failures observed
    pair_timeouts: int = 0           # pairs abandoned past their deadline
    hung_workers: int = 0            # workers killed on a stale heartbeat
    pool_rebuilds: int = 0           # dead worker slots respawned
    serial_degradations: int = 0     # pairs finished by the serial tier
    resumed_pairs: int = 0           # pairs replayed from a checkpoint
    quarantined: int = 0             # corrupt artifacts moved aside
    reaped_tmp: int = 0              # dead writers' tmp files removed
    torn_records: int = 0            # torn journal tails truncated on resume
    fenced_records: int = 0          # zombie-generation records dropped
    scheduler_stalls: int = 0        # injected supervisor freezes survived
    perturbed_reruns: int = 0        # computations discarded after a
    #                                  perturbing injected fault (alloc_oom)
    perturbed_accepted: int = 0      # perturbed results kept after rerun
    #                                  attempts ran out (breaks the
    #                                  bit-identical guarantee; reported
    #                                  loudly, never silent)
    guest_violations: int = 0        # pairs quarantined on AccessViolation
    interrupts: int = 0              # KeyboardInterrupt graceful shutdowns
    cache_hits: int = 0              # artifacts restored from the disk cache
    cache_misses: int = 0            # artifacts recomputed (cache configured)
    steals: int = 0                  # tasks taken from another slot's deque
    #: Always 0: the sweep runs one attempt per task and never hedges.
    #: Kept because benchmarks/dvmbench/workloads.py reads it every
    #: sweep-bench round (its ``sweep.hedges`` metric).
    hedges: int = 0
    duplicate_results: int = 0       # second results dropped (safety check)
    #: Structured per-pair violation details (workload, dataset, config,
    #: va, access, kind, trace index, message) for quarantined pairs.
    violations: list = field(default_factory=list)

    #: Purely informational counters: they describe normal cache economics
    #: and scheduler mechanics (stealing is business as usual in a
    #: work-stealing sweep), not repairs, so they must not make a clean
    #: sweep look faulted.
    _INFORMATIONAL = ("cache_hits", "cache_misses", "steals", "hedges",
                      "duplicate_results")

    def events(self) -> int:
        """Total resilience actions taken (0 == nothing went wrong).

        Informational counters (cache hits/misses) are excluded: a fully
        cached sweep is still a clean run.
        """
        return sum(v for k, v in asdict(self).items()
                   if isinstance(v, int) and k not in self._INFORMATIONAL)

    def to_dict(self) -> dict:
        """JSON-friendly form, including injected-fault counters."""
        payload = asdict(self)
        inj = faults.injector()
        if inj is not None and inj.stats:
            payload["injected_faults"] = inj.to_dict()
        return payload

    def render(self) -> str:
        """One-paragraph human summary for the figure entry points."""
        fields = [(k, v) for k, v in asdict(self).items()
                  if v and isinstance(v, int)]
        lines = ["Resilience report:"]
        if not fields and not self.violations:
            lines.append("  clean run (no faults, retries, or repairs)")
        for key, value in fields:
            lines.append(f"  {key.replace('_', ' ')}: {value}")
        for detail in self.violations:
            lines.append(
                f"  quarantined {detail.get('workload')}/"
                f"{detail.get('dataset')} [{detail.get('config')}]: "
                f"{detail.get('message')}")
        inj = faults.injector()
        if inj is not None:
            fired = inj.fire_counts()
            if fired:
                shots = ", ".join(f"{site}x{n}"
                                  for site, n in sorted(fired.items()))
                lines.append(f"  injected faults fired: {shots}")
        return "\n".join(lines)
