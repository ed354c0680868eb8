"""Live sweep telemetry: heartbeat lines and worker liveness pulses.

A multi-minute Figure 8 sweep is silent between figures; with
``REPRO_OBS=1`` the runner emits one heartbeat line per completed pair
(rate-limited by ``REPRO_OBS_HEARTBEAT`` seconds)::

    [obs] sweep 7/15 pairs | cache 42h/7m | retries 1 | faults 0 | eta 93s

Lines go to stderr (never stdout: the figure tables are golden output)
and are recorded as ``heartbeat`` instants on the trace collector, so
the next :func:`repro.obs.flush` lands them in the bus and a sweep's
liveness is inspectable after the fact (``python -m repro obs`` shows
the last line).  The final update (done == total) is always emitted
regardless of the rate limit.

:class:`Pulse` is the *machine-facing* half of the same idea: a sweep
worker process beats a monotonic timestamp into a shared slot array from
a daemon thread, and the parent-side supervisor
(:mod:`repro.sweep.scheduler`) declares the worker hung when its slot
goes stale — detecting a wedged worker within a couple of heartbeat
intervals instead of waiting out the full per-pair wall-clock budget.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.common import env
from repro.common.errors import ConfigError
from repro.obs import trace as obs_trace

#: Minimum seconds between heartbeat lines (float; 0 = every update).
HEARTBEAT_ENV_VAR = "REPRO_OBS_HEARTBEAT"


def heartbeat_interval() -> float:
    """The configured minimum interval between heartbeat lines.

    Raises :class:`~repro.common.errors.ConfigError` on a malformed
    value — library code never exits the process; the CLI boundary
    (``repro.__main__``) turns it into a usage message and exit code.
    """
    raw = env.raw(HEARTBEAT_ENV_VAR, "") or ""
    try:
        return max(0.0, float(raw)) if raw else 0.0
    except ValueError:
        raise ConfigError(f"{HEARTBEAT_ENV_VAR} must be a number, "
                          f"got {raw!r}") from None


class Heartbeat:
    """Periodic progress reporter for one sweep."""

    def __init__(self, total: int, label: str = "sweep", *,
                 stream=None, clock=time.monotonic,
                 interval: float | None = None):
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.interval = (heartbeat_interval() if interval is None
                         else interval)
        self.start = clock()
        self._last_emit: float | None = None

    def update(self, done: int, *, cache_hits: int = 0,
               cache_misses: int = 0, retries: int = 0,
               faults: int = 0, queue_depth: int | None = None,
               steals: int | None = None) -> str | None:
        """Emit one heartbeat line; returns it, or None when throttled.

        ``queue_depth`` / ``steals`` come from the sweep
        scheduler's live counters; serial runs (no scheduler) omit them
        and the line keeps its classic shape.
        """
        now = self.clock()
        final = done >= self.total
        if (not final and self._last_emit is not None
                and now - self._last_emit < self.interval):
            return None
        self._last_emit = now
        elapsed = now - self.start
        if 0 < done < self.total and elapsed > 0:
            eta = f"{elapsed / done * (self.total - done):.0f}s"
        else:
            eta = "done" if final else "?"
        sched = ""
        if queue_depth is not None or steals is not None:
            sched = f" | q {queue_depth or 0} | steals {steals or 0}"
        line = (f"[obs] {self.label} {done}/{self.total} pairs"
                f" | cache {cache_hits}h/{cache_misses}m"
                f" | retries {retries} | faults {faults}{sched}"
                f" | elapsed {elapsed:.0f}s | eta {eta}")
        try:
            print(line, file=self.stream, flush=True)
        except (OSError, ValueError):
            # Broken pipe / closed stream mid-sweep: the heartbeat is
            # cosmetic; a dead stderr must not kill the worker.
            pass
        obs_trace.instant("heartbeat", cat="obs", line=line)
        return line


class Pulse:
    """A worker-side liveness beacon beating into a shared slot.

    ``slots`` is any indexable of doubles shared with the supervisor
    (``multiprocessing.Array('d', n)``); the pulse writes
    ``clock()`` into ``slots[index]`` from a daemon thread every
    ``interval / 2`` seconds, so a healthy worker's slot is never more
    than one full interval stale.  On Linux ``time.monotonic`` is
    system-wide (CLOCK_MONOTONIC), so the supervisor can compare the
    slot against its own clock directly.

    :meth:`suppress` silences the beacon without stopping the thread —
    chaos injections use it to model a frozen worker (``worker_hang``)
    or a worker whose telemetry died while its work continues
    (``heartbeat_loss``).  Writing a plain float into a shared slot is
    atomic enough for liveness (a torn read is still a recent
    timestamp), so no lock is taken on the hot path.
    """

    def __init__(self, slots, index: int, interval: float, *,
                 clock=time.monotonic):
        self.slots = slots
        self.index = index
        self.interval = max(interval, 1e-3)
        self.clock = clock
        self._suppressed = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def beat(self) -> None:
        """Record one liveness beat (a no-op while suppressed)."""
        if not self._suppressed:
            self.slots[self.index] = self.clock()

    def suppress(self) -> None:
        """Go silent — the supervisor will see this worker as hung."""
        self._suppressed = True

    def resume(self) -> None:
        """Beat again after :meth:`suppress`."""
        self._suppressed = False
        self.beat()

    def start(self) -> "Pulse":
        """Start the daemon beat thread (idempotent)."""
        if self._thread is None:
            self.beat()
            self._thread = threading.Thread(
                target=self._run, name="sweep-pulse", daemon=True)
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval / 2.0):
            self.beat()

    def stop(self) -> None:
        """Stop the beat thread (the final beat stays in the slot)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval)
            self._thread = None
