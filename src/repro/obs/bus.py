"""The observability stream: a crash-consistent append-only NDJSON file.

``<obs-dir>/bus.ndjson`` is the only file observability appends to.
Two producers write it, both from the parent process:

* the scheduler (:mod:`repro.sweep.scheduler`) narrates every
  task/worker lifecycle transition — admitted, started, stolen,
  retried, completed, quarantined, beat-stale, killed, pool-rebuilt —
  while the sweep runs, so consumers (``python -m repro top``, the
  :class:`~repro.sweep.stream.SweepWatch` partial-results API,
  post-mortem tooling) can observe a sweep *while it runs* instead of
  waiting for the final :class:`~repro.sim.resilience.ResilienceReport`;
* :func:`repro.obs.flush` appends one ``metrics`` record (a drained
  registry snapshot) and one ``trace`` record per drained span, instant
  (diagnostics, heartbeat lines) or flow event.

Workers never write the stream: their observations ship home with each
task result and the parent appends them.  That keeps one writer per
file at a time, which :meth:`EventBus._open`'s torn-tail truncation
relies on.

Records live in a :mod:`repro.common.recordlog` file, the journal's
format (:mod:`repro.sweep.journal`) minus fsync-per-record — the bus is
telemetry, never the source of truth:

* **Self-validating records.**  One sealed record per line carrying a
  monotonic ``seq``, the sweep's ``run_id``, an event ``kind`` and a
  wall timestamp ``t``::

      {"kind":"started","key":"bfs/FR","run_id":"ab12","seq":7,
       "slot":2,"t":1754700000.1,"sha":"..."}

* **Torn-tail tolerance, both sides.**  The next writer after a crash
  *truncates* back to the record log's trusted prefix before appending
  (so the file never accumulates garbage), and readers never yield
  anything past that prefix.

* **Zero overhead when disabled.**  :func:`sweep_bus` returns the
  module-level :data:`NULL_BUS` unless observability is enabled
  (``REPRO_OBS=1``); emitting into the null bus is one no-op method
  call, and the per-access simulation hot path never touches the bus
  at all — transitions happen per *task*, not per memory access.

The writer buffers through normal file I/O and flushes per record (one
``write`` syscall per event); it deliberately does **not** fsync — a
lost tail after a power cut costs telemetry, not results, and the
journal still holds every completed task durably.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.common import recordlog
from repro.obs import core

#: Bus record format version carried by every record.
BUS_SCHEMA = 1

#: The stream's file name inside the observability directory.
BUS_FILENAME = "bus.ndjson"


class EventBus:
    """Append-only writer for one sweep's event stream.

    ``seq`` is monotonic per writer; ``run_id`` ties records to their
    sweep so several runs may share one stream file.  Opening the bus
    truncates a torn tail left by a crashed predecessor.  Emission never
    raises on I/O trouble — telemetry must not take a sweep down — but
    flips the bus into a dead no-op state after the first failure.
    """

    def __init__(self, path: str | os.PathLike, run_id: str = "",
                 *, clock=time.time):
        self.path = Path(path)
        self.run_id = run_id
        self.seq = 0
        self.clock = clock
        self._handle = None
        self._dead = False

    def _open(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            raw = self.path.read_bytes()
            _records, good = recordlog.scan(raw)
            if good < len(raw):
                with open(self.path, "r+b") as handle:
                    handle.truncate(good)
        self._handle = open(self.path, "ab")
        return self._handle

    def emit(self, kind: str, **fields) -> dict | None:
        """Append one event; returns the sealed record (sans sha) or
        ``None`` once the bus is dead."""
        if self._dead:
            return None
        record = dict(fields)
        record.update(v=BUS_SCHEMA, kind=kind, run_id=self.run_id,
                      seq=self.seq, t=round(self.clock(), 3))
        try:
            handle = self._handle or self._open()
            handle.write(recordlog.seal(record))
            handle.flush()
        except (OSError, TypeError, ValueError):
            # ValueError: closed handle; TypeError: a caller passed an
            # unserializable field and json.dumps refused it — drop the
            # event, never the sweep.
            self._dead = True
            self.close()
            return None
        self.seq += 1
        return record

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _NullBus:
    """Emission sink when the bus is disabled: every call is a no-op."""

    __slots__ = ()
    path = None
    run_id = ""

    def emit(self, kind: str, **fields) -> None:
        return None

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullBus":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_BUS = _NullBus()


def bus_path() -> Path:
    """The stream path: ``<obs-dir>/bus.ndjson``."""
    return core.out_dir() / BUS_FILENAME


def sweep_bus(run_id: str = "") -> EventBus | _NullBus:
    """The bus a sweep should emit into: real when observability is on,
    :data:`NULL_BUS` otherwise."""
    if not core.ENABLED:
        return NULL_BUS
    return EventBus(bus_path(), run_id)


# -- read side ----------------------------------------------------------------


def read_events(path: str | os.PathLike, *, run_id: str | None = None
                ) -> list[dict]:
    """Every trusted record currently in the stream — what the next
    writer's open keeps — optionally only ``run_id``'s."""
    return [record for record in recordlog.read(path)
            if run_id is None or record.get("run_id") == run_id]


def trace_events(records: list[dict]) -> list[dict]:
    """The collector events carried by the stream's ``trace`` records."""
    return [record["event"] for record in records
            if record.get("kind") == "trace"]
