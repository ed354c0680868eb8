"""Structured run/sweep tracing: hierarchical spans, Chrome-trace export.

The runner opens spans around the sweep (``sweep``), each (workload,
dataset) pair (``pair``), each execution attempt (``attempt``) and the
phases inside one — functional trace generation (``trace-gen``) and the
per-configuration timing simulation (``timing``); the recoverable-fault
machinery emits instant events per serviced fault (``fault-service``).
Spans carry the sweep's run-id so a merged multi-process trace stays
attributable.

Collection is per-process: every pool worker owns its process-global
:data:`COLLECTOR`, resets it at worker entry, and ships its drained
events back with the pair result; the parent absorbs them
(:meth:`TraceCollector.absorb`) so the flushed trace covers the whole
sweep.  Timestamps are per-process ``perf_counter`` microseconds since
the collector's epoch — comparable *within* a process, approximate
across processes — and event identity (name, category, args, nesting
depth) is deterministic for a deterministic sweep, which is what the
export-determinism tests pin (timestamps excluded).

:func:`repro.obs.flush` appends each drained event to the bus as one
``trace`` record (line-delimited JSON for ``jq``-style analysis) and
rewrites ``trace.json`` from every such record: Chrome trace / Perfetto
``traceEvents`` JSON (complete ``"X"`` events plus process-name
metadata), loadable in ``ui.perfetto.dev`` or ``chrome://tracing``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from repro.obs import core

#: Chrome trace event keys required for a Perfetto-loadable stream.
REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")

#: Flow-event phases (``s`` start, ``t`` step, ``f`` finish) linking
#: spans across processes; matched by (cat, name, id) in Perfetto.
FLOW_PHASES = ("s", "t", "f")


def flow_id(token: str) -> int:
    """A deterministic flow-event id derived from a content token.

    The scheduler and the worker compute the same id from the same
    dispatch token (``key#a<attempt>``) without any coordination, so the
    parent-side flow start and the worker-side flow finish pair up in
    the merged trace.  Never builtin ``hash()``, which is salted per
    process.
    """
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _Span:
    """One in-flight span; appends a complete event when it exits."""

    __slots__ = ("collector", "name", "cat", "args", "start")

    def __init__(self, collector: "TraceCollector", name: str, cat: str,
                 args: dict):
        self.collector = collector
        self.name = name
        self.cat = cat
        self.args = args
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.collector._stack.append(self)
        self.start = self.collector._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        collector = self.collector
        end = collector._clock()
        collector._stack.pop()
        args = dict(self.args)
        args["depth"] = len(collector._stack)
        if exc_type is not None:
            args["error"] = exc_type.__name__
        collector.events.append({
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": round((self.start - collector.epoch) * 1e6, 1),
            "dur": round((end - self.start) * 1e6, 1),
            "pid": collector.pid,
            "tid": 1,
            "args": args,
        })


class TraceCollector:
    """Per-process span collector; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.reset()

    def reset(self) -> None:
        """Fresh state (worker entry; after a fork)."""
        self.pid = os.getpid()
        self.epoch = self._clock()
        self.events: list[dict] = []
        self._stack: list[_Span] = []

    def span(self, name: str, cat: str = "run", **args) -> _Span:
        """A context manager recording one hierarchical span."""
        return _Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "run", **args) -> None:
        """Record one instant event (e.g. a serviced fault)."""
        args = dict(args)
        args["depth"] = len(self._stack)
        self.events.append({
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": round((self._clock() - self.epoch) * 1e6, 1),
            "pid": self.pid,
            "tid": 1,
            "args": args,
        })

    def complete(self, name: str, cat: str, start: float, end: float,
                 **args) -> None:
        """Record one complete span from explicitly captured timestamps.

        For spans whose endpoints are not lexically nested — the
        scheduler's queue-wait and task-run spans start at one loop
        iteration and end many iterations later — ``start``/``end`` are
        :func:`now` values captured at the transition points.
        """
        args = dict(args)
        args["depth"] = len(self._stack)
        self.events.append({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": round((start - self.epoch) * 1e6, 1),
            "dur": round(max(end - start, 0.0) * 1e6, 1),
            "pid": self.pid,
            "tid": 1,
            "args": args,
        })

    def flow(self, phase: str, name: str, cat: str, fid: int,
             ts: float | None = None) -> None:
        """Record one flow event (``s``/``t``/``f``) with id ``fid``.

        Perfetto draws an arrow between the slices enclosing a flow
        start and its finish when (cat, name, id) match — this is how
        the scheduler's dispatch span links to the worker's task span
        in the stitched cross-process trace.
        """
        event = {
            "name": name,
            "cat": cat,
            "ph": phase,
            "id": fid,
            "ts": round(((self._clock() if ts is None else ts)
                         - self.epoch) * 1e6, 1),
            "pid": self.pid,
            "tid": 1,
        }
        if phase == "f":
            event["bp"] = "e"       # bind to the enclosing slice
        self.events.append(event)

    def drain(self) -> list[dict]:
        """Take (and clear) the collected events."""
        events, self.events = self.events, []
        return events

    def absorb(self, events: list[dict]) -> None:
        """Fold another process's drained events into this collector."""
        self.events.extend(events)


#: The process-wide collector every span reports into.
COLLECTOR = TraceCollector()

_NULL_SPAN = nullcontext()


def span(name: str, cat: str = "run", **args):
    """A span on the global collector, or a no-op when disabled."""
    if not core.ENABLED:
        return _NULL_SPAN
    return COLLECTOR.span(name, cat, **args)


def instant(name: str, cat: str = "run", **args) -> None:
    """An instant event on the global collector (no-op when disabled)."""
    if core.ENABLED:
        COLLECTOR.instant(name, cat, **args)


def now() -> float:
    """The collector's clock, for :func:`complete` endpoints
    (``0.0`` when disabled, so disabled callers store a constant)."""
    if not core.ENABLED:
        return 0.0
    return COLLECTOR._clock()


def complete(name: str, cat: str, start: float, end: float, **args) -> None:
    """A complete span on the global collector (no-op when disabled)."""
    if core.ENABLED:
        COLLECTOR.complete(name, cat, start, end, **args)


def flow(phase: str, name: str, cat: str, fid: int,
         ts: float | None = None) -> None:
    """A flow event on the global collector (no-op when disabled)."""
    if core.ENABLED:
        COLLECTOR.flow(phase, name, cat, fid, ts)


# -- export -----------------------------------------------------------------


def chrome_trace(events: list[dict], *, run_id: str = "") -> dict:
    """Wrap drained events as a Chrome-trace / Perfetto JSON object."""
    pids = sorted({e["pid"] for e in events})
    main_pid = os.getpid()
    metadata = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 1, "ts": 0,
         "args": {"name": "main" if pid == main_pid else f"worker-{pid}"}}
        for pid in pids
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "run_id": run_id,
                      "thread": threading.current_thread().name},
    }


def write_chrome(path: Path, events: list[dict], *, run_id: str = "") -> None:
    """Write a Perfetto-loadable trace JSON file."""
    payload = chrome_trace(events, run_id=run_id)
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def validate_chrome(payload: dict) -> list[str]:
    """Schema-check a Chrome-trace object; returns a list of problems.

    Covers the constraints the Chrome trace-event format documents for
    the JSON ``traceEvents`` form: the container key, per-event required
    keys, known phase codes, and ``dur`` presence on complete events.
    An empty list means the payload is Perfetto-loadable.
    """
    problems = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                problems.append(f"event {i}: missing key {key!r}")
        ph = event.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "M", "C") \
                and ph not in FLOW_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
        if ph == "X" and "dur" not in event:
            problems.append(f"event {i}: complete event without 'dur'")
        if ph in FLOW_PHASES and "id" not in event:
            problems.append(f"event {i}: flow event without 'id'")
        if not isinstance(event.get("ts", 0), (int, float)):
            problems.append(f"event {i}: non-numeric 'ts'")
    return problems


def comparable(events: list[dict]) -> list[dict]:
    """Events stripped of timing/process identity, for determinism tests.

    Two runs of the same seeded sweep must produce identical streams
    under this projection (same spans, same order, same args, same
    nesting) even though wall-clock timestamps differ.
    """
    stripped = []
    for event in events:
        clean = {k: v for k, v in event.items()
                 if k not in ("ts", "dur", "pid")}
        stripped.append(clean)
    return stripped
