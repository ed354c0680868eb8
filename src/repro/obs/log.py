"""Structured diagnostic logging for degradation paths.

Subsystems that degrade gracefully (the compiled-kernel loader in
:mod:`repro.sim._native`, cache quarantine, …) report through
:func:`debug`, which has two independent sinks:

* with observability enabled, each diagnostic is recorded as a ``log``
  instant on the trace collector, so :func:`repro.obs.flush` lands it
  in the bus next to the spans it happened under (a pool worker's
  diagnostics ship home with its task result; one from a worker that
  dies before shipping is lost);
* with ``REPRO_DEBUG`` set, a human-readable line goes to stderr.

Records carry a monotonically increasing per-process sequence number (so
merged logs from several processes stay ordered per producer), the
producing pid, the subsystem tag and free-form structured fields.
"""

from __future__ import annotations

import itertools
import os
import sys
import time

from repro.common import env
from repro.obs import core, trace

#: Print degradation diagnostics to stderr.
DEBUG_ENV_VAR = "REPRO_DEBUG"

_seq = itertools.count(1)


def debug_enabled() -> bool:
    """Whether stderr debug diagnostics are requested (``REPRO_DEBUG``).

    Uses the shared truthiness parse, so ``REPRO_DEBUG=0`` now disables
    diagnostics (it used to count as set).
    """
    return env.truthy(DEBUG_ENV_VAR)


def debug(subsystem: str, message: str, **fields) -> dict | None:
    """Emit one structured diagnostic record.

    With observability enabled the record becomes a ``log`` instant on
    the collector; with ``REPRO_DEBUG`` set it is also printed to
    stderr.  Returns the record when either sink took it, else ``None``.
    """
    to_stderr = debug_enabled()
    if not core.ENABLED and not to_stderr:
        return None
    record = {
        "seq": next(_seq),
        "pid": os.getpid(),
        "unix_time": round(time.time(), 3),
        "subsystem": subsystem,
        "message": message,
    }
    record.update(fields)
    trace.instant("log", cat="obs", **record)
    if to_stderr:
        detail = "".join(f" {key}={value}" for key, value in fields.items())
        print(f"[repro.{subsystem}] {message}{detail}", file=sys.stderr)
    return record
