"""Observability for the DVM simulator: metrics, tracing, telemetry.

Layers (bottom up):

* :mod:`repro.obs.core` — lock-free counters / power-of-two histograms /
  the process-wide :data:`~repro.obs.core.REGISTRY`, zero-overhead when
  disabled (``REPRO_OBS`` unset);
* :mod:`repro.obs.trace` — hierarchical spans (sweep → pair → attempt →
  phase), instants and flows, exported as Chrome-trace/Perfetto JSON;
* :mod:`repro.obs.record` — derived per-run instrumentation (walk
  depth, AVC hit rate, fault latency) computed *after* each trace run so
  the timing loops stay untouched;
* :mod:`repro.obs.progress` — live heartbeat lines during sweeps, each
  also recorded as a ``heartbeat`` instant;
* :mod:`repro.obs.log` — structured degradation diagnostics, recorded
  as ``log`` instants (and printed under ``REPRO_DEBUG``);
* :mod:`repro.obs.bus` — ``bus.ndjson``, the one on-disk stream: the
  scheduler's lifecycle records plus every flushed registry snapshot
  and trace event;
* :mod:`repro.obs.report` / :mod:`repro.obs.top` — ``python -m repro
  obs <dir>`` and ``python -m repro top``, folds over that stream.

See ``docs/observability.md`` for the user-facing story.
"""

from __future__ import annotations

from repro.obs import bus, core, log, progress, record, top, trace  # noqa: F401
from repro.obs.core import (REGISTRY, configure, counter, enabled,  # noqa: F401
                            histogram, out_dir, refresh_from_env)
from repro.obs.log import debug  # noqa: F401
from repro.obs.trace import COLLECTOR, instant, span  # noqa: F401

#: The Perfetto export rewritten by every :func:`flush`.
TRACE_FILENAME = "trace.json"


def reset() -> None:
    """Clear all collected observations (worker entry, test isolation)."""
    core.REGISTRY.reset()
    trace.COLLECTOR.reset()


def snapshot() -> dict:
    """Non-destructive view of the registry plus pending trace events."""
    return {"registry": core.REGISTRY.to_dict(),
            "events": list(trace.COLLECTOR.events)}


def flush(tag: str = "run", run_id: str = "") -> dict | None:
    """Drain all collected observations into the bus and re-export.

    Appends one ``metrics`` record (``tag`` plus the registry snapshot)
    and one ``trace`` record per collector event to
    ``<obs-dir>/bus.ndjson``, then rewrites the two exports from the
    whole stream: ``trace.json`` (Perfetto, every ``trace`` record) and
    ``metrics.prom`` (the last sweep's :class:`~repro.obs.top.TopModel`,
    only once the stream holds a sweep).  Returns
    ``{"bus": path, "trace": path[, "prom": path]}``, or ``None`` when
    observability is disabled.  The registry and collector are drained,
    so consecutive flushes (e.g. ``python -m repro all``) partition
    their observations instead of double counting, and flushes from
    several processes into one directory all survive.
    """
    if not core.ENABLED:
        return None
    registry_payload = core.REGISTRY.to_dict()
    core.REGISTRY.reset()
    events = trace.COLLECTOR.drain()
    path = bus.bus_path()
    with bus.EventBus(path, run_id) as writer:
        writer.emit("metrics", tag=tag, **registry_payload)
        for event in events:
            writer.emit("trace", event=event)

    records = bus.read_events(path)
    directory = path.parent
    paths = {"bus": path, "trace": directory / TRACE_FILENAME}
    trace.write_chrome(paths["trace"], bus.trace_events(records),
                       run_id=run_id)
    # Several sweeps may share one stream (the chaos smoke runs one per
    # fault site); the snapshot describes the last one.
    sweep_run = next((r.get("run_id") for r in reversed(records)
                      if r.get("kind") == "sweep-begin"), None)
    if sweep_run is not None:
        model = top.TopModel.fold(r for r in records
                                  if r.get("run_id") == sweep_run)
        paths["prom"] = top.write_snapshot(
            model, directory / top.METRICS_FILENAME)
    return paths
