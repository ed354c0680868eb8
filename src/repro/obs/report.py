"""Reporting CLI: render an observability stream as text.

``python -m repro obs <dir>`` reads ``<dir>/bus.ndjson`` once — the
``metrics`` records (registry snapshots) and the ``trace`` records
(spans, ``log`` diagnostics and ``heartbeat`` instants) that
:func:`repro.obs.flush` appended — and renders:

* translation-behaviour histograms (AVC hit rate / miss-rate
  distribution, walk-depth distribution, fault-service latency) per
  configuration, through the same table/bar helpers the figures use
  (:mod:`repro.experiments.reporting`);
* a span "flamegraph summary": wall time and call counts aggregated per
  span name, from the merged Chrome-trace events;
* the raw counter table, for everything else.

Multiple flushes merge: counters add, histograms add bin-wise, event
streams concatenate.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.reporting import (render_histogram, render_table)
from repro.obs import bus
from repro.obs.core import Registry


def _by_config(instruments: dict, prefix: str) -> dict[str, object]:
    """``{config: instrument}`` for keys ``prefix|config=<name>``."""
    out = {}
    want = prefix + "|config="
    for key, value in instruments.items():
        if key.startswith(want):
            out[key[len(want):]] = value
    return out


def hit_rate_table(registry: Registry) -> str:
    """AVC / TLB hit rates per configuration, from exact counters."""
    rows = []
    avc_hits = _by_config(registry.counters, "avc.hits")
    avc_misses = _by_config(registry.counters, "avc.misses")
    for config in sorted(avc_hits):
        hits = avc_hits[config].value
        misses = avc_misses.get(config, None)
        misses = misses.value if misses is not None else 0
        total = hits + misses
        rate = 100.0 * hits / total if total else 0.0
        rows.append([config, "AVC", f"{hits:,}", f"{misses:,}",
                     f"{rate:.2f}%"])
    tlb_lookups = _by_config(registry.counters, "tlb.lookups")
    tlb_misses = _by_config(registry.counters, "tlb.misses")
    for config in sorted(tlb_lookups):
        lookups = tlb_lookups[config].value
        misses = tlb_misses.get(config)
        misses = misses.value if misses is not None else 0
        rate = 100.0 * (lookups - misses) / lookups if lookups else 0.0
        rows.append([config, "TLB", f"{lookups - misses:,}", f"{misses:,}",
                     f"{rate:.2f}%"])
    if not rows:
        return "(no AVC/TLB activity recorded)"
    return render_table(["Config", "Structure", "Hits", "Misses",
                         "Hit rate"], rows,
                        title="Translation hit rates (exact counters)")


def histogram_sections(registry: Registry) -> str:
    """Render every recorded histogram, grouped by base name."""
    titles = {
        "walk.depth": "Walk-depth distribution (memory refs per walked "
                      "page)",
        "avc.miss_permille": "AVC per-run miss rate (permille)",
        "sweep.hang_detection_ms": "Hang-detection latency (ms from "
                                   "dispatch to supervisor kill)",
    }
    blocks = []
    for key in sorted(registry.histograms):
        base, _, labels = key.partition("|")
        title = titles.get(base, base)
        blocks.append(render_histogram(registry.histograms[key].to_dict(),
                                       title=f"{title} [{labels or 'all'}]"))
    return "\n\n".join(blocks) if blocks else "(no histograms recorded)"


def span_summary(events: list[dict]) -> str:
    """Flamegraph-style aggregation: wall time per span name."""
    agg: dict[str, list] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        name = event.get("name", "?")
        entry = agg.setdefault(name, [0, 0.0, 1 << 62])
        entry[0] += 1
        entry[1] += float(event.get("dur", 0.0))
        depth = event.get("args", {}).get("depth", 0)
        entry[2] = min(entry[2], depth)
    if not agg:
        return "(no spans recorded)"
    rows = []
    for name, (count, total_us, depth) in sorted(
            agg.items(), key=lambda item: -item[1][1]):
        rows.append(["  " * depth + name, str(count),
                     f"{total_us / 1e3:.1f}", f"{total_us / count / 1e3:.2f}"])
    return render_table(["Span", "Count", "Total ms", "Mean ms"], rows,
                        title="Span summary (per-process wall time)")


def hang_detection_summary(registry: Registry) -> str | None:
    """p50/p99 of supervisor hang-detection latency, when recorded.

    The scheduler observes ``sweep.hang_detection_ms`` per stale-beat /
    deadline kill (PR 8's ``detection_latencies``, surfaced as an obs
    histogram); the power-of-two bins give order-of-magnitude quantiles,
    clamped to the exact min/max.
    """
    hist = registry.histograms.get("sweep.hang_detection_ms")
    if hist is None or not hist.count:
        return None
    return (f"Hang detection: {hist.count} kills | "
            f"p50 {hist.quantile(0.5):.0f}ms | "
            f"p99 {hist.quantile(0.99):.0f}ms | "
            f"max {hist.max}ms")


def counters_table(registry: Registry) -> str:
    """All counters, sorted by name."""
    if not registry.counters:
        return "(no counters recorded)"
    rows = [[key, f"{counter.value:,}"]
            for key, counter in sorted(registry.counters.items())]
    return render_table(["Counter", "Value"], rows, title="Counters")


def render_report(directory: Path | str) -> str:
    """The full report for one observability directory."""
    directory = Path(directory)
    records = bus.read_events(directory / bus.BUS_FILENAME)
    registry = Registry()
    for record in records:
        if record.get("kind") == "metrics":
            registry.merge(record)
    events = bus.trace_events(records)
    sections = [
        f"Observability report: {directory}",
        hit_rate_table(registry),
        histogram_sections(registry),
        span_summary(events),
        counters_table(registry),
    ]
    hang = hang_detection_summary(registry)
    if hang is not None:
        sections.append(hang)
    beats = [e["args"]["line"] for e in events if e["name"] == "heartbeat"]
    if beats:
        sections.append(f"Heartbeat ({len(beats)} lines; last): "
                        + beats[-1])
    diagnostics = sum(1 for e in events if e["name"] == "log")
    if diagnostics:
        sections.append(f"Diagnostics: {diagnostics} structured log "
                        "entries")
    return "\n\n".join(sections)


def main(argv: list[str]) -> int:
    """Entry point for ``python -m repro obs <dir>``."""
    args = [a for a in argv if not a.startswith("-")]
    if not args:
        print("usage: python -m repro obs <obs-dir>")
        return 1
    directory = Path(args[0])
    if not directory.is_dir():
        print(f"not a directory: {directory}")
        return 1
    try:
        print(render_report(directory))
    except BrokenPipeError:      # e.g. `python -m repro obs dir | head`
        pass
    return 0
