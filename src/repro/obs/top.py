"""``python -m repro top``: a live dashboard over the sweep event bus.

The scheduler narrates every lifecycle transition onto the bus
(:mod:`repro.obs.bus`); this module folds that stream into a terminal
dashboard — per-worker state, per-shard queue depth, steal / hedge /
fault counters, throughput and ETA — refreshed every ``--interval``
seconds, plus a Prometheus-text snapshot (``metrics.prom``) rewritten
atomically each refresh for scraping (and once more by every
:func:`repro.obs.flush`).  The fold reads scheduler records only: the
``metrics`` and ``trace`` records flushes append to the same stream
neither count nor move the sweep's clock.

The fold is deliberately stateless across refreshes:
:meth:`TopModel.fold` replays the whole validated stream every tick.
Bus files are one small line per task *transition* (not per access), so
even a 10k-task sweep re-folds in milliseconds, and replay-from-zero
makes the dashboard trivially correct across writer crashes, torn-tail
truncations and mid-sweep attachment — the same reasons the journal
replays instead of trusting in-memory state.

Everything here is read-only over the bus; the dashboard can run in a
different terminal, container, or machine (shared filesystem) than the
sweep it watches.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from repro.obs import bus as obs_bus
from repro.obs import core

#: Default Prometheus snapshot file name inside the obs directory.
METRICS_FILENAME = "metrics.prom"

#: Event kinds counted verbatim into ``repro_sweep_events_total``.
COUNTED_KINDS = ("admitted", "started", "completed", "failed", "retried",
                 "stolen", "hedged", "killed", "quarantined", "duplicate",
                 "shelved", "beat-stale", "stalled", "serial",
                 "pool-rebuilt", "pool-exhausted")

#: Every kind the scheduler emits; :meth:`TopModel.apply` ignores the
#: rest of the stream.
SCHEDULER_KINDS = COUNTED_KINDS + ("sweep-begin", "tick", "sweep-end")


class TopModel:
    """The dashboard's state: one fold over a sweep's bus events."""

    def __init__(self):
        self.run_id = ""
        self.tasks = 0
        self.slots = 0
        self.done = 0
        self.started_at: float | None = None
        self.last_t: float | None = None
        self.finished = False
        self.counts = {kind: 0 for kind in COUNTED_KINDS}
        self.workers: dict[int, dict] = {}       # slot -> state snapshot
        self.queue_depth: dict[str, int] = {}    # shard -> queued tasks
        self._key_shard: dict[str, str] = {}

    @classmethod
    def fold(cls, events) -> "TopModel":
        model = cls()
        for event in events:
            model.apply(event)
        return model

    # -- folding --------------------------------------------------------------

    def _worker(self, slot) -> dict | None:
        if slot is None:
            return None
        state = self.workers.get(slot)
        if state is None:
            state = self.workers[slot] = {"state": "idle", "key": None,
                                          "since": None}
        return state

    def apply(self, event: dict) -> None:
        """Fold one validated bus record into the model."""
        kind = event.get("kind")
        if kind not in SCHEDULER_KINDS:
            return
        t = event.get("t")
        if isinstance(t, (int, float)):
            self.last_t = t
        if kind in self.counts:
            self.counts[kind] += 1
        key = event.get("key")
        slot = event.get("slot")
        if kind == "sweep-begin":
            self.run_id = event.get("run_id", "")
            self.tasks = event.get("tasks", 0)
            self.slots = event.get("slots", 0)
            self.started_at = t
            for i in range(self.slots):
                self._worker(i)
        elif kind == "admitted":
            shard = event.get("shard") or key or "?"
            self._key_shard[key] = shard
            self.queue_depth[shard] = self.queue_depth.get(shard, 0) + 1
        elif kind in ("started", "hedged"):
            shard = self._key_shard.get(key)
            if kind == "started" and shard is not None:
                depth = self.queue_depth.get(shard, 0)
                self.queue_depth[shard] = max(depth - 1, 0)
            worker = self._worker(slot)
            if worker is not None:
                worker.update(state="busy", key=key, since=t)
        elif kind in ("completed", "quarantined", "failed", "duplicate"):
            if kind in ("completed", "quarantined"):
                self.done += 1
            worker = self._worker(slot)
            if worker is not None:
                worker.update(state="idle", key=None, since=t)
        elif kind == "killed":
            worker = self._worker(slot)
            if worker is not None:
                worker.update(state="dead", key=None, since=t)
        elif kind == "pool-rebuilt":
            worker = self._worker(slot)
            if worker is not None:
                worker.update(state="idle", key=None, since=t)
        elif kind == "sweep-end":
            self.finished = True
            self.done = max(self.done, event.get("done", 0))

    # -- derived --------------------------------------------------------------

    def throughput(self) -> float:
        """Completed tasks per second of observed sweep time."""
        if self.started_at is None or self.last_t is None:
            return 0.0
        elapsed = self.last_t - self.started_at
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self) -> float | None:
        rate = self.throughput()
        remaining = max(self.tasks - self.done, 0)
        if self.finished or not remaining:
            return 0.0
        return remaining / rate if rate > 0 else None

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """The dashboard as plain text (one frame)."""
        eta = self.eta_seconds()
        eta_text = "?" if eta is None else ("done" if self.finished
                                            else f"{eta:.0f}s")
        lines = [
            f"repro top — run {self.run_id or '?'}"
            f" · {self.done}/{self.tasks} tasks"
            f" · {self.throughput():.2f} tasks/s · eta {eta_text}"
        ]
        if self.workers:
            cells = []
            for slot in sorted(self.workers):
                worker = self.workers[slot]
                state = worker["state"]
                label = f"{slot}:{state}"
                if state == "busy" and worker["key"]:
                    label += f" {worker['key']}"
                cells.append(label)
            lines.append("workers  " + " | ".join(cells))
        queued = {s: d for s, d in sorted(self.queue_depth.items()) if d}
        queue_cells = [f"{shard} {depth}" for shard, depth in queued.items()]
        lines.append("queues   " + (" | ".join(queue_cells) or "empty"))
        counts = self.counts
        lines.append(
            "events   "
            f"steals {counts['stolen']} | hedges {counts['hedged']}"
            f" | retries {counts['retried']} | kills {counts['killed']}"
            f" | stale {counts['beat-stale']}"
            f" | quarantined {counts['quarantined']}"
            f" | dup {counts['duplicate']} | shelved {counts['shelved']}"
            f" | serial {counts['serial']}"
            f" | exhausted {counts['pool-exhausted']}")
        if self.finished:
            lines.append("sweep complete")
        return "\n".join(lines)

    def prometheus_text(self) -> str:
        """The model as Prometheus exposition-format text."""
        lines = [
            "# HELP repro_sweep_tasks_total Tasks in the sweep.",
            "# TYPE repro_sweep_tasks_total gauge",
            f"repro_sweep_tasks_total {self.tasks}",
            "# HELP repro_sweep_done_total Tasks completed or quarantined.",
            "# TYPE repro_sweep_done_total gauge",
            f"repro_sweep_done_total {self.done}",
            "# HELP repro_sweep_throughput_tasks_per_second "
            "Completed tasks per observed second.",
            "# TYPE repro_sweep_throughput_tasks_per_second gauge",
            f"repro_sweep_throughput_tasks_per_second "
            f"{self.throughput():.6f}",
            "# HELP repro_sweep_events_total Bus events seen, by kind.",
            "# TYPE repro_sweep_events_total counter",
        ]
        for kind in COUNTED_KINDS:
            lines.append(f'repro_sweep_events_total{{kind="{kind}"}} '
                         f"{self.counts[kind]}")
        lines.append("# HELP repro_sweep_workers Worker slots by state.")
        lines.append("# TYPE repro_sweep_workers gauge")
        for state in ("idle", "busy", "dead"):
            n = sum(1 for w in self.workers.values()
                    if w["state"] == state)
            lines.append(f'repro_sweep_workers{{state="{state}"}} {n}')
        lines.append("# HELP repro_sweep_queue_depth Queued tasks per "
                     "shard.")
        lines.append("# TYPE repro_sweep_queue_depth gauge")
        for shard, depth in sorted(self.queue_depth.items()):
            lines.append(f'repro_sweep_queue_depth{{shard="{shard}"}} '
                         f"{depth}")
        return "\n".join(lines) + "\n"


def write_snapshot(model: TopModel, path: str | os.PathLike) -> Path:
    """Atomically (tmp + rename) write ``metrics.prom`` so a scraper
    never reads a half-written exposition."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(model.prometheus_text())
    os.replace(tmp, path)
    return path


def main(argv: list[str] | None = None) -> int:
    """``python -m repro top [--bus PATH] [--run-id ID] [--once] ...``"""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro top",
        description="live dashboard over a sweep's event bus")
    parser.add_argument("--bus", default=None,
                        help="bus stream to watch (default: "
                             "<obs-dir>/bus.ndjson)")
    parser.add_argument("--run-id", default=None,
                        help="only fold events from this sweep run")
    parser.add_argument("--metrics", default=None,
                        help="metrics.prom snapshot path (default: "
                             "<obs-dir>/metrics.prom)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh seconds (default: 1)")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit")
    parser.add_argument("--timeout", type=float, default=None,
                        help="stop after this many seconds")
    args = parser.parse_args(argv)

    bus_path = Path(args.bus) if args.bus else obs_bus.bus_path()
    metrics_path = Path(args.metrics) if args.metrics \
        else core.out_dir() / METRICS_FILENAME
    deadline = (time.monotonic() + args.timeout
                if args.timeout is not None else None)

    while True:
        model = TopModel.fold(
            obs_bus.read_events(bus_path, run_id=args.run_id))
        write_snapshot(model, metrics_path)
        frame = model.render()
        if args.once:
            print(frame)
            return 0
        # Clear + home, then the frame: a flicker-free enough refresh
        # without a curses dependency.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        if model.finished:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 0
        try:
            time.sleep(max(args.interval, 0.05))
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
