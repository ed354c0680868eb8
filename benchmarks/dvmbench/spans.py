"""Span recording and layer wrappers for dvmbench's traced runs.

A traced run patches the public entry points of each layer of the
simulator (module attributes, class attributes and one registry entry)
with thin wrappers that record a span per call: name, start, end, the
enclosing span and the unit of work it belongs to.  Nothing under
``src/`` changes; the patches live only in the benchmark process, and
forked sweep workers inherit them.  A worker flushes its own spans to
``spans-<pid>.ndjson`` after every task, because its memory dies with it.

Layers are named after the repository's modules: ``graphs``, ``accel``,
``kernel``, ``system``, ``fastpath``, ``hw``, ``gen``, ``runner`` and
``sweep``.  The benchmark's own round span is ``bench.round``; its self
time is the benchmark glue between layer calls.

The module imports nothing from ``repro`` at import time, so the
self-time arithmetic can be tested without the simulator.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import threading
import time
from collections import Counter
from pathlib import Path

#: The seven standard MMU configurations, in the paper's order.
CONFIG_NAMES = ("conv_4k", "conv_2m", "conv_1g", "dvm_bm", "dvm_pe",
                "dvm_pe_plus", "ideal")

#: Fastpath refusal reasons reachable with every ``REPRO_*`` variable
#: unset (``chaos`` and ``fault_segments_disabled`` need a knob).
REFUSAL_REASONS = ("tlb_l2", "legacy_fault_path", "budget",
                   "walk_set_pressure")

#: Every per-layer metric a traced run reports, with its unit.  Times
#: and counts are per traced round.
PER_LAYER_UNITS = {
    "graphs.build_s": "s",
    "accel.run_workload_s": "s",
    "accel.trace_accesses": "count",
    "fastpath.bind_s": "s",
    "fastpath.batches_built": "count",
    "fastpath.run_batch_s": "s",
    **{f"fastpath.run_batch_s.{name}": "s" for name in CONFIG_NAMES},
    "fastpath.accepted": "count",
    "fastpath.refused": "count",
    **{f"fastpath.refused.{reason}": "count" for reason in REFUSAL_REASONS},
    "fastpath.segments": "count",
    "fastpath.segmented": "count",
    "fastpath.bridged_accesses": "count",
    "fastpath.accept_ratio": "ratio",
    "hw.iommu_fallback_s": "s",
    "hw.scalar_run_trace_s": "s",
    "hw.fault_service_s": "s",
    "hw.fault_replay_s": "s",
    "hw.fault_accounting_s": "s",
    "hw.faults": "count",
    "hw.major_faults": "count",
    "hw.swap_faults": "count",
    "kernel.boot_s": "s",
    "kernel.load_graph_s": "s",
    "kernel.reclaim_s": "s",
    "gen.scenario_s": "s",
    "gen.realize_s": "s",
    "gen.reference_s": "s",
    "gen.check_self_s": "s",
    "system.run_self_s": "s",
    "runner.prepare_s": "s",
    "runner.run_s": "s",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "runner.retries": "count",
    "sweep.run_pairs_s": "s",
    "sweep.worker_busy_s": "s",
    "sweep.overhead_s": "s",
    "sweep.worker_idle_frac": "ratio",
    "sweep.journal_appends": "count",
    "sweep.journal_append_s": "s",
    "sweep.tracestore_open_s": "s",
    "sweep.metrics_write_s": "s",
    "sweep.steals": "count",
    "sweep.hedges": "count",
    "bench.traced_rounds": "count",
    "bench.trace_overhead_frac": "ratio",
    "bench.self_time_coverage": "ratio",
    "bench.unattributed_frac": "ratio",
}

# A span is a list: [name, tag, start, end, parent index, unit id].
NAME, TAG, START, END, PARENT, UNIT = range(6)


class Recorder:
    """In-memory span store for one process.

    Spans nest per thread; ``parent`` indexes the enclosing span in the
    same process's list.  A forked worker inherits the parent's
    recorder, notices the new pid on its first span, and starts empty.
    """

    def __init__(self, spans_dir: Path):
        self.spans_dir = Path(spans_dir)
        self.main_pid = self.pid = os.getpid()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Installed as ``fastpath.PHASE_PROFILE`` while tracing.
        self.phases: dict = {}
        self.unit = ""
        self._stacks: dict[int, list[int]] = {}

    def _adopt_fork(self) -> None:
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.counts = Counter()
            self.phases.clear()      # in place: fastpath holds this dict
            self._stacks = {}

    def open(self, name: str, tag: str = "") -> int:
        """Start a span; returns its index for :meth:`close`."""
        self._adopt_fork()
        stack = self._stacks.setdefault(threading.get_ident(), [])
        index = len(self.spans)
        self.spans.append([name, tag, time.perf_counter(), 0.0,
                           stack[-1] if stack else -1, self.unit])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open one)."""
        self.spans[index][END] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def flush(self) -> None:
        """Append this worker's spans and counters to its ndjson file."""
        path = self.spans_dir / f"spans-{self.pid}.ndjson"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps({"span": span}) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts),
                                     "phases": dict(self.phases)}) + "\n")
        self.spans = []
        self.counts.clear()
        self.phases.clear()


def read_worker_spans(spans_dir: Path):
    """Worker spans by pid, plus the workers' summed counts and phases."""
    spans: dict[int, list] = {}
    counts: Counter = Counter()
    phases: Counter = Counter()
    for path in sorted(Path(spans_dir).glob("spans-*.ndjson")):
        rows = spans.setdefault(int(path.stem.split("-")[1]), [])
        base = 0
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if "span" in record:
                span = record["span"]
                # Parent indexes restart at 0 in every task's flush.
                if span[PARENT] >= 0:
                    span[PARENT] += base
                rows.append(span)
            else:
                counts.update(record["counts"])
                phases.update(record["phases"])
                base = len(rows)
    return spans, counts, phases


# -- self time ----------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def layer_times(spans: list) -> tuple[Counter, Counter]:
    """(inclusive, self) seconds per span name, for one process.

    Inclusive time counts only the outermost span of a name, so a
    wrapped function reached through another wrapped alias of itself is
    not counted twice.
    """
    inclusive: Counter = Counter()
    own: Counter = Counter()
    for span, seconds in zip(spans, self_times(spans)):
        own[span[NAME]] += seconds
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            inclusive[span[NAME]] += span[END] - span[START]
    return inclusive, own


def tagged_inclusive(spans: list, name: str) -> Counter:
    """Inclusive seconds of ``name`` spans, split by tag."""
    out: Counter = Counter()
    for span in spans:
        if span[NAME] == name:
            out[span[TAG]] += span[END] - span[START]
    return out


# -- layer wrappers ---------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_trace(rec, _token, _args, _kwargs, result) -> None:
    rec.counts["accel.trace_accesses"] += len(result.trace)


def _cache_size(args, kwargs):
    cache = _arg(args, kwargs, 2, "cache")
    return -1 if cache is None else len(cache)


def _count_bind(rec, before, args, kwargs, _batch) -> None:
    cache = _arg(args, kwargs, 2, "cache")
    if before < 0 or len(cache) > before:
        rec.counts["fastpath.batches_built"] += 1


def _count_outcome(rec, _token, _args, _kwargs, outcome) -> None:
    if outcome:
        rec.counts["fastpath.accepted"] += 1
        rec.counts["fastpath.segments"] += outcome.segments
        rec.counts["fastpath.bridged_accesses"] += outcome.bridged_accesses
        if outcome.segments > 1 or outcome.bridged_accesses:
            rec.counts["fastpath.segmented"] += 1
    else:
        rec.counts["fastpath.refused"] += 1
        rec.counts[f"fastpath.refused.{outcome.reason}"] += 1


def _count_faults(rec, _token, _args, _kwargs, stats) -> None:
    rec.counts["hw.faults"] += stats.faults
    rec.counts["hw.major_faults"] += stats.major_faults
    rec.counts["hw.swap_faults"] += stats.swap_faults


def _flush_worker(rec, _token, _args, _kwargs, _result) -> None:
    if rec.pid != rec.main_pid:
        rec.flush()


def _config_tag(args, _kwargs) -> str:
    return args[0].config.name.removesuffix("_demand")


def _targets(fastpath):
    """(owner, attribute, span name, options) for every wrapped entry.

    Functions imported by name into another module are patched there
    too, because that module calls its own binding.
    """
    def run_trace_name(args, kwargs):
        engine = _arg(args, kwargs, 3, "engine") or fastpath.default_engine()
        return "hw.scalar_run_trace" if engine == "scalar" else "hw.run_trace"

    def scalar_faults(rec, token, args, kwargs, stats):
        # A fast run_trace delegates to run_batch, which counts it.
        if run_trace_name(args, kwargs) == "hw.scalar_run_trace":
            _count_faults(rec, token, args, kwargs, stats)

    return [
        ("repro.graphs.rmat", "rmat_graph", "graphs.build", {}),
        ("repro.graphs.bipartite", "bipartite_from_rmat", "graphs.build", {}),
        ("repro.graphs.datasets", "rmat_graph", "graphs.build", {}),
        ("repro.graphs.datasets", "bipartite_from_rmat", "graphs.build", {}),
        ("repro.accel.algorithms", "run_workload", "accel.run_workload",
         {"on_return": _count_trace}),
        ("repro.sim.runner", "run_workload", "accel.run_workload",
         {"on_return": _count_trace}),
        # A system boot is the kernel boot plus process spawn and the
        # IOMMU wiring; the oracle boots bare kernels.
        ("repro.sim.system:HeterogeneousSystem", "__init__", "kernel.boot",
         {}),
        ("repro.kernel.kernel:Kernel", "__init__", "kernel.boot", {}),
        ("repro.kernel.kernel:Kernel", "spawn", "kernel.boot", {}),
        ("repro.kernel.reclaim:Reclaimer", "reclaim", "kernel.reclaim", {}),
        ("repro.sim.system:HeterogeneousSystem", "load_graph",
         "kernel.load_graph", {}),
        ("repro.sim.system:HeterogeneousSystem", "run", "system.run", {}),
        ("repro.sim.fastpath", "batch_for", "fastpath.bind",
         {"on_call": _cache_size, "on_return": _count_bind}),
        ("repro.sim.fastpath", "run_batch", "fastpath.run_batch",
         {"tag": _config_tag, "on_return": _count_outcome}),
        ("repro.hw.iommu:IOMMU", "run_batch", "hw.iommu_run_batch",
         {"on_return": _count_faults}),
        ("repro.hw.iommu:IOMMU", "run_trace", run_trace_name,
         {"on_return": scalar_faults}),
        ("repro.gen.oracle", "scenario_from_seed", "gen.scenario", {}),
        ("repro.gen.oracle", "realize", "gen.realize", {}),
        ("repro.gen.oracle", "reference_outcome", "gen.reference", {}),
        ("repro.gen.oracle", "check_scenario", "gen.check", {}),
        ("repro.sim.runner:ExperimentRunner", "prepare", "runner.prepare",
         {}),
        ("repro.sim.runner:ExperimentRunner", "run", "runner.run", {}),
        ("repro.sim.runner:ExperimentRunner", "run_pairs", "sweep.run_pairs",
         {}),
        ("repro.sweep.journal:SweepJournal", "append", "sweep.journal_append",
         {}),
        ("repro.sweep.tracestore", "open_trace", "sweep.tracestore_open", {}),
        ("repro.common.integrity", "write_json_atomic", "sweep.metrics_write",
         {}),
        ("repro.sweep.tasks:EXECUTORS", "pair", "sweep.worker_task",
         {"unit": lambda args, _kw: "{workload}/{dataset}".format(**args[1]),
          "on_return": _flush_worker}),
    ]


def _wrap(rec: Recorder, fn, name, tag=None, unit=None, on_call=None,
          on_return=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = on_call(args, kwargs) if on_call else None
        if unit is not None:
            rec.unit = unit(args, kwargs)
        index = rec.open(name(args, kwargs) if callable(name) else name,
                         tag(args, kwargs) if tag else "")
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if on_return:
            on_return(rec, token, args, kwargs, result)
        return result
    return wrapper


def _resolve(owner: str):
    module_name, _, attr = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


def install(rec: Recorder) -> list:
    """Patch every layer entry point; returns the undo list."""
    fastpath = importlib.import_module("repro.sim.fastpath")
    undo = [(fastpath, "PHASE_PROFILE", fastpath.PHASE_PROFILE, False)]
    fastpath.PHASE_PROFILE = rec.phases
    for owner, attr, name, options in _targets(fastpath):
        target = _resolve(owner)
        if isinstance(target, dict):
            original = target[attr]
            target[attr] = _wrap(rec, original, name, **options)
            undo.append((target, attr, original, True))
            continue
        # The raw class/module __dict__ entry, so a restore puts back
        # exactly what was there.
        original = vars(target)[attr]
        setattr(target, attr, _wrap(rec, original, name, **options))
        undo.append((target, attr, original, False))
    return undo


def uninstall(undo: list) -> None:
    """Restore every patched entry point, newest first."""
    for target, attr, original, is_item in reversed(undo):
        if is_item:
            target[attr] = original
        else:
            setattr(target, attr, original)


@contextlib.contextmanager
def traced(rec: Recorder):
    """Layer wrappers installed for the duration of the block."""
    undo = install(rec)
    try:
        yield rec
    finally:
        uninstall(undo)


# -- per-layer metrics ------------------------------------------------------------

def _sweep_split(main: list, workers: dict) -> tuple[float, float, list]:
    """(worker busy s, overhead s, idle fractions) over every sweep.

    A sweep's workers are the pids whose task spans fall inside its
    ``sweep.run_pairs`` span.
    """
    busy_total = overhead = 0.0
    idle = []
    tasks = [(pid, span) for pid, spans in workers.items() for span in spans
             if span[NAME] == "sweep.worker_task"]
    for sweep in (s for s in main if s[NAME] == "sweep.run_pairs"):
        wall = sweep[END] - sweep[START]
        busy: Counter = Counter()
        for pid, span in tasks:
            if sweep[START] <= span[START] <= sweep[END]:
                busy[pid] += span[END] - span[START]
        busy_total += sum(busy.values())
        overhead += wall - max(busy.values(), default=0.0)
        if busy and wall > 0:
            idle.append(1.0 - sum(busy.values()) / (len(busy) * wall))
    return busy_total, overhead, idle


def layer_metrics(main: list, workers: dict, counts: Counter,
                  phases: dict, rounds: int, overhead_frac: float) -> dict:
    """Every :data:`PER_LAYER_UNITS` metric, per traced round."""
    inclusive, own = layer_times(main)
    for spans in workers.values():
        worker_incl, worker_own = layer_times(spans)
        inclusive.update(worker_incl)
        own.update(worker_own)
    per_config = tagged_inclusive(main, "fastpath.run_batch")
    for spans in workers.values():
        per_config.update(tagged_inclusive(spans, "fastpath.run_batch"))
    busy, sweep_overhead, idle = _sweep_split(main, workers)
    wall = inclusive["bench.round"]
    covered = sum(self_times(main))
    attempts = counts["fastpath.accepted"] + counts["fastpath.refused"]
    journal_appends = sum(1 for s in main if s[NAME] == "sweep.journal_append")
    values = {
        "graphs.build_s": inclusive["graphs.build"],
        "accel.run_workload_s": inclusive["accel.run_workload"],
        "fastpath.bind_s": inclusive["fastpath.bind"],
        "fastpath.run_batch_s": inclusive["fastpath.run_batch"],
        **{f"fastpath.run_batch_s.{name}": per_config[name]
           for name in CONFIG_NAMES},
        "hw.iommu_fallback_s": own["hw.iommu_run_batch"],
        "hw.scalar_run_trace_s": inclusive["hw.scalar_run_trace"],
        "hw.fault_service_s": phases.get("fault_service", 0.0),
        "hw.fault_replay_s": phases.get("replay", 0.0),
        "hw.fault_accounting_s": phases.get("accounting", 0.0),
        "kernel.boot_s": inclusive["kernel.boot"],
        "kernel.load_graph_s": inclusive["kernel.load_graph"],
        "kernel.reclaim_s": inclusive["kernel.reclaim"],
        "gen.scenario_s": inclusive["gen.scenario"],
        "gen.realize_s": inclusive["gen.realize"],
        "gen.reference_s": inclusive["gen.reference"],
        "gen.check_self_s": own["gen.check"],
        "system.run_self_s": own["system.run"],
        "runner.prepare_s": inclusive["runner.prepare"],
        "runner.run_s": inclusive["runner.run"],
        "sweep.run_pairs_s": inclusive["sweep.run_pairs"],
        "sweep.worker_busy_s": busy,
        "sweep.overhead_s": sweep_overhead,
        "sweep.journal_appends": journal_appends,
        "sweep.journal_append_s": inclusive["sweep.journal_append"],
        "sweep.tracestore_open_s": inclusive["sweep.tracestore_open"],
        "sweep.metrics_write_s": inclusive["sweep.metrics_write"],
    }
    for name, unit in PER_LAYER_UNITS.items():
        if name not in values and unit == "count":
            values[name] = counts[name]
    values = {name: value / rounds for name, value in values.items()}
    values.update({
        "fastpath.accept_ratio": (counts["fastpath.accepted"] / attempts
                                  if attempts else 0.0),
        "sweep.worker_idle_frac": statistics.fmean(idle) if idle else 0.0,
        "bench.traced_rounds": rounds,
        "bench.trace_overhead_frac": overhead_frac,
        "bench.self_time_coverage": covered / wall if wall else 0.0,
        "bench.unattributed_frac": own["bench.round"] / wall if wall else 0.0,
    })
    return {name: values[name] for name in PER_LAYER_UNITS}


# -- artifacts -------------------------------------------------------------------

def write_artifacts(path_stem: Path, main: list, main_pid: int,
                    workers: dict) -> None:
    """Chrome-trace JSON (opens in Perfetto) and a self-time table."""
    processes = {main_pid: main, **workers}
    origin = min((s[START] for spans in processes.values() for s in spans),
                 default=0.0)
    events = [{"name": span[NAME], "ph": "X", "pid": pid, "tid": 0,
               "ts": (span[START] - origin) * 1e6,
               "dur": (span[END] - span[START]) * 1e6,
               "args": {"tag": span[TAG], "unit": span[UNIT]}}
              for pid, spans in processes.items() for span in spans]
    Path(f"{path_stem}.trace.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    lines = [f"{'process':<8} {'span':<26} {'calls':>8} {'self s':>10} "
             f"{'inclusive s':>12}"]
    for pid, spans in processes.items():
        role = "main" if pid == main_pid else str(pid)
        inclusive, own = layer_times(spans)
        calls = Counter(span[NAME] for span in spans)
        for name in sorted(own, key=own.get, reverse=True):
            lines.append(f"{role:<8} {name:<26} {calls[name]:>8} "
                         f"{own[name]:>10.4f} {inclusive[name]:>12.4f}")
    Path(f"{path_stem}.selftime.txt").write_text("\n".join(lines) + "\n")
