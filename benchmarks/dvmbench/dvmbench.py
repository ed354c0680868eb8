"""dvmbench: end-to-end and per-layer benchmark of the DVM reproduction.

Usage::

    python3 benchmarks/dvmbench/dvmbench.py                  # all workloads
    python3 benchmarks/dvmbench/dvmbench.py --workload faults --seed 3
    python3 benchmarks/dvmbench/dvmbench.py --trace 1        # per-layer run
    python3 benchmarks/dvmbench/dvmbench.py --make-reference --seed 3
    python3 benchmarks/dvmbench/dvmbench.py compare A/ B/

Each workload runs in its own child process with every ``REPRO_*``
variable scrubbed.  The child sets up (several times, reporting the
median), then measures rounds for :data:`RUN_SECONDS` and checks every
simulated output row against the scalar-engine digests in
``reference.json``.  End-to-end times are rescaled by a host-speed probe
run between rounds (:class:`HostProbe`); the raw times are kept too.
``--seconds`` exists for benchmark runners and accepts only
:data:`RUN_SECONDS`, so every run measures the same window.
``--trace 1`` is a separate
run: rounds for half the window, then the same rounds again with the
layer wrappers of ``spans.py`` installed; it reports per-layer numbers
and writes a Perfetto trace under ``out/trace``.

Every run writes a result file (metrics, samples and host facts) to
``--out``; ``compare`` judges two such directories against the bounds in
``BENCHMARK.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("fig8-large", "faults", "sweep-bench", "fuzz")
#: Measurement window per workload run (BENCHMARK.json's run_seconds).
RUN_SECONDS = 20
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: End-to-end times are reported for a host on which the host probe
#: takes this long (about its time on the 2-core host the benchmark was
#: built on).
PROBE_REFERENCE_S = 0.09
#: The workloads slow by about this power of the probe's slowdown:
#: across four sessions of ten runs per workload, this exponent left the
#: smallest drift between session medians on all four (README.md, "Host
#: noise").
PROBE_ELASTICITY = 0.75

#: Every end-to-end metric, with its unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_accesses_per_s": "accesses/s",
    "peak_rss_mb": "MB",
    "unit_p50_ms": "ms",
    "unit_p90_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Compare two result directories with: dvmbench.py compare "
               "A/ B/")
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default: 0)")
    parser.add_argument("--seconds", type=int, choices=(RUN_SECONDS,),
                        default=RUN_SECONDS,
                        help=f"measurement window per workload: fixed at "
                             f"{RUN_SECONDS}, BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--out", type=Path, default=OUT / "results",
                        help="directory for result files")
    parser.add_argument("--tiny", action="store_true",
                        help="bench-profile inputs, one round (smoke test)")
    parser.add_argument("--make-reference", action="store_true",
                        help="recompute the seed's reference digests with "
                             "the scalar engine")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference digest file")
    # Parent -> child plumbing.
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def reference_command(section: str) -> str:
    """The command that (re)creates one reference.json section."""
    base = "python3 benchmarks/dvmbench/dvmbench.py --make-reference"
    if section == "tiny":
        return f"{base} --tiny"
    if section == "bench":
        return f"{base} --workload sweep-bench"
    return f"{base} --seed {section[1:]}"


# -- child: one workload ----------------------------------------------------------

def percentile(values: list, pct: int) -> float:
    """Inclusive-method percentile (never outside the sample range)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def git_revision() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(seed: int) -> dict:
    import platform

    import numpy
    from repro.sim import _native
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": len(os.sched_getaffinity(0)),
            "mem_total_mb": pages // (1 << 20),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "native_kernel": _native.available(),
            "seed": seed,
            "git_revision": git_revision()}


class HostProbe:
    """Times a fixed mix of numpy sorting and Python dict updates.

    The shared host this benchmark was built on has slow phases lasting
    minutes, in which everything runs up to 1.5x slower, so raw walls of
    identical runs drift by 30-58% between sessions.  The probe slows
    with the workloads, a little more than they do.  It runs before and
    after every round, never inside one, and its median over a run
    rescales every end-to-end time to a host whose probe takes
    :data:`PROBE_REFERENCE_S`, damped by :data:`PROBE_ELASTICITY`.  Work
    the program under test leaves running between rounds would slow the
    probe too and be credited back as host slowness, so result files
    keep the raw values as ``end_to_end_raw`` and ``compare`` judges
    both.
    """

    def __init__(self):
        import numpy
        self._unique = numpy.unique
        self._values = numpy.random.default_rng(0).integers(0, 1 << 30,
                                                            300_000)
        self.samples: list[float] = []
        self()
        self.samples.clear()        # the first call pays one-off costs

    def __call__(self) -> None:
        began = time.perf_counter()
        self._unique(self._values)
        table = {}
        for key in range(60_000):
            table[key & 1023] = key
        self.samples.append(time.perf_counter() - began)

    def speed(self) -> float:
        """How much faster than the reference host this run's host was,
        as the workloads feel it."""
        return (PROBE_REFERENCE_S
                / statistics.median(self.samples)) ** PROBE_ELASTICITY


def run_rounds(workload, state, budget: float, probe: HostProbe, rec=None,
               count=None):
    """Rounds 0, 1, ...: ``count`` of them, or else until the next one
    would overrun ``budget`` (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        workload.reset(state, index)
        probe()
        began = time.perf_counter()
        if rec is not None:
            rec.unit = f"{workload.name}#r{index}"
            span = rec.open("bench.round")
        result = workload.round(state, index)
        if rec is not None:
            rec.close(span)
        result.wall = time.perf_counter() - began
        probe()
        rounds.append(result)
        print(f"  round {index}{' (traced)' if rec else ''}: "
              f"{result.wall:.3f} s", flush=True)
        if count is not None:
            if len(rounds) == count:
                return rounds
        elif time.perf_counter() - start + result.wall > budget:
            return rounds


def verify(rounds, reference: dict) -> tuple[int, list]:
    """(failed units, unique failure lines) against the reference."""
    failed = 0
    lines: list = []
    sections = reference.get("sections", {})
    for result in rounds:
        failed += result.failed
        lines += result.failures
        if not result.rows:
            continue
        expected = sections.get(result.section)
        if expected is None:
            failed += len(result.rows)
            lines.append(f"no reference rows for section "
                         f"{result.section!r}; create them with: "
                         f"{reference_command(result.section)}")
            continue
        for row, got in sorted(result.rows.items()):
            want = expected.get(row)
            if got != want:
                failed += 1
                lines.append(f"{row}: digest {got} != reference {want}")
    return failed, list(dict.fromkeys(lines))


def end_to_end(rounds, setup_s: float, speed: float = 1.0) -> dict:
    """Medians over rounds (and over units), so a burst of host noise
    during one round moves them little.  Host times are scaled by
    ``speed`` (see :class:`HostProbe`)."""
    units = [u for r in rounds for u in (r.units or [r.wall])]
    return {"setup_s": setup_s * speed,
            "wall_s": statistics.median(r.wall for r in rounds) * speed,
            "sim_accesses_per_s": statistics.median(
                r.accesses / r.wall for r in rounds) / speed,
            "peak_rss_mb": peak_rss_mb(),
            "unit_p50_ms": percentile(units, 50) * 1e3 * speed,
            "unit_p90_ms": percentile(units, 90) * 1e3 * speed}


def traced_layers(workload, state, plain, probe, trace_stem):
    """The untraced rounds again, traced; returns them and the per-layer
    metrics.  Replaying the same rounds makes the tracing overhead a
    like-for-like wall ratio."""
    import spans
    spans_dir = Path(f"{trace_stem}-spans")
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    rec = spans.Recorder(spans_dir)
    with spans.traced(rec):
        rounds = run_rounds(workload, state, 0.0, probe, rec,
                            count=len(plain))
    workers, counts, phases = spans.read_worker_spans(spans_dir)
    counts.update(rec.counts)
    phases.update(rec.phases)
    for result in rounds:
        counts.update(result.counters)
    overhead = (sum(r.wall for r in rounds) / sum(r.wall for r in plain)
                - 1.0)
    spans.write_artifacts(trace_stem, rec.spans, rec.main_pid, workers)
    return rounds, spans.layer_metrics(rec.spans, workers, counts, phases,
                                       len(rounds), overhead)


def child_main(args) -> int:
    import workloads
    import_s = time.monotonic() - args.spawned_at
    name = args.workload[0]
    work_dir = OUT / "work" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](args.seed, args.tiny, work_dir)
        if args.make_reference:
            result = {"section": workload.section,
                      "rows": workload.reference_rows()}
        else:
            result = measure(workload, args, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    args.result.write_text(json.dumps(result))
    return 0


def measure(workload, args, import_s: float) -> dict:
    # Set-up = interpreter start and imports (once), then the median of
    # several fresh preparations, each followed by a small warm-up round.
    probe = HostProbe()
    warm, reps = [], []
    for _ in range(1 if args.tiny else SETUP_REPS):
        probe()
        began = time.perf_counter()
        state = workload.prepare()
        warm.append(workload.warm_up(state))
        reps.append(time.perf_counter() - began)
    setup_s = import_s + statistics.median(reps)
    print(f"{workload.name}: setup {setup_s:.3f} s (import {import_s:.3f} s,"
          f" preparations {', '.join(f'{s:.3f}' for s in reps)} s)",
          flush=True)
    budget = 0 if args.tiny else RUN_SECONDS
    if args.trace:
        plain = run_rounds(workload, state, budget / 2, probe)
        stem = OUT / "trace" / f"{workload.name}-seed{args.seed}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        traced, layers = traced_layers(workload, state, plain, probe, stem)
    else:
        plain = run_rounds(workload, state, budget, probe)
        traced, layers = [], {}
    speed = probe.speed()
    print(f"host speed {speed:.3f} (median probe "
          f"{statistics.median(probe.samples) * 1e3:.1f} ms)", flush=True)
    checked = warm + plain + traced
    reference = json.loads(args.reference.read_text())
    failed, failures = verify(checked, reference)
    return {
        "workload": workload.name, "seed": args.seed, "tiny": args.tiny,
        "trace": args.trace, "seconds": budget, "finished_at": time.time(),
        "host": host_facts(args.seed),
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in checked),
        "failed": failed, "failures": failures,
        "end_to_end": end_to_end(plain, setup_s, speed),
        "end_to_end_raw": end_to_end(plain, setup_s),
        "per_layer": layers,
        "samples": {"round_walls": [r.wall for r in plain],
                    "traced_round_walls": [r.wall for r in traced],
                    "units": sum(len(r.units) or 1 for r in plain),
                    "import_s": import_s, "setup_reps_s": reps,
                    "host_probe_s": probe.samples,
                    "skipped_seeds": getattr(state, "skipped", [])},
    }


# -- parent: orchestration -----------------------------------------------------

def spawn(name: str, args, extra=(), timeout: float | None = None):
    """Run one workload's child; returns its result dict or None."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result_path = tmp / f"result-{name}-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", name, "--seed", str(args.seed),
           "--trace", str(args.trace),
           "--reference", str(args.reference), "--result", str(result_path),
           "--spawned-at", repr(time.monotonic()), *extra]
    if args.tiny:
        cmd.append("--tiny")
    # Its own session, so a timeout also stops the sweep workers.
    child = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                             start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: {name} exceeded {timeout:.0f} s; stopped",
              file=sys.stderr)
        code = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0 or not result_path.is_file():
        print(f"error: {name} child failed (exit {code})", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def metric_units(result: dict) -> dict:
    if result["trace"]:
        import spans
        return spans.PER_LAYER_UNITS
    return END_TO_END_UNITS


def report(result: dict) -> dict:
    """Print one workload's metrics; returns them with their units."""
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    units = metric_units(result)
    samples = result["samples"]
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"== {result['workload']} seed {result['seed']} "
          f"({'traced' if result['trace'] else 'untraced'}): {status}, "
          f"{result['failed']} failed of {result['attempted']} units, "
          f"{len(samples['round_walls'])} rounds, {samples['units']} "
          f"unit samples")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    for name, value in values.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def write_result(result: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{result['workload']}-seed{result['seed']}-"
                  f"trace{result['trace']}-{time.time_ns()}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def make_reference(args, names) -> int:
    reference = json.loads(args.reference.read_text()) \
        if args.reference.is_file() else {}
    reference.setdefault("engine", "scalar")
    sections = reference.setdefault("sections", {})
    # The fuzz oracle is its own reference.
    for name in (n for n in names if n != "fuzz"):
        result = spawn(name, args, extra=["--make-reference"])
        if result is None:
            return 2
        sections.setdefault(result["section"], {}).update(result["rows"])
        print(f"{name}: {len(result['rows'])} rows -> section "
              f"{result['section']}")
    args.reference.write_text(json.dumps(reference, indent=1, sort_keys=True)
                              + "\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOAD_NAMES)
    if args.make_reference:
        return make_reference(args, names)
    results = []
    for name in names:
        result = spawn(name, args, timeout=120 + 2 * RUN_SECONDS)
        if result is None:
            return 2
        result["metrics"] = report(result)
        write_result(result, args.out)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": entry for r in results
                   for name, entry in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
