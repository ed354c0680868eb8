"""Compare two directories of dvmbench result files.

    python3 benchmarks/dvmbench/dvmbench.py compare BASE/ CHANGE/

For every (metric, workload) it prints each side's median and quartiles,
the change's pairwise win rate (runs paired by seed when both sides ran
the same seeds, otherwise every cross pair; ties count for neither) and
a verdict against the metric's bound in ``BENCHMARK.json``:

``improved``
    the change wins at least 90% of pairs and the medians differ by more
    than the baseline's own interquartile distance;
``regressed``
    the change's median is worse than the baseline's by more than the
    bound;
``unresolved``
    the baseline's interquartile spread exceeds the bound, unless every
    change run reads better than every baseline run;
``unchanged``
    otherwise.

End-to-end times are judged twice: as rescaled by the host probe, and
raw (``end_to_end_raw``).  When the two sides' runs were interleaved in
time, a metric that regressed raw but not rescaled is flagged, because
work the change leaves running between rounds slows the probe and would
be credited back as host slowness.  When one side ran after the other,
raw times carry the host's drift between them (30-58% on the host the
benchmark was built on), so raw verdicts are shown but raise no flag.
Per-layer metrics have no bound and get ``info``.

Result files from different hosts, and runs with failed units on either
side, are refused: a faster program that is wrong is not a gain.  Exits
1 when anything regressed or is flagged, 2 when the inputs cannot be
compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Host facts that must match for two runs to be comparable.
HOST_KEYS = ("nproc", "mem_total_mb", "numpy", "python", "native_kernel")

WIN_RATE_FOR_GAIN = 0.9


def load_runs(directory: Path) -> list[dict]:
    """Every result file in ``directory``."""
    return [json.loads(path.read_text())
            for path in sorted(Path(directory).glob("*.json"))]


def host_of(run: dict) -> tuple:
    return tuple(run["host"].get(key) for key in HOST_KEYS)


def series(runs: list[dict], raw: bool = False) -> dict:
    """(metric, workload label) -> [(seed, value), ...]; ``raw`` takes the
    unrescaled end-to-end values and skips traced runs."""
    out = defaultdict(list)
    for run in runs:
        if raw and run["trace"]:
            continue
        label = run["workload"] + (" (tiny)" if run.get("tiny") else "")
        if run["trace"]:
            values = run["per_layer"]
        else:
            values = run["end_to_end_raw" if raw else "end_to_end"]
        for metric, value in values.items():
            out[(metric, label)].append((run["seed"], value))
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def win_rate(base: list, change: list, lower_is_better: bool) -> float:
    """Share of (base, change) pairs the change wins."""
    base_by_seed, change_by_seed = defaultdict(list), defaultdict(list)
    for seed, value in base:
        base_by_seed[seed].append(value)
    for seed, value in change:
        change_by_seed[seed].append(value)
    common = sorted(set(base_by_seed) & set(change_by_seed))
    if common:
        pairs = [pair for seed in common
                 for pair in zip(base_by_seed[seed], change_by_seed[seed])]
    else:
        pairs = [(b, c) for _, b in base for _, c in change]
    wins = sum(1 for b, c in pairs if (c < b if lower_is_better else c > b))
    return wins / len(pairs)


def verdict(base: list, change: list, spec: dict) -> tuple[str, float]:
    """(verdict, win rate) for one metric on one workload."""
    lower = spec.get("better", "lower") == "lower"
    a = [value for _, value in base]
    b = [value for _, value in change]
    rate = win_rate(base, change, lower)
    bound = spec.get("bound")
    if bound is None:
        return "info", rate
    q1, median_a, q3 = quartiles(a)
    median_b = statistics.median(b)
    scale = abs(median_a) or 1.0
    worse = (median_b - median_a if lower else median_a - median_b) / scale
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if (q3 - q1) / scale > bound and not all_better:
        return "unresolved", rate
    if rate >= WIN_RATE_FOR_GAIN and -worse * scale > q3 - q1:
        return "improved", rate
    if worse > bound:
        return "regressed", rate
    return "unchanged", rate


def failed_runs(runs: list[dict]) -> list[str]:
    return [f"{run['workload']} seed {run['seed']} ({run['failed']} of "
            f"{run['attempted']} units failed)"
            for run in runs if run["failed"] or not run["correct"]]


def interleaved(base_runs: list[dict], change_runs: list[dict]) -> bool:
    """Whether the two sides' runs overlap in time."""
    a = [run["finished_at"] for run in base_runs if "finished_at" in run]
    b = [run["finished_at"] for run in change_runs if "finished_at" in run]
    return bool(a and b) and min(a) < max(b) and min(b) < max(a)


def compare(base_runs: list[dict], change_runs: list[dict],
            benchmark: dict) -> tuple[list[dict], list[str]]:
    """Rows of the comparison, plus reasons it could not be made."""
    problems = []
    hosts = {host_of(run) for run in base_runs + change_runs}
    if len(hosts) > 1:
        problems.append("results come from different hosts: "
                        + "; ".join(str(dict(zip(HOST_KEYS, host)))
                                    for host in sorted(hosts, key=str)))
    for side, runs in (("base", base_runs), ("change", change_runs)):
        failed = failed_runs(runs)
        if failed:
            problems.append(f"{side} has runs with failed units: "
                            + "; ".join(failed))
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    specs.update({m["name"]: m for m in benchmark["per_layer"]})
    base, change = series(base_runs), series(change_runs)
    base_raw, change_raw = series(base_runs, True), series(change_runs, True)
    judge_raw = interleaved(base_runs, change_runs)
    common = [key for key in base if key in change]
    if not common:
        problems.append("no (metric, workload) pair appears on both sides")
    rows = []
    for key in sorted(common, key=lambda k: (k[1], k[0])):
        metric, label = key
        spec = specs.get(metric, {})
        a, b = base[key], change[key]
        result, rate = verdict(a, b, spec)
        raw = None
        if result != "info" and key in base_raw and key in change_raw:
            raw, _ = verdict(base_raw[key], change_raw[key], spec)
        rows.append({"metric": metric, "workload": label,
                     "base": quartiles([v for _, v in a]), "base_n": len(a),
                     "change": quartiles([v for _, v in b]),
                     "change_n": len(b), "win_rate": rate,
                     "verdict": result, "raw_verdict": raw,
                     "flagged": judge_raw and raw == "regressed"
                                and result != "regressed"})
    return rows, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dvmbench.py compare",
        description="Judge a change's dvmbench results against a baseline.")
    parser.add_argument("base", type=Path, help="baseline result directory")
    parser.add_argument("change", type=Path, help="change result directory")
    args = parser.parse_args(argv)
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)
    if not base_runs or not change_runs:
        print("error: both directories need result files", file=sys.stderr)
        return 2
    rows, problems = compare(base_runs, change_runs,
                             json.loads(BENCHMARK.read_text()))
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<30} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'win':>5}  verdict (raw)")
    for row in rows:
        (b1, b2, b3), (c1, c2, c3) = row["base"], row["change"]
        raw = f" ({row['raw_verdict']})" if row["raw_verdict"] else ""
        flag = "  FLAG: regressed raw only" if row["flagged"] else ""
        print(f"{row['workload']:<14} {row['metric']:<30} "
              f"{b2:>12.5g} [{b1:.5g}, {b3:.5g}] n={row['base_n']:<3}"
              f"{c2:>12.5g} [{c1:.5g}, {c3:.5g}] n={row['change_n']:<3}"
              f"{row['win_rate']:>5.2f}  {row['verdict']}{raw}{flag}")
    if not interleaved(base_runs, change_runs):
        print("note: one side ran after the other, so raw verdicts include "
              "the host's drift and raise no flag; run the sides "
              "interleaved to judge raw times.")
    if any(row["flagged"] for row in rows):
        print("FLAG: raw host time regressed where the probe-rescaled time "
              "did not; look for work the change leaves running between "
              "rounds.")
    return 1 if any(row["verdict"] == "regressed" or row["flagged"]
                    for row in rows) else 0
