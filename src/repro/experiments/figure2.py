"""Figure 2: TLB miss rates for graph workloads (4 KB vs huge pages).

The paper motivates DVM by showing ~21% average miss rates in a 128-entry
fully-associative TLB across the graph workloads, with 2 MB pages helping
by only ~1% on average — except Netflix, whose bipartite skew gives it
near-perfect locality at huge pages.

The reproduction reads the miss rates straight out of the conventional
configurations' runs (the same runs Figures 8/9 use), at the scaled TLB
and analog page sizes recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import env, faults
from repro.experiments.reporting import render_table
from repro.graphs.datasets import WORKLOAD_PAIRS
from repro.sim.runner import ExperimentRunner


@dataclass
class Figure2Row:
    """One (workload, graph) bar pair of Figure 2."""

    workload: str
    graph: str
    miss_rate_4k: float
    miss_rate_2m: float


def figure2(runner: ExperimentRunner | None = None,
            pairs=None) -> list[Figure2Row]:
    """Compute the Figure 2 series; reuses the runner's cached runs."""
    runner = runner or ExperimentRunner()
    pairs = pairs if pairs is not None else WORKLOAD_PAIRS
    configs = runner.configs()
    rows = []
    for workload, dataset in pairs:
        results = runner.run_pair_configs(
            workload, dataset,
            {name: configs[name] for name in ("conv_4k", "conv_2m")})
        if results is None:   # quarantined guest violation; row skipped
            continue
        rows.append(Figure2Row(
            workload=workload, graph=dataset,
            miss_rate_4k=results["conv_4k"].tlb_miss_rate,
            miss_rate_2m=results["conv_2m"].tlb_miss_rate))
    return rows


def render(rows: list[Figure2Row]) -> str:
    """Render Figure 2 as a table plus the averages the paper quotes."""
    table_rows = [
        [r.workload, r.graph, f"{r.miss_rate_4k * 100:.1f}%",
         f"{r.miss_rate_2m * 100:.1f}%"]
        for r in rows
    ]
    avg4k = sum(r.miss_rate_4k for r in rows) / len(rows)
    avg2m = sum(r.miss_rate_2m for r in rows) / len(rows)
    table_rows.append(["average", "", f"{avg4k * 100:.1f}%",
                       f"{avg2m * 100:.1f}%"])
    return render_table(
        ["Workload", "Graph", "4K pages", "2M pages (analog)"], table_rows,
        title="Figure 2: TLB miss rates (scaled TLB; paper: 21% avg at 4K)",
    )


def main(profile: str = "full") -> str:
    """Regenerate Figure 2 and return its rendering.

    Honors ``REPRO_WORKERS`` (parallel pair execution) and
    ``REPRO_CACHE_DIR`` (persistent trace/metrics artifacts).
    """
    runner = ExperimentRunner.from_env(profile=profile)
    workers = env.workers()
    if workers > 1:
        # Figure 2 only reads the conventional TLBs, but the warmed cache
        # is shared with Figures 8/9, so run the full matrix.
        runner.run_pairs(workers=workers)
    text = render(figure2(runner))
    print(text)
    if runner.resilience.events() or faults.active():
        print(runner.resilience.render())
    return text


if __name__ == "__main__":
    main()
