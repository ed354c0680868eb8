"""Figure 9: dynamic MMU energy, normalized to the 4K baseline.

The paper computes the dynamic energy spent on memory management — TLB
accesses, PWC/AVC accesses and the walker's memory accesses — and shows
DVM-PE consuming 3.9x less than the 2 MB conventional configuration (76%
below the 4 KB baseline), mostly from eliminating the fully-associative
TLB; DVM-BM saves ~15% (bitmap-cache misses cost memory energy); squashed
preloads add slightly to DVM-PE+.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import env, faults
from repro.experiments.reporting import geometric_mean, render_table
from repro.graphs.datasets import WORKLOAD_PAIRS
from repro.sim.runner import ExperimentRunner

#: Figure 9's bar order (energies normalized to conv_4k).
CONFIG_ORDER = ("conv_2m", "conv_1g", "dvm_bm", "dvm_pe", "dvm_pe_plus")


@dataclass
class Figure9Row:
    """Normalized MMU dynamic energy of one (workload, graph) group."""

    workload: str
    graph: str
    normalized: dict[str, float]    # config name -> energy / conv_4k energy


def figure9(runner: ExperimentRunner | None = None,
            pairs=None) -> list[Figure9Row]:
    """Compute the Figure 9 series (reuses Figure 8's cached runs)."""
    runner = runner or ExperimentRunner()
    pairs = pairs if pairs is not None else WORKLOAD_PAIRS
    configs = runner.configs()
    rows = []
    for workload, dataset in pairs:
        wanted = {name: configs[name]
                  for name in dict.fromkeys(("conv_4k", *CONFIG_ORDER))}
        results = runner.run_pair_configs(workload, dataset, wanted)
        if results is None:   # quarantined guest violation; row skipped
            continue
        baseline = results["conv_4k"].energy_pj
        normalized = {
            name: (results[name].energy_pj / baseline if baseline else 0.0)
            for name in CONFIG_ORDER
        }
        rows.append(Figure9Row(workload=workload, graph=dataset,
                               normalized=normalized))
    return rows


def averages(rows: list[Figure9Row]) -> dict[str, float]:
    """Geometric-mean normalized energy per configuration."""
    return {
        name: geometric_mean([r.normalized[name] for r in rows])
        for name in CONFIG_ORDER
    }


def headline(rows: list[Figure9Row]) -> dict[str, float]:
    """Headline numbers: DVM-PE's reduction vs 4K (paper: 76%) and its
    advantage over 2M (paper: 3.9x)."""
    avg = averages(rows)
    return {
        "pe_reduction_vs_4k": 1.0 - avg["dvm_pe"],
        "pe_vs_2m": avg["conv_2m"] / avg["dvm_pe"],
        "bm_reduction_vs_4k": 1.0 - avg["dvm_bm"],
    }


def render(rows: list[Figure9Row]) -> str:
    """Render Figure 9 as a table with the geometric-mean row."""
    labels = {"conv_2m": "2M", "conv_1g": "1G", "dvm_bm": "DVM-BM",
              "dvm_pe": "DVM-PE", "dvm_pe_plus": "DVM-PE+"}
    table_rows = [
        [r.workload, r.graph]
        + [f"{r.normalized[name]:.3f}" for name in CONFIG_ORDER]
        for r in rows
    ]
    avg = averages(rows)
    table_rows.append(["geomean", ""]
                      + [f"{avg[name]:.3f}" for name in CONFIG_ORDER])
    head = headline(rows)
    title = ("Figure 9: MMU dynamic energy normalized to 4K "
             f"(DVM-PE {head['pe_reduction_vs_4k'] * 100:.0f}% below 4K, "
             f"{head['pe_vs_2m']:.1f}x below 2M)")
    return render_table(["Workload", "Graph"]
                        + [labels[name] for name in CONFIG_ORDER],
                        table_rows, title=title)


def main(profile: str = "full") -> str:
    """Regenerate Figure 9 and return its rendering.

    Honors ``REPRO_WORKERS`` (parallel pair execution) and
    ``REPRO_CACHE_DIR`` (persistent trace/metrics artifacts).
    """
    runner = ExperimentRunner.from_env(profile=profile)
    workers = env.workers()
    if workers > 1:
        runner.run_pairs(workers=workers)   # warm the caches in parallel
    text = render(figure9(runner))
    print(text)
    if runner.resilience.events() or faults.active():
        print(runner.resilience.render())
    return text


if __name__ == "__main__":
    main()
