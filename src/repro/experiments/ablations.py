"""Ablations of DVM's design choices (DESIGN.md experiment index).

Three studies isolating the mechanisms behind the paper's results:

* **AVC size sweep** — Section 4.1.2 claims "even a small 128-entry (1 KB)
  AVC has very high hit rates" *because* PEs shrink the page tables.  The
  sweep shows DVM-PE overhead as the AVC shrinks/grows.
* **PE contribution** — runs the DVM configuration with Permission Entries
  disabled (identity 4 KB PTEs under the same AVC), separating the win of
  compact tables from the win of caching all levels.
* **Bitmap-cache sweep** — DVM-BM's gap to DVM-PE is a reach problem
  (Section 6.3.1); sweeping its cache size shows the crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import (
    MMUConfig,
    standard_configs,
    two_level_tlb_config,
)
from repro.experiments.reporting import render_table
from repro.kernel.vm_syscalls import MemPolicy
from repro.sim.runner import ExperimentRunner

#: Default pair: PageRank on the LiveJournal surrogate (a Table 1 input).
DEFAULT_PAIR = ("pagerank", "LJ")


@dataclass
class AblationRow:
    """One ablation point."""

    label: str
    normalized_time: float
    energy_pj: float
    walk_mem_accesses: int


def _run(runner: ExperimentRunner, config: MMUConfig,
         label: str, pair=DEFAULT_PAIR) -> AblationRow:
    metrics = runner.run(pair[0], pair[1], config)
    return AblationRow(label=label,
                       normalized_time=metrics.normalized_time,
                       energy_pj=metrics.energy_pj,
                       walk_mem_accesses=metrics.walk_mem_accesses)


def avc_size_sweep(runner: ExperimentRunner | None = None,
                   sizes=(4, 8, 16, 32, 64),
                   pair=DEFAULT_PAIR) -> list[AblationRow]:
    """DVM-PE under different AVC capacities (in 64 B blocks)."""
    runner = runner or ExperimentRunner()
    base = runner.configs()["dvm_pe"]
    rows = []
    for blocks in sizes:
        ways = min(4, blocks)
        config = replace(base, name=f"dvm_pe_avc{blocks}",
                         walk_cache_blocks=blocks, walk_cache_ways=ways)
        rows.append(_run(runner, config, f"AVC {blocks} blocks "
                                         f"({blocks * 8} entries)", pair))
    return rows


def pe_contribution(runner: ExperimentRunner | None = None,
                    pair=DEFAULT_PAIR) -> list[AblationRow]:
    """DVM with and without Permission Entries, same AVC.

    Without PEs the page tables keep one L1 PTE per 4 KB page; the AVC
    working set explodes and walks start touching memory — quantifying how
    much of DVM-PE's win is the compact representation itself.
    """
    runner = runner or ExperimentRunner()
    base = runner.configs()["dvm_pe"]
    no_pe = replace(base, name="dvm_nope",
                    policy=MemPolicy(mode="dvm", use_pes=False))
    return [
        _run(runner, base, "DVM + Permission Entries", pair),
        _run(runner, no_pe, "DVM + 4K identity PTEs (no PEs)", pair),
    ]


def related_work_comparison(runner: ExperimentRunner | None = None,
                            pair=DEFAULT_PAIR) -> list[AblationRow]:
    """DVM vs the related-work IOMMU baseline (Section 8).

    Cong et al.'s two-level IOMMU TLB reaches within 6.4% of ideal on
    regular workloads; the paper argues TLB hierarchies remain ineffective
    for irregular access patterns — this comparison runs both against the
    same irregular graph workload.
    """
    runner = runner or ExperimentRunner()
    configs = runner.configs()
    scale = runner.scale
    return [
        _run(runner, configs["conv_4k"], "single-level TLB + PWC", pair),
        _run(runner, two_level_tlb_config(scale),
             "two-level TLB + PWC (Cong et al.)", pair),
        _run(runner, configs["dvm_pe_plus"], "DVM-PE+", pair),
    ]


def pe_format_comparison(runner: ExperimentRunner | None = None,
                         pair=DEFAULT_PAIR) -> list[AblationRow]:
    """The paper's PE format vs the spare-PTE-bits alternative.

    Section 4.1.1's "Alternatives": reusing unused PTE bits gives only four
    512 KB regions at L2 (eight 128 MB at L3), so identity ranges need
    512 KB alignment/size to avoid falling back to L1 PTEs — coarser
    coverage, bigger tables, more AVC pressure.
    """
    runner = runner or ExperimentRunner()
    base = runner.configs()["dvm_pe"]
    spare = replace(base, name="dvm_pe_spare",
                    policy=MemPolicy(mode="dvm", use_pes=True,
                                     pe_format="spare_bits"))
    return [
        _run(runner, base, "16-field Permission Entries (new format)", pair),
        _run(runner, spare, "spare PTE bits (4 regions at L2)", pair),
    ]


def bitmap_cache_sweep(runner: ExperimentRunner | None = None,
                       sizes=(8, 16, 32, 64, 128),
                       pair=DEFAULT_PAIR) -> list[AblationRow]:
    """DVM-BM under different bitmap-cache capacities (8 B words)."""
    runner = runner or ExperimentRunner()
    base = runner.configs()["dvm_bm"]
    rows = []
    for words in sizes:
        config = replace(base, name=f"dvm_bm_{words}",
                         bitmap_cache_blocks=words)
        rows.append(_run(runner, config,
                         f"bitmap cache {words} words (reach "
                         f"{words * 128 // 1024} MB)", pair))
    return rows


def energy_sensitivity(runner: ExperimentRunner | None = None,
                       tlb_fa_costs=(10.0, 20.0, 40.0, 80.0),
                       pair=DEFAULT_PAIR) -> list[AblationRow]:
    """Figure 9's conclusion under different FA-TLB energy assumptions.

    Our CACTI-like table fixes the FA-TLB : SRAM access-energy ratio; this
    sweep recomputes DVM-PE's energy saving over the 4K baseline for a
    range of ratios, showing the *ordering* is insensitive to the exact
    CACTI numbers (only the saving's magnitude moves).
    """
    from repro.hw.energy import DEFAULT_ENERGY_PJ, EnergyModel

    runner = runner or ExperimentRunner()
    configs = runner.configs()
    base_4k = runner.run(pair[0], pair[1], configs["conv_4k"])
    base_pe = runner.run(pair[0], pair[1], configs["dvm_pe"])
    rows = []
    for cost in tlb_fa_costs:
        table = dict(DEFAULT_ENERGY_PJ)
        table["tlb_fa_lookup"] = cost
        model = EnergyModel(table=table)
        # Recost both configurations' recorded events under this table.
        e4k = sum(model.cost(ev) * n
                  for ev, n in base_4k_events(runner, pair).items())
        epe = sum(model.cost(ev) * n
                  for ev, n in base_pe_events(runner, pair).items())
        rows.append(AblationRow(
            label=f"FA TLB {cost:.0f} pJ (ratio {cost / 2:.0f}:1): "
                  f"DVM-PE at {epe / e4k * 100:.0f}% of 4K energy",
            normalized_time=epe / e4k,
            energy_pj=epe,
            walk_mem_accesses=base_pe.walk_mem_accesses,
        ))
    return rows


def base_4k_events(runner: ExperimentRunner, pair) -> dict[str, int]:
    """Event counts of the cached conv_4k run (for recosting)."""
    return _events_for(runner, pair, "conv_4k")


def base_pe_events(runner: ExperimentRunner, pair) -> dict[str, int]:
    """Event counts of the cached dvm_pe run (for recosting)."""
    return _events_for(runner, pair, "dvm_pe")


def _events_for(runner: ExperimentRunner, pair,
                config_name: str) -> dict[str, int]:
    # Metrics don't retain event counts, so re-simulate once through a
    # fresh system; the runner's caches make repeated calls cheap for the
    # metrics themselves, and this path is only used by the sweep.
    from repro.accel.algorithms import prop_bytes_for
    from repro.sim.system import HeterogeneousSystem

    key = ("_events", pair, config_name)
    cached = runner._metrics.get(key)
    if cached is not None:
        return cached
    prepared = runner.prepare(*pair)
    system = HeterogeneousSystem(runner.configs()[config_name],
                                 runner.params)
    system.load_graph(prepared.graph, prop_bytes=prop_bytes_for(pair[0]))
    stats = system.run_trace(prepared.result.trace)
    events = dict(stats.energy.events)
    runner._metrics[key] = events
    return events


def scratchpad_sensitivity(runner: ExperimentRunner | None = None,
                           pair=DEFAULT_PAIR) -> list[AblationRow]:
    """VM overheads with Graphicionado's on-chip scratchpad restored.

    The real Graphicionado keeps destination-side temporary properties in
    on-chip eDRAM; the paper evaluates the accelerator *without* a
    scratchpad (Section 6.1), which routes the irregular reduce stream
    through the MMU.  Restoring the scratchpad (dropping the temp stream
    from the memory trace) shows how much of each configuration's overhead
    that one stream causes — and that DVM wins either way.
    """
    from repro.accel import trace as T
    from repro.accel.algorithms import prop_bytes_for
    from repro.accel.trace import SymbolicTrace
    from repro.sim.system import HeterogeneousSystem

    runner = runner or ExperimentRunner()
    prepared = runner.prepare(*pair)
    full = prepared.result.trace
    mask = full.streams != T.VPROP_TMP
    scratch = SymbolicTrace(streams=full.streams[mask],
                            offsets=full.offsets[mask],
                            writes=full.writes[mask])
    rows = []
    for name in ("conv_4k", "dvm_pe_plus"):
        config = runner.configs()[name]
        for label, trace in (("no scratchpad (paper)", full),
                             ("with scratchpad", scratch)):
            system = HeterogeneousSystem(config, runner.params)
            system.load_graph(prepared.graph,
                              prop_bytes=prop_bytes_for(pair[0]))
            metrics = system.run(trace, workload=pair[0], graph=pair[1])
            rows.append(AblationRow(
                label=f"{config.label}, {label}",
                normalized_time=metrics.normalized_time,
                energy_pj=metrics.energy_pj,
                walk_mem_accesses=metrics.walk_mem_accesses,
            ))
    return rows


def render(title: str, rows: list[AblationRow]) -> str:
    """Render one ablation as a table."""
    table_rows = [
        [r.label, f"{r.normalized_time:.3f}",
         f"{(r.normalized_time - 1) * 100:.1f}%", str(r.walk_mem_accesses)]
        for r in rows
    ]
    return render_table(
        ["Design point", "Norm. time", "VM overhead", "Walk mem accesses"],
        table_rows, title=title)


def main(profile: str = "full") -> str:
    """Run all three ablations on one shared runner."""
    runner = ExperimentRunner.from_env(profile=profile)
    parts = [
        render("Ablation: AVC capacity (DVM-PE)", avc_size_sweep(runner)),
        render("Ablation: Permission Entries' contribution",
               pe_contribution(runner)),
        render("Ablation: PE format vs spare PTE bits (Section 4.1.1)",
               pe_format_comparison(runner)),
        render("Ablation: bitmap-cache capacity (DVM-BM)",
               bitmap_cache_sweep(runner)),
        render("Related work: two-level IOMMU TLB vs DVM (Section 8)",
               related_work_comparison(runner)),
        render("Ablation: Graphicionado scratchpad sensitivity",
               scratchpad_sensitivity(runner)),
        render("Ablation: energy-table sensitivity (Figure 9 robustness)",
               energy_sensitivity(runner)),
    ]
    text = "\n\n".join(parts)
    print(text)
    return text


if __name__ == "__main__":
    main()
