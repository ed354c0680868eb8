"""Eager identity vs demand faulting under memory pressure (Section 4.3).

The paper's central motivation is that accelerators cannot tolerate page
faults: a PRI-style fault service — request message, host interrupt, OS
handler, response — costs microseconds to milliseconds, versus
nanoseconds for a TLB miss.  DVM's eager identity mapping exists to keep
that path cold.  With the recoverable fault subsystem
(:mod:`repro.hw.fault_queue` + :mod:`repro.kernel.fault`) the cost is now
*measurable* instead of being a crash, and this study quantifies the
argument end-to-end:

* **DVM-PE, eager identity** — the paper's design: zero faults.
* **DVM-PE under reclaim pressure** — the OS swapped out part of the
  heap (Section 4.3.2's low-memory path); the accelerator's accesses to
  swapped pages fault and are serviced by demand swap-in mid-trace.
* **conv_4k, eager pre-fault** — the baseline as simulated so far
  (frames mapped at mmap time): zero faults.
* **conv_4k, demand faulting** — frames arrive only on first touch, the
  way a CPU-style demand-paged OS would run an accelerator; every cold
  chunk costs one full fault service.

Fault-bearing runs stay on the fast timing path: the engine delivers the
predicted faults through the real fault path and kernel handler, then
replays the trace batched, bit-identical to the scalar loops, so every
row here matches a scalar rerun and the fault-free rows stay
bit-identical to every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.algorithms import prop_bytes_for
from repro.core.config import demand_faulting_config
from repro.experiments.reporting import render_table
from repro.sim.metrics import execution_cycles
from repro.sim.runner import ExperimentRunner
from repro.sim.system import HeterogeneousSystem

#: Default pair: PageRank on the LiveJournal surrogate (a Table 1 input).
DEFAULT_PAIR = ("pagerank", "LJ")

#: Default fraction of the heap the reclaim-pressure row swaps out.
DEFAULT_RECLAIM_FRACTION = 0.5


@dataclass
class FaultModelRow:
    """One execution mode's fault profile and cost."""

    label: str
    faults: int
    major_faults: int
    swap_faults: int
    fault_stall_cycles: int
    normalized_time: float


def _row(label: str, system: HeterogeneousSystem, trace) -> FaultModelRow:
    timing = system.run_trace(trace)
    cycles, ideal = execution_cycles(timing, system.dram,
                                     mlp=system.params.mlp)
    return FaultModelRow(
        label=label,
        faults=timing.faults,
        major_faults=timing.major_faults,
        swap_faults=timing.swap_faults,
        fault_stall_cycles=timing.fault_stall_cycles,
        normalized_time=cycles / ideal if ideal else 0.0,
    )


def eager_vs_demand(runner: ExperimentRunner | None = None,
                    pair=DEFAULT_PAIR,
                    reclaim_fraction: float = DEFAULT_RECLAIM_FRACTION
                    ) -> list[FaultModelRow]:
    """The four execution modes on one workload; see the module docstring."""
    runner = runner or ExperimentRunner()
    prepared = runner.prepare(*pair)
    prop = prop_bytes_for(pair[0])
    trace = prepared.result.trace
    configs = runner.configs()
    rows = []

    eager_pe = HeterogeneousSystem(configs["dvm_pe"], runner.params)
    eager_pe.load_graph(prepared.graph, prop_bytes=prop)
    rows.append(_row("DVM-PE, eager identity", eager_pe, trace))

    pressured = HeterogeneousSystem(configs["dvm_pe"], runner.params)
    pressured.load_graph(prepared.graph, prop_bytes=prop)
    freed = pressured.apply_reclaim_pressure(reclaim_fraction)
    rows.append(_row(
        f"DVM-PE, {int(reclaim_fraction * 100)}% heap reclaimed "
        f"({freed >> 10} KB swapped)", pressured, trace))

    eager_4k = HeterogeneousSystem(configs["conv_4k"], runner.params)
    eager_4k.load_graph(prepared.graph, prop_bytes=prop)
    rows.append(_row("4K baseline, eager pre-fault", eager_4k, trace))

    demand = HeterogeneousSystem(demand_faulting_config(configs["conv_4k"]),
                                 runner.params)
    demand.load_graph(prepared.graph, prop_bytes=prop)
    rows.append(_row("4K baseline, demand faulting (cold touch)",
                     demand, trace))
    return rows


def render(rows: list[FaultModelRow]) -> str:
    """Render the study as a table."""
    table_rows = [
        [r.label, str(r.faults), str(r.major_faults), str(r.swap_faults),
         f"{r.fault_stall_cycles / 1000:.0f}k", f"{r.normalized_time:.3f}"]
        for r in rows
    ]
    return render_table(
        ["Execution mode", "Faults", "Major", "Swap-in",
         "Fault stall (cyc)", "Norm. time"],
        table_rows,
        title="Fault model: eager identity vs demand faulting (Section 4.3)")


def main(profile: str = "full") -> str:
    """Run and print the eager-vs-demand fault study.

    The runner is wired from the environment so the study shares the
    sweep service's artifact cache (``REPRO_CACHE_DIR``) — its trace is
    restored from the memmapped store a figure sweep already published
    instead of being rematerialized.
    """
    runner = ExperimentRunner.from_env(profile=profile)
    text = render(eager_vs_demand(runner))
    print(text)
    return text


if __name__ == "__main__":
    main()
