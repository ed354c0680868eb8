"""The supervised sweep service (ROADMAP item 5).

One scheduler for every experiment matrix the repo runs — figure pairs,
the fault-model ablation, nightly fuzz seed shards, chaos probes — with
work stealing, an event-driven supervisor with heartbeat liveness
checks, one pool-wide rebuild budget, hedged retries, a crash-consistent
fsynced journal, a sharded content-addressed cache and zero-copy
(memmap) trace sharing.  See
``docs/sweep.md`` for the architecture and recovery semantics.

Submodules (imported directly to keep import-time dependencies narrow —
this package ``__init__`` must not pull in the scheduler, which imports
:mod:`repro.sim.resilience`):

* :mod:`repro.sweep.journal` — fenced append-only checkpoint journal
* :mod:`repro.sweep.cache` — sharded content-addressed artifact layout
* :mod:`repro.sweep.tracestore` — memmapped symbolic-trace publication
* :mod:`repro.sweep.tasks` — task model, executors, worker entry
* :mod:`repro.sweep.scheduler` — the supervisor (:class:`SweepService`)
* :mod:`repro.sweep.cli` — ``python -m repro sweep``
"""
