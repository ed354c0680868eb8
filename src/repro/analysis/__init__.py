"""dvmlint: repo-aware static analysis for the DVM reproduction.

The simulator's headline guarantees — bit-identical sweeps across
engines, workers and chaos seeds; resumable fault delivery instead of
bare raises; zero-overhead-when-disabled instrumentation — are semantic
*invariants*, not properties any general-purpose linter knows about.
This package is an AST-level analysis pass that proves them at every
call site on every change, before a single simulation cycle runs:

* **DET** — nondeterminism in simulation code (unseeded RNGs, wall-clock
  reads, ``id()``-derived keys, unordered iteration feeding digests);
* **FAULT** — bare ``PageFault``/``ProtectionFault`` raises outside the
  ``FaultPath`` delivery protocol, and broad ``except`` clauses that
  swallow the ``common/errors.py`` taxonomy;
* **OBS** — observability calls in hot modules missing the module-level
  ``ENABLED`` guard (the zero-overhead-when-disabled contract);
* **ENV** — environment reads outside ``common/`` and drift between the
  ``REPRO_*`` knobs used in code and ``docs/configuration.md``;
* **MP** — module-level mutable state rebound inside pool-worker entry
  code without being shipped back through the pair payload.

Run it with ``python -m repro.analysis`` (or ``make analyze``); see
``docs/static-analysis.md`` for the rule catalog and the inline
suppression directives.
"""

from repro.analysis.core import (Finding, ModuleContext, ProjectRule, Rule,
                                 Scope, all_rules, get_rule, register)
from repro.analysis.engine import Result, run_analysis

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Result",
    "Rule",
    "Scope",
    "all_rules",
    "get_rule",
    "register",
    "run_analysis",
]
