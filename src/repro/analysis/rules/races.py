"""RACE0xx: shared module state across the parent/worker fork boundary.

The sweep's workers are separate *processes*: module-level state is
copied at fork/spawn, and every mutation afterwards is process-local.
The per-file MP001 rule already covers mutations lexically inside a
worker-entry function; these rules use the whole-program context
classifier (:mod:`repro.analysis.contexts`) to cover the rest of the
call graph:

* **RACE001** — a function that can execute in a *worker* (or in both
  contexts) mutates a module-level container that parent-context code
  also touches.  The two sides see diverging copies: the parent's reads
  never observe the worker's writes, and scheduler decisions silently
  consume stale state.
* **RACE002** — a *worker-only* helper mutates module-level state that
  no parent code touches: a fork-captured snapshot mutated post-fork.
  The mutation dies with the process (the MP001 bug class, one call
  level deeper), so it must ship back through the pair payload /
  result queue instead.
* **RACE003** — a worker-reachable helper rebinds a module global
  (``global X; X = ...``).  Rebinding is invisible to every other
  process *and* to other call sites in the same worker that imported
  the name directly.

Mutation sites lexically inside the worker-entry functions themselves
are MP001's domain and skipped here; sanctioned shared-state owners
(observability registries, the journal/tracestore protocols, ``common/``)
are excluded by scope.
"""

from __future__ import annotations

import ast

from repro.analysis import config
from repro.analysis.core import (Finding, ProjectContext, ProjectRule,
                                 own_nodes, register)
from repro.analysis.contexts import BOTH, PARENT, WORKER, context_labels
from repro.analysis.graph import module_name, project_graph
from repro.analysis.rules.mp import _module_mutables, _MUTATORS


def _mutations(info, mutables):
    """(node, name) for each module-level-state mutation in this body."""
    for node in own_nodes(info.node):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in mutables:
            yield node, node.func.value.id
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = target
                    while isinstance(root, (ast.Subscript, ast.Attribute)):
                        root = root.value
                    if isinstance(root, ast.Name) \
                            and root.id in mutables:
                        yield node, root.id


def _touched(info, mutables) -> set[str]:
    """Module-level names this function reads or writes at all."""
    names: set[str] = set()
    local = {a.arg for a in (info.node.args.posonlyargs
                             + info.node.args.args
                             + info.node.args.kwonlyargs)}
    for node in own_nodes(info.node):
        if isinstance(node, ast.Name) and node.id in mutables \
                and node.id not in local:
            names.add(node.id)
    return names


class _RaceRule(ProjectRule):
    """Shared walk: classify, find mutation sites, dispatch per rule."""

    scope = config.RACES

    def check_project(self, project: ProjectContext):
        graph = project_graph(project)
        labels = context_labels(project)
        by_module: dict[str, list] = {}
        for qual, info in sorted(graph.functions.items()):
            by_module.setdefault(info.module, []).append(info)
        for mod in sorted(by_module):
            infos = by_module[mod]
            ctx = graph.modules[mod]
            if not self.scope.matches(ctx.relpath):
                continue
            mutables = _module_mutables(ctx.tree)
            parent_touch: set[str] = set()
            for info in infos:
                if labels[info.qualname] in (PARENT, BOTH):
                    parent_touch |= _touched(info, mutables)
            for info in infos:
                if info.name in config.WORKER_ENTRY_NAMES:
                    continue            # MP001's domain
                yield from self.check_function(ctx, info,
                                              labels[info.qualname],
                                              mutables, parent_touch)

    def check_function(self, ctx, info, label, mutables, parent_touch):
        return ()

    def finding(self, ctx, info, node, message) -> Finding:
        return Finding(rule=self.id, severity=self.severity,
                       path=ctx.relpath, line=node.lineno,
                       col=node.col_offset + 1, message=message,
                       snippet=ctx.line_text(node.lineno))


@register
class SharedStateRace(_RaceRule):
    """RACE001: worker-side mutation of state parent code also touches."""

    id = "RACE001"
    title = "module state mutated across the parent/worker boundary"
    rationale = ("workers are processes: a worker-side mutation of "
                 "state the scheduler parent also touches diverges "
                 "silently — the parent consumes a stale snapshot")

    def check_function(self, ctx, info, label, mutables, parent_touch):
        if label not in (WORKER, BOTH):
            return
        for node, name in _mutations(info, mutables):
            if name in parent_touch:
                yield self.finding(
                    ctx, info, node,
                    f"`{info.qualname}` can run in a worker process and "
                    f"mutates module-level `{name}`, which parent-context "
                    "code also touches; the two processes diverge — "
                    "route the update through the result queue / pair "
                    "payload and let the parent merge it")


@register
class ForkCapturedMutation(_RaceRule):
    """RACE002: worker-only mutation of fork-captured module state."""

    id = "RACE002"
    title = "fork-captured module state mutated in worker-only code"
    rationale = ("module state is copied at fork; a worker-only helper "
                 "mutating it updates a doomed snapshot — the MP001 bug "
                 "class one call level deeper")

    def check_function(self, ctx, info, label, mutables, parent_touch):
        if label != WORKER:
            return
        for node, name in _mutations(info, mutables):
            if name not in parent_touch:
                yield self.finding(
                    ctx, info, node,
                    f"`{info.qualname}` runs only in worker processes "
                    f"and mutates fork-captured module state `{name}`; "
                    "the mutation dies with the worker — ship it back "
                    "in the pair payload instead")


@register
class WorkerGlobalRebind(_RaceRule):
    """RACE003: worker-reachable helper rebinds a module global."""

    id = "RACE003"
    title = "module global rebound in worker-reachable code"
    rationale = ("a `global` rebind in a worker is invisible to the "
                 "parent and to from-imports of the old object; state "
                 "handoff must be explicit (payload/queue), not a "
                 "process-local rebind")

    def check_function(self, ctx, info, label, mutables, parent_touch):
        if label not in (WORKER, BOTH):
            return
        for node in own_nodes(info.node):
            if isinstance(node, ast.Global):
                for name in node.names:
                    yield self.finding(
                        ctx, info, node,
                        f"`{info.qualname}` is worker-reachable and "
                        f"rebinds module global `{name}`; the rebind is "
                        "process-local — return the new value and let "
                        "the caller thread it through explicitly")
