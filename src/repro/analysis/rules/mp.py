"""MP: pool workers must ship state back; pools live in one place.

PR 4 fixed (by hand) a bug class this family now checks mechanically: a
process-pool worker that mutates module-level state — a registry, a
cache dict, a counter — loses that state when the process exits unless
it is shipped back through the task payload and merged by the parent
(``SweepService._fold``).  MP001 flags module-level
mutable state rebound or mutated inside worker-entry code whose name
never reaches a ``return``; MP002 keeps worker-process creation inside
the supervised sweep scheduler, where liveness supervision and
retry/rebuild/merge determinism live.
"""

from __future__ import annotations

import ast

from repro.analysis import config
from repro.analysis.core import ModuleContext, Rule, WARNING, register

#: Mutating method names on module-level containers/registries.
_MUTATORS = frozenset({
    "append", "extend", "add", "update", "clear", "pop", "popitem",
    "remove", "discard", "insert", "setdefault", "merge", "reset",
})

#: Pool constructors sanctioned only inside the resilience runner.
_POOL_CALLS = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.get_context",
})


def _module_mutables(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers or instances."""
    names: set[str] = set()
    for stmt in tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp, ast.Call)):
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _worker_entries(ctx: ModuleContext) -> list[ast.FunctionDef]:
    """Module-level functions that run inside pool worker processes.

    A function qualifies if its name is a configured worker entry or if
    the module submits it to a pool (``<pool>.submit(fn, ...)``).
    """
    submitted: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "submit" and node.args \
                and isinstance(node.args[0], ast.Name):
            submitted.add(node.args[0].id)
    return [node for node in ctx.tree.body
            if isinstance(node, ast.FunctionDef)
            and (node.name in config.WORKER_ENTRY_NAMES
                 or node.name in submitted)]


def _returned_names(func: ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    return names


@register
class WorkerStateNotShipped(Rule):
    """MP001: worker-entry code mutating module state it never returns."""

    id = "MP001"
    title = "module-level mutable state mutated in worker-entry code"
    rationale = ("state mutated inside a pool worker dies with the "
                 "process unless shipped back through the pair payload "
                 "and merged by the parent (the registry-merge bug class)")
    scope = config.SRC_ONLY

    def check_module(self, ctx: ModuleContext):
        mutables = _module_mutables(ctx.tree)
        for func in _worker_entries(ctx):
            returned = _returned_names(func)
            for node in ast.walk(func):
                yield from self._check_node(ctx, node, mutables, returned)

    def _check_node(self, ctx, node, mutables, returned):
        # `global X` rebinding a module-level name.
        if isinstance(node, ast.Global):
            for name in node.names:
                if name not in returned:
                    yield ctx.finding(self, node,
                                      f"worker-entry code rebinds module "
                                      f"global `{name}`; the new value "
                                      "dies with the worker unless "
                                      "shipped back in the pair payload")
            return
        # X[...] = v / X.attr = v on a module-level container (a bare
        # `X = v` without `global` is just a local rebinding — harmless).
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if not isinstance(target, (ast.Subscript, ast.Attribute)):
                    continue
                root = self._subscript_root(target)
                if root is not None:
                    yield from self._flag(ctx, node, root, mutables,
                                          returned)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS:
            owner = node.func.value
            if isinstance(owner, ast.Name):
                yield from self._flag(ctx, node, owner.id, mutables,
                                      returned)
            elif isinstance(owner, ast.Attribute) \
                    and owner.attr.isupper() \
                    and ctx.dotted(owner.value) is not None:
                # mod.REGISTRY.update(...) — mutating another module's
                # ALL_CAPS global from inside the worker.
                if owner.attr not in returned:
                    yield ctx.finding(self, node,
                                      f"worker-entry code mutates "
                                      f"`{ctx.dotted(owner.value)}."
                                      f"{owner.attr}`; ship it back in "
                                      "the pair payload (the parent "
                                      "merges it) or the mutation is "
                                      "lost")

    @staticmethod
    def _subscript_root(target: ast.AST) -> str | None:
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        if isinstance(target, ast.Name):
            return target.id
        return None

    def _flag(self, ctx, node, name, mutables, returned):
        if name in mutables and name not in returned:
            yield ctx.finding(self, node,
                              f"worker-entry code mutates module-level "
                              f"`{name}` without returning it; pool "
                              "workers must ship mutated state back in "
                              "the pair payload")


@register
class PoolOutsideRunner(Rule):
    """MP002: process-pool creation outside the resilience runner."""

    id = "MP002"
    title = "worker processes created outside sweep/scheduler.py"
    severity = WARNING
    rationale = ("sweep/scheduler.py owns worker lifecycle (liveness "
                 "supervision, retry, rebuild, payload merge, "
                 "deterministic result order); ad-hoc pools bypass all "
                 "five")
    scope = config.POOLS

    def check_module(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = ctx.dotted(node.func)
                if name in _POOL_CALLS:
                    yield ctx.finding(self, node,
                                      f"{name}() outside the resilience "
                                      "runner; route parallel work "
                                      "through ExperimentRunner.run_pairs")
