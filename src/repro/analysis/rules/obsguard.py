"""OBS: zero-overhead-when-disabled is a contract, not a convention.

PR 4's observability subsystem guarantees that a disabled run executes
*zero* additional per-access work: every recording call in a hot module
sits behind one module-level boolean load (``if obs_core.ENABLED:``).
The recording helpers are null-safe, so an unguarded call *works* — it
just silently costs a function call and a registry lookup per event,
eroding the contract one call site at a time.  OBS001 keeps the guard
mandatory where it matters.

OBS002 is the inverse contract, one layer up: the sweep scheduler's
observable *surface* must stay complete.  Every scheduler state
transition is marked by a ``ResilienceReport`` counter bump
(``self.report.steals += 1`` and friends); since PR 9 each such
transition must also narrate itself onto the event bus (``self._emit``)
so live consumers — ``repro top``, ``SweepWatch`` — see the same story
the post-mortem report tells.  A counter bumped in a function that
emits nothing is a transition the dashboards silently miss.
"""

from __future__ import annotations

import ast

from repro.analysis import config
from repro.analysis.core import (FUNCTION_DEFS, ModuleContext, Rule,
                                 own_nodes, register)
from repro.analysis.rules._ast_util import (attr_access, call_name,
                                            guarded_by)


@register
class UnguardedObsCall(Rule):
    """OBS001: recording call in a hot module without the ENABLED guard."""

    id = "OBS001"
    title = "unguarded observability recording call in a hot module"
    rationale = ("hot modules must pay exactly one boolean load when "
                 "observability is off; unguarded recording calls erode "
                 "the zero-overhead-when-disabled contract")
    scope = config.HOT_PATH

    def check_module(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(ctx, node)
            if name is None or not self._recording(name):
                continue
            if guarded_by(ctx, node, lambda test: self._guard(ctx, test)):
                continue
            yield ctx.finding(self, node,
                              f"{name}() records without an `if "
                              "obs_core.ENABLED:` guard; wrap it so "
                              "disabled runs pay one boolean load")

    @staticmethod
    def _recording(name: str) -> bool:
        return name in config.OBS_RECORDING_CALLS \
            or name.startswith(config.OBS_RECORDING_PREFIXES)

    @staticmethod
    def _guard(ctx: ModuleContext, test: ast.AST) -> bool:
        if attr_access(test, config.OBS_CORE_MODULE, "ENABLED", ctx):
            return True
        # `if obs_core.enabled():` is an acceptable (slightly slower) guard.
        for sub in ast.walk(test):
            if isinstance(sub, ast.Call) \
                    and call_name(ctx, sub) == \
                    f"{config.OBS_CORE_MODULE}.enabled":
                return True
        return False


#: Call names that count as narrating onto the event bus.
_EMIT_NAMES = frozenset({"_emit", "emit"})


@register
class SilentSchedulerTransition(Rule):
    """OBS002: scheduler state transition without a bus event."""

    id = "OBS002"
    title = "scheduler state transition emits no bus event"
    rationale = ("every ResilienceReport counter bump marks a scheduler "
                 "state transition; a function that bumps a counter but "
                 "never emits onto the event bus is a transition "
                 "`repro top` and SweepWatch consumers silently miss")
    scope = config.SCHED_TRANSITIONS

    def check_module(self, ctx: ModuleContext):
        for scope in ast.walk(ctx.tree):
            if not isinstance(scope, FUNCTION_DEFS):
                continue
            nodes = own_nodes(scope)
            transitions = [n for n in nodes if self._transition(n)]
            if not transitions or any(self._emits(n) for n in nodes):
                continue
            for node in transitions:
                counter = node.target.attr
                yield ctx.finding(self, node,
                                  f"report.{counter} bumped in "
                                  f"{scope.name}() with no bus emit; "
                                  "narrate the transition (self._emit(...)"
                                  ") so live consumers see it")

    @staticmethod
    def _transition(node: ast.AST) -> bool:
        """``<anything>.report.<counter> += ...``"""
        return (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Attribute)
                and node.target.value.attr == "report")

    @staticmethod
    def _emits(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _EMIT_NAMES)
