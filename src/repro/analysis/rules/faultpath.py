"""FAULT: guest faults travel the delivery protocol, never bare raises.

PR 3 converted every IOMMU raise site to resumable fault delivery
(`hw/fault_queue.FaultPath`): a fault is delivered, serviced by the kernel
handler, and the access resumes — a bare ``raise PageFault`` is only
legal as the legacy path when no fault path is attached.  Similarly,
broad ``except`` clauses would swallow the structured error taxonomy
(``common/errors.py``) that sweep containment and the retry tiers
dispatch on.
"""

from __future__ import annotations

import ast

from repro.analysis import config
from repro.analysis.core import ModuleContext, Rule, register
from repro.analysis.rules._ast_util import guarded_by, mentions_attr

#: Fault exceptions owned by the delivery protocol.
_PROTOCOL_FAULTS = frozenset({"PageFault", "ProtectionFault"})

#: Over-broad handler types that swallow the taxonomy.
_BROAD = frozenset({"Exception", "BaseException"})


def _exc_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register
class BareFaultRaise(Rule):
    """FAULT001: raising a guest fault outside the delivery protocol."""

    id = "FAULT001"
    title = "bare PageFault/ProtectionFault raise in IOMMU code"
    rationale = ("IOMMU faults must go through FaultPath delivery so the "
                 "access can resume; a bare raise is only the legacy path "
                 "behind an explicit `fault_path is None` check")
    scope = config.IOMMU

    def check_module(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            name = _exc_name(target)
            if name not in _PROTOCOL_FAULTS:
                continue
            if guarded_by(ctx, node,
                          lambda test: mentions_attr(test, "fault_path")):
                continue
            yield ctx.finding(self, node,
                              f"bare `raise {name}` outside the FaultPath "
                              "delivery protocol; deliver through the "
                              "fault path (or guard the legacy raise with "
                              "`if self.fault_path is None:`)")


@register
class TaxonomySwallowed(Rule):
    """FAULT002: broad except clause that swallows the error taxonomy."""

    id = "FAULT002"
    title = "bare/broad except swallowing the error taxonomy"
    rationale = ("resilience tiers dispatch on common/errors.py "
                 "(TransientError vs fatal); `except:` or `except "
                 "Exception` re-classifies everything as recoverable and "
                 "masks programming errors")
    scope = config.LIBRARY_AND_DRIVERS

    def check_module(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._broad(node.type):
                continue
            if self._reraises(node):
                continue
            caught = "except:" if node.type is None else \
                f"except {_exc_name(node.type) or '...'}"
            yield ctx.finding(self, node,
                              f"`{caught}` swallows the common/errors.py "
                              "taxonomy; catch the narrowest library "
                              "error (or re-raise)")

    @staticmethod
    def _broad(type_node: ast.AST | None) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(_exc_name(el) in _BROAD for el in type_node.elts)
        return _exc_name(type_node) in _BROAD

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(sub, ast.Raise) and sub.exc is None
                   for stmt in handler.body for sub in ast.walk(stmt))
