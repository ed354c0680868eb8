"""Shared AST helpers for rule implementations."""

from __future__ import annotations

import ast

from repro.analysis.core import ModuleContext


def call_name(ctx: ModuleContext, node: ast.Call) -> str | None:
    """Import-resolved dotted path of a call target, if resolvable."""
    return ctx.dotted(node.func)


def guarded_by(ctx: ModuleContext, node: ast.AST, test_matches) -> bool:
    """Whether ``node`` sits under an ``if``/conditional whose test
    satisfies ``test_matches`` (a predicate over the test expression).

    Covers ``if COND:`` blocks (the body only — the ``else`` branch is
    the *unguarded* side), ``x if COND else y`` conditional expressions,
    and ``COND and expr`` short circuits.  Ancestry is lexical, which is
    exactly the contract: the guard must be visible at the call site.
    """
    child = node
    for parent in ctx.ancestors(node):
        if isinstance(parent, ast.If) and child in parent.body \
                and test_matches(parent.test):
            return True
        if isinstance(parent, ast.IfExp) and child is parent.body \
                and test_matches(parent.test):
            return True
        if isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.And) \
                and child in parent.values:
            index = parent.values.index(child)
            if index > 0 and any(test_matches(v)
                                 for v in parent.values[:index]):
                return True
        child = parent
    return False


def attr_access(test: ast.AST, module_dotted: str, attr: str,
                ctx: ModuleContext) -> bool:
    """Does ``test`` reference ``<module>.<attr>`` anywhere?"""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == attr \
                and ctx.dotted(sub.value) == module_dotted:
            return True
        if isinstance(sub, ast.Name) \
                and ctx.imports.get(sub.id) == f"{module_dotted}.{attr}":
            return True
    return False


def mentions_attr(test: ast.AST, attr: str) -> bool:
    """Does ``test`` reference any ``<x>.<attr>`` attribute?"""
    return any(isinstance(sub, ast.Attribute) and sub.attr == attr
               for sub in ast.walk(test))


def const_kwarg(node: ast.Call, name: str):
    """The constant value of keyword ``name``, or None."""
    for keyword in node.keywords:
        if keyword.arg == name and isinstance(keyword.value, ast.Constant):
            return keyword.value.value
    return None
