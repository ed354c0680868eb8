"""ENV: one environment owner, one documented knob inventory.

Every runtime knob is a ``REPRO_*`` environment variable, read through
``repro.common.env`` (so knobs stay enumerable, parse consistently, and
worker processes re-read them at one choke point) and documented in
``docs/configuration.md``.  ENV001 enforces the choke point; ENV002 and
ENV003 are a project-wide cross-check keeping code and the reference
table in sync — no undocumented knobs, no dead documentation.
"""

from __future__ import annotations

import ast
import re

from repro.analysis import config
from repro.analysis.core import (ERROR, Finding, ModuleContext,
                                 ProjectContext, ProjectRule, Rule,
                                 register)

_VAR = re.compile(config.ENV_VAR_PATTERN)
_VAR_FULL = re.compile(rf"^{config.ENV_VAR_PATTERN}$")


@register
class DirectEnvRead(Rule):
    """ENV001: os.environ/os.getenv outside the env owner package."""

    id = "ENV001"
    title = "direct environment read outside common/"
    rationale = ("environment access goes through repro.common.env so "
                 "every knob is enumerable, consistently parsed, and "
                 "re-readable at worker entry")
    scope = config.ENV_READS

    def check_module(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            name = None
            if isinstance(node, (ast.Attribute, ast.Name)):
                name = ctx.dotted(node)
            if name == "os.environ":
                yield ctx.finding(self, node,
                                  "direct os.environ access; read through "
                                  "repro.common.env instead")
            elif isinstance(node, ast.Call) \
                    and ctx.dotted(node.func) == "os.getenv":
                yield ctx.finding(self, node,
                                  "direct os.getenv() call; read through "
                                  "repro.common.env instead")


def _code_vars(project: ProjectContext) -> dict[str, list]:
    """REPRO_* string literals -> [(module, node), ...] across the tree,
    found in one walk per run that ENV002 and ENV003 share."""
    sites = project.memo.get("env.code_vars")
    if sites is not None:
        return sites
    sites = project.memo["env.code_vars"] = {}
    for ctx in project.modules:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _VAR_FULL.match(node.value):
                sites.setdefault(node.value, []).append((ctx, node))
    return sites


def _documented_vars(project: ProjectContext) -> dict[str, int] | None:
    """REPRO_* mentions in the configuration doc -> first line number."""
    doc = project.root / config.CONFIG_DOC
    if not doc.is_file():
        return None
    documented: dict[str, int] = {}
    for lineno, text in enumerate(doc.read_text().splitlines(), start=1):
        for match in _VAR.finditer(text):
            documented.setdefault(match.group(0), lineno)
    return documented


@register
class UndocumentedEnvVar(ProjectRule):
    """ENV002: a REPRO_* knob used in code but absent from the docs."""

    id = "ENV002"
    title = "undocumented REPRO_* environment variable"
    rationale = (f"every knob read in code must appear in "
                 f"{config.CONFIG_DOC}; an undocumented knob is "
                 "invisible to operators")

    def check_project(self, project: ProjectContext):
        documented = _documented_vars(project)
        if documented is None:
            yield Finding(rule=self.id, severity=ERROR,
                          path=config.CONFIG_DOC, line=1, col=1,
                          message=f"{config.CONFIG_DOC} is missing; the "
                                  "REPRO_* knob inventory cannot be "
                                  "cross-checked")
            return
        for var, sites in sorted(_code_vars(project).items()):
            if var in documented:
                continue
            ctx, node = sites[0]
            yield ctx.finding(self, node,
                              f"{var} is read in code but not documented "
                              f"in {config.CONFIG_DOC}")


@register
class DeadEnvVarDoc(ProjectRule):
    """ENV003: a documented REPRO_* knob no code reads."""

    id = "ENV003"
    title = "documented REPRO_* variable unused by any code"
    rationale = (f"{config.CONFIG_DOC} rows must correspond to knobs the "
                 "code actually reads; dead rows misdirect operators")

    def check_project(self, project: ProjectContext):
        documented = _documented_vars(project)
        if documented is None:
            return  # ENV002 already reports the missing doc.
        used = set(_code_vars(project))
        for var, lineno in sorted(documented.items()):
            if var not in used:
                yield Finding(rule=self.id, severity=self.severity,
                              path=config.CONFIG_DOC, line=lineno, col=1,
                              message=f"{var} is documented in "
                                      f"{config.CONFIG_DOC} but never "
                                      "referenced by code under analysis")
