"""Analysis primitives: findings, rules, the registry, path scoping.

A *rule* inspects one parsed module (or, for :class:`ProjectRule`, the
whole tree at once) and yields :class:`Finding`\\ s.  Rules are
registered by class with :func:`register` and instantiated fresh per
run, so they may keep per-run state.  Each rule carries an id
(``DET001``), a severity, a one-line rationale for the catalog, and a
:class:`Scope` restricting which repo-relative paths it inspects.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

#: Finding severities.  Errors fail the run; warnings are only reported.
ERROR = "error"
WARNING = "warning"
SEVERITIES = (ERROR, WARNING)

#: The AST node types that open a function scope.
FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source location.

    ``snippet`` is the source line; the SARIF fingerprint is derived
    from it (not from the line number), so a finding keeps its identity
    across unrelated edits that shift the file.
    """

    rule: str
    severity: str
    path: str          # repo-relative, posix separators
    line: int
    col: int
    message: str
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        blob = f"{self.rule}|{self.path}|{self.snippet.strip()}"
        return hashlib.sha1(blob.encode()).hexdigest()[:16]

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Scope:
    """Which repo-relative paths a rule inspects.

    Entries ending in ``/`` are directory prefixes; entries containing
    glob characters are matched with :func:`fnmatch.fnmatch`; anything
    else is an exact path.  An empty ``include`` means every scanned
    file.  ``exclude`` wins over ``include``.
    """

    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    @staticmethod
    def _entry_matches(entry: str, relpath: str) -> bool:
        if entry.endswith("/"):
            return relpath.startswith(entry)
        if any(c in entry for c in "*?["):
            return fnmatch(relpath, entry)
        return relpath == entry

    def matches(self, relpath: str) -> bool:
        if any(self._entry_matches(e, relpath) for e in self.exclude):
            return False
        if not self.include:
            return True
        return any(self._entry_matches(e, relpath) for e in self.include)


class ModuleContext:
    """One parsed module plus the lookup tables rules share.

    ``imports`` maps local aliases to dotted module/object paths
    (``obs_core`` -> ``repro.obs.core``); ``parents`` links every AST
    node to its parent so rules can test lexical enclosure (is this
    raise under an ``if self.fault_path is None:`` guard?).
    """

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source)
        self.imports = self._import_table(self.tree)
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node

    @staticmethod
    def _import_table(tree: ast.AST) -> dict[str, str]:
        table: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    table[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    table[local] = f"{node.module}.{alias.name}"
        return table

    def dotted(self, node: ast.AST) -> str | None:
        """The import-resolved dotted path of a Name/Attribute chain.

        ``obs_core.REGISTRY.counter`` with ``from repro.obs import core
        as obs_core`` resolves to ``repro.obs.core.REGISTRY.counter``.
        Returns ``None`` for expressions that are not plain chains or
        whose root name was never imported (locals, builtins).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def ancestors(self, node: ast.AST):
        """Every enclosing node, innermost first."""
        seen = self.parents.get(node)
        while seen is not None:
            yield seen
            seen = self.parents.get(seen)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(rule=rule.id, severity=rule.severity,
                       path=self.relpath,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message,
                       snippet=self.line_text(getattr(node, "lineno", 1)))


def own_nodes(scope: ast.AST) -> list[ast.AST]:
    """Nodes belonging to ``scope`` (a module or a def), excluding the
    bodies of nested defs: a nested def node is listed, its body is not.
    """
    nodes: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, FUNCTION_DEFS):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


@dataclass
class ProjectContext:
    """Whole-tree view handed to :class:`ProjectRule`\\ s."""

    root: Path
    modules: list[ModuleContext] = field(default_factory=list)


class Rule:
    """Base class: one named, scoped invariant check."""

    id: str = ""
    title: str = ""
    severity: str = ERROR
    rationale: str = ""
    scope: Scope = Scope()

    def check_module(self, ctx: ModuleContext):
        """Yield findings for one module.  Default: none."""
        return ()


class ProjectRule(Rule):
    """A rule needing the whole tree (cross-file consistency checks)."""

    def check_project(self, project: ProjectContext):
        return ()


#: Registered rule classes by id.
_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.id} has invalid severity "
                         f"{cls.severity!r}")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def get_rule(rule_id: str) -> type[Rule]:
    return _REGISTRY[rule_id]


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id.

    Importing :mod:`repro.analysis.rules` populates the registry; done
    here so ``core`` stays import-cycle-free.
    """
    import repro.analysis.rules  # noqa: F401  (registration side effect)
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]
