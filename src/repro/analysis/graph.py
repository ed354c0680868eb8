"""Whole-program structure: module names, function table, call edges.

The per-file rules see one module at a time; the DET1xx/RACE0xx/EXN0xx
families reason about flows that *cross* function and module boundaries,
so they need a deterministic picture of the whole tree:

* a **module graph** — repo-relative paths mapped to dotted module names
  (``src/repro/sweep/scheduler.py`` → ``repro.sweep.scheduler``) with
  project-internal import edges, and
* a **call graph** — every function/method in the tree
  (:class:`FunctionInfo`, keyed by dotted qualname) with resolved call
  and reference edges between them.

Both cover ``src/`` only (:func:`build_graph`): the tests, benchmarks
and examples are parsed for the module rules but hold nothing a
whole-program rule reports on or follows.

Resolution is static and deliberately modest: import-resolved dotted
chains, module-local names, ``self.method`` within a class (plus
same-tree base classes), locals whose type is pinned by a visible
``x = ClassName(...)`` construction, and the repo-declared
:data:`~repro.analysis.config.ATTR_CALL_HINTS`.  Reference edges
(``Process(target=fn)``, ``pool.submit(fn, ...)``, functions stored in
module-level dispatch tables) are kept separately from call edges so the
context classifier can treat a process spawn as a *boundary* rather than
a call.

Everything is built in sorted order from sorted inputs, so two runs over
the same tree produce identical graphs — the same determinism contract
the engine itself keeps.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis import config
from repro.analysis.core import (FUNCTION_DEFS, ModuleContext,
                                 ProjectContext, own_nodes)


def module_name(relpath: str) -> str:
    """The dotted module name for a repo-relative path.

    ``src/``-rooted files name the installed package; anything else
    gets a path-derived dotted name.
    """
    parts = relpath.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition in the analyzed tree."""

    qualname: str                 # repro.sweep.scheduler.SweepService._emit
    name: str                     # _emit
    cls: str | None               # SweepService (None for module-level)
    module: str                   # repro.sweep.scheduler
    relpath: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: ModuleContext


@dataclass
class ProjectGraph:
    """The module/import graph and call graph for one analyzed tree."""

    modules: dict = field(default_factory=dict)      # dotted -> ModuleContext
    functions: dict = field(default_factory=dict)    # qualname -> FunctionInfo
    calls: dict = field(default_factory=dict)        # qualname -> [qualname]
    refs: dict = field(default_factory=dict)         # qualname -> [qualname]
    imports: dict = field(default_factory=dict)      # module -> [module]
    spawn_targets: set = field(default_factory=set)  # Process/submit targets
    _method_index: dict = field(default_factory=dict)   # (mod,cls,name) -> q
    _base_index: dict = field(default_factory=dict)     # (mod,cls) -> [bases]
    _container_funcs: dict = field(default_factory=dict)  # (mod,name) -> [q]
    _local_index: dict = field(default_factory=dict)    # (mod,name) -> [q]
    _resolve_memo: dict = field(default_factory=dict)   # per-call targets
    _types_memo: dict = field(default_factory=dict)     # qualname -> types

    # -- lookups --------------------------------------------------------------

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def functions_named(self, name: str) -> list[FunctionInfo]:
        """Every function with this bare name, sorted by qualname."""
        return [info for _, info in sorted(self.functions.items())
                if info.name == name]

    def callees(self, qualname: str) -> list[str]:
        return self.calls.get(qualname, [])

    def references(self, qualname: str) -> list[str]:
        return self.refs.get(qualname, [])


def build_graph(project: ProjectContext) -> ProjectGraph:
    """Build the whole-program graph over the tree's ``src/`` modules
    (nothing there imports tests, benchmarks or examples)."""
    graph = ProjectGraph()
    contexts = sorted((c for c in project.modules
                       if config.SRC_ONLY.matches(c.relpath)),
                      key=lambda c: c.relpath)
    for ctx in contexts:
        _index_module(graph, ctx)
    for ctx in contexts:
        _link_module(graph, ctx)
    return graph


# -- phase 1: definitions -----------------------------------------------------


def _index_module(graph: ProjectGraph, ctx: ModuleContext) -> None:
    mod = module_name(ctx.relpath)
    graph.modules[mod] = ctx
    for node, cls in _function_defs(ctx.tree):
        qual = f"{mod}.{cls}.{node.name}" if cls else f"{mod}.{node.name}"
        if qual not in graph.functions:
            graph.functions[qual] = FunctionInfo(
                qualname=qual, name=node.name, cls=cls, module=mod,
                relpath=ctx.relpath, node=node, ctx=ctx)
            if cls:
                graph._method_index[(mod, cls, node.name)] = qual
            else:
                graph._local_index.setdefault((mod, node.name),
                                              []).append(qual)
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.ClassDef):
            bases = [b.id for b in stmt.bases if isinstance(b, ast.Name)]
            graph._base_index[(mod, stmt.name)] = bases
    _index_containers(graph, ctx, mod)


def _function_defs(tree: ast.Module):
    """(node, class name) for every function def, methods one level deep."""
    for stmt in tree.body:
        if isinstance(stmt, FUNCTION_DEFS):
            yield stmt, None
            yield from _nested(stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, FUNCTION_DEFS):
                    yield sub, stmt.name
                    yield from _nested(sub, stmt.name)


def _nested(func: ast.AST, cls: str | None):
    """Nested defs, attributed to the enclosing class for qualnaming."""
    for node in ast.walk(func):
        if node is not func and isinstance(node, FUNCTION_DEFS):
            yield node, cls


def _index_containers(graph: ProjectGraph, ctx: ModuleContext,
                      mod: str) -> None:
    """Module-level dispatch tables: names bound to literals holding
    module-level function references (``EXECUTORS = {"pair": _run_pair}``).
    """
    local = {info.name: qual for qual, info in graph.functions.items()
             if info.module == mod and info.cls is None}
    for stmt in ctx.tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1 \
                or not isinstance(stmt.targets[0], ast.Name):
            continue
        if not isinstance(stmt.value, (ast.Dict, ast.List, ast.Tuple,
                                       ast.Set)):
            continue
        held = sorted({local[sub.id] for sub in ast.walk(stmt.value)
                       if isinstance(sub, ast.Name) and sub.id in local})
        if held:
            graph._container_funcs[(mod, stmt.targets[0].id)] = held


# -- phase 2: edges -----------------------------------------------------------


def _link_module(graph: ProjectGraph, ctx: ModuleContext) -> None:
    mod = module_name(ctx.relpath)
    imported = sorted({
        target.rsplit(".", 1)[0] if target not in graph.modules else target
        for target in ctx.imports.values()
        if target in graph.modules
        or target.rsplit(".", 1)[0] in graph.modules})
    graph.imports[mod] = [m for m in imported if m in graph.modules]
    for node, cls in _function_defs(ctx.tree):
        qual = f"{mod}.{cls}.{node.name}" if cls else f"{mod}.{node.name}"
        info = graph.functions[qual]
        if info.node is not node:       # duplicate name: first def wins
            continue
        _link_function(graph, info)


def _local_types(graph: ProjectGraph, info: FunctionInfo) -> dict[str, str]:
    """Locals pinned to a project class by a visible construction."""
    memo = graph._types_memo.get(info.qualname)
    if memo is not None:
        return memo
    types: dict[str, str] = {}
    graph._types_memo[info.qualname] = types
    for node in own_nodes(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            cls = _class_of_callee(graph, info, node.value.func)
            if cls is not None:
                types[node.targets[0].id] = cls
    return types


def _class_of_callee(graph: ProjectGraph, info: FunctionInfo,
                     func: ast.AST) -> str | None:
    """``(module, Class)`` prefix named by a constructor expression."""
    if isinstance(func, ast.Name):
        dotted = info.ctx.imports.get(func.id)
        if dotted is None:
            mod, name = info.module, func.id
        else:
            mod, _, name = dotted.rpartition(".")
    else:
        dotted = info.ctx.dotted(func)
        if dotted is None:
            return None
        mod, _, name = dotted.rpartition(".")
    if any(key[0] == mod and key[1] == name for key in graph._base_index) \
            or any(k[0] == mod and k[1] == name
                   for k in graph._method_index):
        return f"{mod}.{name}"
    return None


def _link_function(graph: ProjectGraph, info: FunctionInfo) -> None:
    calls: list[str] = []
    refs: list[str] = []
    types = _local_types(graph, info)
    local = {f.name: f.qualname for f in graph.functions.values()
             if f.module == info.module and f.cls is None}
    call_funcs: list[ast.AST] = []
    for node in own_nodes(info.node):
        if isinstance(node, ast.Call):
            call_funcs.append(node.func)
            calls.extend(resolve_call(graph, info, node, types))
            refs.extend(_spawn_refs(graph, info, node, local))
    called = {node_id: True for node_id in map(_node_key, call_funcs)}
    for node in own_nodes(info.node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and _node_key(node) not in called:
            if node.id in local:
                refs.append(local[node.id])
            held = graph._container_funcs.get((info.module, node.id))
            if held:
                refs.extend(held)
            dotted = info.ctx.imports.get(node.id)
            if dotted is not None and dotted in graph.functions:
                refs.append(dotted)
    graph.calls[info.qualname] = sorted(set(calls))
    graph.refs[info.qualname] = sorted(set(refs))


def _node_key(node: ast.AST) -> tuple:
    """Positional identity for an AST node (no addresses: two distinct
    nodes never share a type and a start position)."""
    return (type(node).__name__, getattr(node, "lineno", 0),
            getattr(node, "col_offset", -1))


def _spawn_refs(graph: ProjectGraph, info: FunctionInfo, call: ast.Call,
                local: dict[str, str]) -> list[str]:
    """Worker spawn targets: ``Process(target=fn)`` / ``submit(fn, ..)``."""
    out: list[str] = []
    callee_attr = call.func.attr if isinstance(call.func, ast.Attribute) \
        else call.func.id if isinstance(call.func, ast.Name) else ""
    candidates: list[ast.AST] = []
    if callee_attr == "Process" or callee_attr == "Thread":
        candidates = [kw.value for kw in call.keywords
                      if kw.arg == "target"]
    elif callee_attr == "submit" and call.args:
        candidates = [call.args[0]]
    for expr in candidates:
        qual = None
        if isinstance(expr, ast.Name) and expr.id in local:
            qual = local[expr.id]
        else:
            dotted = info.ctx.dotted(expr)
            if dotted in graph.functions:
                qual = dotted
        if qual is not None:
            out.append(qual)
            if callee_attr != "Thread":     # threads share the process
                graph.spawn_targets.add(qual)
    return out


def resolve_call(graph: ProjectGraph, info: FunctionInfo, call: ast.Call,
                 types: dict[str, str] | None = None) -> list[str]:
    """Project functions a call may dispatch to (possibly empty).

    Resolution depends only on the graph and the (deterministic) local
    type table, so results are memoized per call site across fixpoint
    rounds and engines.
    """
    memo_key = (info.qualname, _node_key(call))
    memo = graph._resolve_memo.get(memo_key)
    if memo is not None:
        return memo
    types = types if types is not None else _local_types(graph, info)
    func = call.func
    out: list[str] = []
    # Import-resolved dotted chain: module function or class construction.
    dotted = info.ctx.dotted(func)
    if dotted is not None:
        if dotted in graph.functions:
            out.append(dotted)
        else:
            init = f"{dotted}.__init__"
            if init in graph.functions:
                out.append(init)
            elif any(f"{dotted}." == q[: len(dotted) + 1]
                     for q in graph.functions):
                out.append(dotted)      # class without __init__: marker
    if isinstance(func, ast.Name):
        # Bare local name: module-level function or same-module class.
        out.extend(graph._local_index.get((info.module, func.id), ()))
        cls = _class_of_callee(graph, info, func)
        if cls is not None:
            init = f"{cls}.__init__"
            if init in graph.functions:
                out.append(init)
    elif isinstance(func, ast.Attribute):
        out.extend(_resolve_attr_call(graph, info, func, types))
    resolved = sorted({q for q in out if q in graph.functions})
    graph._resolve_memo[memo_key] = resolved
    return resolved


def _resolve_attr_call(graph: ProjectGraph, info: FunctionInfo,
                       func: ast.Attribute, types: dict[str, str]
                       ) -> list[str]:
    out: list[str] = []
    owner = func.value
    # self.method() — same class, then same-tree base classes.
    if isinstance(owner, ast.Name) and owner.id == "self" and info.cls:
        out.extend(_method_in_hierarchy(graph, info.module, info.cls,
                                        func.attr))
    # typed local: runner = ExperimentRunner(...); runner.method()
    elif isinstance(owner, ast.Name) and owner.id in types:
        mod, _, cls = types[owner.id].rpartition(".")
        out.extend(_method_in_hierarchy(graph, mod, cls, func.attr))
    # Declared hints: self.bus.emit(...) and friends.
    receiver = _receiver_text(owner)
    for (attr, substring), targets in sorted(
            config.ATTR_CALL_HINTS.items()):
        if func.attr == attr and substring in receiver:
            out.extend(t for t in targets if t in graph.functions)
    return out


def _method_in_hierarchy(graph: ProjectGraph, mod: str, cls: str,
                         name: str) -> list[str]:
    seen: set[tuple[str, str]] = set()
    queue = [(mod, cls)]
    out: list[str] = []
    while queue:
        mod_cls = queue.pop(0)
        if mod_cls in seen:
            continue
        seen.add(mod_cls)
        qual = graph._method_index.get((*mod_cls, name))
        if qual is not None:
            out.append(qual)
            continue
        for base in graph._base_index.get(mod_cls, ()):
            queue.append((mod_cls[0], base))
    return out


def _receiver_text(owner: ast.AST) -> str:
    """Lowercased dotted text of a receiver expression, best effort."""
    parts: list[str] = []
    node = owner
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


# -- shared whole-program state ----------------------------------------------

#: Cache key attribute set on ProjectContext instances (content-derived
#: state would be circular here; the project object *is* the identity).
_STATE_ATTR = "_dvmlint_whole_program"


def project_graph(project: ProjectContext) -> ProjectGraph:
    """The (memoized) graph for one ProjectContext."""
    state = getattr(project, _STATE_ATTR, None)
    if state is None:
        state = {}
        setattr(project, _STATE_ATTR, state)
    if "graph" not in state:
        state["graph"] = build_graph(project)
    return state["graph"]


def project_state(project: ProjectContext) -> dict:
    """The shared memo dict whole-program passes stash results in."""
    project_graph(project)
    return getattr(project, _STATE_ATTR)
