"""Forward dataflow over the whole-program graph: taint and may-raise.

Two engines share the graph built by :mod:`.graph`:

**Taint** (:func:`taint_flows`) tracks nondeterministic values — wall
clocks, OS entropy, unseeded RNG draws, process identity (``id()``,
``os.getpid()``), salted ``hash()``, and set/dict-order iteration — from
the expression that produces them to the *result sinks* the repo's
bit-identity guarantee protects: journal records, tracestore columns,
bus events, cache keys / content digests, and ``TimingStats`` fields.
Propagation is interprocedural via per-function summaries:

* ``returns`` — source labels a call to the function may return,
* ``passthrough`` — parameters whose taint reaches the return value,
* ``param_sinks`` — parameters that flow into a sink *inside* the
  function (so a caller passing a tainted argument gets the finding at
  its own call site, where the fix belongs).

Summaries are iterated to a fixpoint (the tree's call depth bounds the
rounds; a hard cap keeps pathological cycles finite), then one final
pass collects flows.  Loops run their bodies twice so loop-carried
assignments converge.

**May-raise** (:func:`may_raise`) computes, per function, the exception
types that can escape it, with lexical ``try``/``except`` handling,
a small builtin exception hierarchy (``FileNotFoundError < OSError``),
and a table of known-raising operations (``open``/``write``/``flush``
→ ``OSError``, ``print`` → ``OSError``/``ValueError``,  ``json.dumps``
→ ``TypeError``/``ValueError``, ...).  Resolved project calls compose
their callee's escape set; *unresolved* calls are assumed safe unless
the table says otherwise — the engine verifies never-raise contracts
against known-risky operations, it does not prove totality (the docs
say so too).

Both engines are deterministic: sorted function order, sorted label
sets, results memoized on the :class:`~repro.analysis.core.ProjectContext`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis import config
from repro.analysis.core import ProjectContext
from repro.analysis.graph import (FunctionInfo, ProjectGraph,
                                  _local_types, _receiver_text,
                                  project_graph, project_state,
                                  resolve_call)

# -- taint: sources -----------------------------------------------------------

#: label -> human description used in findings.
SOURCE_LABELS = {
    "wall-clock": "wall-clock time",
    "os-entropy": "OS entropy",
    "unseeded-rng": "the unseeded module-level RNG",
    "process-id": "the process id",
    "object-id": "id() (an address, unstable across runs)",
    "salted-hash": "hash() (salted per process)",
    "unordered-iter": "set iteration order",
}

_CLOCK_DOTTED = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
_ENTROPY_DOTTED = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})
_ENTROPY_PREFIXES = ("secrets.",)
_RNG_MODULE_PREFIX = "random."        # module-level draws, not instances
_RNG_SAFE = frozenset({"random.Random", "random.SystemRandom",
                       "random.seed"})
_PID_DOTTED = frozenset({"os.getpid", "threading.get_ident"})

#: Builtins that launder the "unordered-iter" label (impose an order).
_ORDERING_CALLS = frozenset({"sorted", "min", "max", "sum", "len"})


def call_sources(ctx_dotted: str | None, func: ast.AST) -> frozenset[str]:
    """Source labels produced by one call expression."""
    if isinstance(func, ast.Name):
        if func.id == "id":
            return frozenset({"object-id"})
        if func.id == "hash":
            return frozenset({"salted-hash"})
        if func.id in ("set", "frozenset"):
            return frozenset({"unordered-iter"})
    if ctx_dotted is None:
        return frozenset()
    if ctx_dotted in _CLOCK_DOTTED:
        return frozenset({"wall-clock"})
    if ctx_dotted in _ENTROPY_DOTTED \
            or ctx_dotted.startswith(_ENTROPY_PREFIXES):
        return frozenset({"os-entropy"})
    if ctx_dotted in _PID_DOTTED:
        return frozenset({"process-id"})
    if ctx_dotted.startswith(_RNG_MODULE_PREFIX) \
            and ctx_dotted not in _RNG_SAFE:
        return frozenset({"unseeded-rng"})
    return frozenset()


# -- taint: sinks -------------------------------------------------------------


def call_sink(info: FunctionInfo, call: ast.Call) -> str | None:
    """The sink kind of one call expression, or ``None``."""
    dotted = info.ctx.dotted(call.func)
    if dotted is not None:
        for prefix, kind in sorted(config.TAINT_SINK_PREFIXES.items()):
            if dotted.startswith(prefix):
                return kind
        if dotted in config.TAINT_SINK_CLASSES:
            return config.TAINT_SINK_CLASSES[dotted]
    if isinstance(call.func, ast.Attribute):
        receiver = _receiver_text(call.func.value)
        for (attr, substring), kind in sorted(
                config.TAINT_SINK_ATTRS.items()):
            if call.func.attr == attr and substring in receiver:
                return kind
    name = call.func.attr if isinstance(call.func, ast.Attribute) \
        else call.func.id if isinstance(call.func, ast.Name) else ""
    for stem in config.TAINT_KEY_FUNCTIONS:
        if stem in name:
            return "cache-key"
    return None


# -- taint: summaries and flows -----------------------------------------------


@dataclass
class TaintSummary:
    """What callers need to know about one function."""

    returns: frozenset[str] = frozenset()       # real source labels
    passthrough: frozenset[str] = frozenset()   # param names -> return
    #: param name -> sorted tuple of sink kinds it flows into.
    param_sinks: dict = field(default_factory=dict)

    def key(self) -> tuple:
        return (tuple(sorted(self.returns)),
                tuple(sorted(self.passthrough)),
                tuple(sorted((p, k) for p, ks in self.param_sinks.items()
                             for k in ks)))


@dataclass(frozen=True)
class TaintFlow:
    """One nondeterministic value reaching a result sink."""

    sink: str          # journal | tracestore | bus-event | cache-key | ...
    label: str         # source label (SOURCE_LABELS key)
    qualname: str      # function containing the reported call
    relpath: str
    line: int
    col: int
    via: str = ""      # callee qualname when the sink is interprocedural

    def sort_key(self) -> tuple:
        return (self.relpath, self.line, self.col, self.sink, self.label)


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef
                 ) -> tuple[list[str], str | None]:
    """Positional/keyword parameter names and the ``**kwargs`` name."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names, args.kwarg.arg if args.kwarg else None


class _TaintPass:
    """One abstract-interpretation pass over one function body."""

    def __init__(self, graph: ProjectGraph, info: FunctionInfo,
                 summaries: dict, collect: list | None):
        self.graph = graph
        self.info = info
        self.summaries = summaries
        self.collect = collect          # TaintFlow sink, final round only
        self.env: dict[str, frozenset[str]] = {}
        self.summary = TaintSummary()
        self.params, self.kwarg = _param_names(info.node)
        for name in self.params + ([self.kwarg] if self.kwarg else []):
            self.env[name] = frozenset({f"param:{name}"})
        self._param_sinks: dict[str, set[str]] = {}
        self._returns: set[str] = set()
        self._passthrough: set[str] = set()

    def run(self) -> TaintSummary:
        body = list(self.info.node.body)
        self._stmts(body)
        self._stmts(body)               # second pass: loop/forward carry
        self.summary = TaintSummary(
            returns=frozenset(self._returns),
            passthrough=frozenset(self._passthrough),
            param_sinks={p: tuple(sorted(ks))
                         for p, ks in sorted(self._param_sinks.items())})
        return self.summary

    # -- statements --

    def _stmts(self, stmts) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return                      # nested defs analyzed separately
        if isinstance(stmt, ast.Assign):
            labels = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, labels)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            labels = self._eval(stmt.value) if stmt.value else frozenset()
            if isinstance(stmt, ast.AugAssign):
                labels |= self._eval(stmt.target)
            self._bind(stmt.target, labels)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                labels = self._eval(stmt.value)
                self._returns.update(
                    label for label in labels
                    if not label.startswith("param:"))
                self._passthrough.update(
                    label[len("param:"):] for label in labels
                    if label.startswith("param:"))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._eval(stmt.iter))
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, labels)
            self._stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)

    def _bind(self, target: ast.AST, labels: frozenset[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(target.id,
                                               frozenset()) | labels
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, labels)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # self.x = tainted / record["k"] = tainted: taint the whole
            # container so later uses of it carry the labels.
            base = target.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name):
                self.env[base.id] = self.env.get(base.id,
                                                 frozenset()) | labels

    # -- expressions --

    def _eval(self, node: ast.expr | None) -> frozenset[str]:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred,
                             ast.Await, ast.UnaryOp, ast.FormattedValue)):
            return self._eval(getattr(node, "value",
                                      getattr(node, "operand", None)))
        if isinstance(node, (ast.Set, ast.SetComp)):
            # Dicts iterate in insertion order; only *set* order is
            # process-unstable.
            labels = self._children(node)
            return labels | frozenset({"unordered-iter"})
        if isinstance(node, (ast.Lambda,)):
            return frozenset()
        return self._children(node)

    def _children(self, node: ast.expr) -> frozenset[str]:
        labels: frozenset[str] = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                labels |= self._eval(child)
        return labels

    def _call(self, call: ast.Call) -> frozenset[str]:
        arg_labels = [self._eval(arg) for arg in call.args]
        kw_labels = {kw.arg: self._eval(kw.value) for kw in call.keywords}
        every = frozenset().union(*arg_labels, *kw_labels.values()) \
            if (arg_labels or kw_labels) else frozenset()
        dotted = self.info.ctx.dotted(call.func)
        produced = call_sources(dotted, call.func)

        sink = call_sink(self.info, call)
        if sink is not None:
            self._at_sink(call, sink, every)

        targets = resolve_call(self.graph, self.info, call,
                               _local_types(self.graph, self.info))
        if targets:
            out: set[str] = set(produced)
            for target in targets:
                summary = self.summaries.get(target)
                if summary is None:
                    continue
                out.update(summary.returns)
                mapped = self._map_args(target, call, arg_labels,
                                        kw_labels)
                for param, labels in mapped.items():
                    if param in summary.passthrough:
                        out.update(labels)
                    for kind in summary.param_sinks.get(param, ()):
                        self._at_sink(call, kind, labels, via=target)
            return frozenset(out)

        if isinstance(call.func, ast.Name) \
                and call.func.id in _ORDERING_CALLS:
            return (every - {"unordered-iter"}) | produced
        if produced:
            return produced
        # Unresolved call: conservative passthrough of argument taint,
        # plus the receiver's taint for method calls (str(ts), x.encode()).
        receiver = self._eval(call.func.value) \
            if isinstance(call.func, ast.Attribute) else frozenset()
        return every | receiver

    def _map_args(self, target: str, call: ast.Call,
                  arg_labels: list, kw_labels: dict) -> dict:
        """Call-site labels keyed by the callee's parameter names."""
        info = self.graph.functions[target]
        params, kwarg = _param_names(info.node)
        offset = 1 if info.cls is not None and params \
            and params[0] in ("self", "cls") else 0
        mapped: dict[str, frozenset[str]] = {}
        for index, labels in enumerate(arg_labels):
            slot = index + offset
            if slot < len(params):
                mapped[params[slot]] = mapped.get(
                    params[slot], frozenset()) | labels
        for name, labels in sorted(kw_labels.items(),
                                   key=lambda kv: (kv[0] or "",)):
            if name in params:
                mapped[name] = mapped.get(name, frozenset()) | labels
            elif kwarg is not None:
                mapped[kwarg] = mapped.get(kwarg, frozenset()) | labels
        return mapped

    def _at_sink(self, call: ast.Call, kind: str,
                 labels: frozenset[str], via: str = "") -> None:
        # Sinks in taint-excluded modules don't count — the bus digests
        # a record that *legitimately* carries wall time; recording a
        # param-sink there would cascade false flows to every caller.
        if not config.TAINT.matches(self.info.relpath):
            return
        for label in sorted(labels):
            if label.startswith("param:"):
                param = label[len("param:"):]
                self._param_sinks.setdefault(param, set()).add(kind)
            elif self.collect is not None:
                self.collect.append(TaintFlow(
                    sink=kind, label=label, qualname=self.info.qualname,
                    relpath=self.info.relpath, line=call.lineno,
                    col=call.col_offset + 1, via=via))


#: Fixpoint round cap — deeper real call chains than this don't exist in
#: the tree, and cycles would otherwise iterate forever.
_MAX_ROUNDS = 8


class _ReadLog:
    """The summary table as one pass sees it, logging every key it reads."""

    __slots__ = ("summaries", "keys")

    def __init__(self, summaries: dict):
        self.summaries = summaries
        self.keys: set[str] = set()

    def get(self, key: str, default=None):
        self.keys.add(key)
        return self.summaries.get(key, default)


def _fixpoint(order: list[str], run, same) -> dict:
    """Iterate per-function summaries to their fixpoint, worklist style.

    ``run(qual, view)`` computes one function's summary, reading callee
    summaries through ``view``; ``same(old, new)`` says whether the new
    summary changes nothing (``old`` is ``None`` before the first
    store).  The first round runs every function in ``order``; each
    later round re-runs, in order, only the functions that read a
    summary the previous round changed.  A pass reads the same callees
    every time, so a function none of whose callees changed would only
    recompute its summary — the fixpoint is the one full rounds reach.
    """
    summaries: dict = {}
    readers: dict[str, set[str]] = {}
    dirty = set(order)
    for _ in range(_MAX_ROUNDS):
        if not dirty:
            break
        batch, dirty = sorted(dirty), set()
        for qual in batch:
            view = _ReadLog(summaries)
            summary = run(qual, view)
            for key in view.keys:
                readers.setdefault(key, set()).add(qual)
            if not same(summaries.get(qual), summary):
                summaries[qual] = summary
                dirty |= readers.get(qual, set())
    return summaries


def compute_taint(graph: ProjectGraph) -> list[TaintFlow]:
    """All taint flows in the tree, sorted and de-duplicated."""
    order = sorted(graph.functions)
    summaries = _fixpoint(
        order,
        lambda qual, view: _TaintPass(graph, graph.functions[qual],
                                      view, None).run(),
        lambda old, new: (old or TaintSummary()).key() == new.key())
    flows: list[TaintFlow] = []
    for qual in order:
        _TaintPass(graph, graph.functions[qual], summaries, flows).run()
    return sorted(set(flows), key=TaintFlow.sort_key)


def taint_flows(project: ProjectContext) -> list[TaintFlow]:
    """The (memoized) taint flows for one ProjectContext."""
    state = project_state(project)
    if "taint" not in state:
        state["taint"] = compute_taint(project_graph(project))
    return state["taint"]


# -- may-raise ----------------------------------------------------------------

#: Builtin exception hierarchy the handler matcher knows about.
_EXC_PARENTS = {
    "FileNotFoundError": "OSError", "PermissionError": "OSError",
    "IsADirectoryError": "OSError", "NotADirectoryError": "OSError",
    "FileExistsError": "OSError", "InterruptedError": "OSError",
    "BrokenPipeError": "OSError", "ConnectionError": "OSError",
    "ConnectionResetError": "ConnectionError", "TimeoutError": "OSError",
    "KeyError": "LookupError", "IndexError": "LookupError",
    "JSONDecodeError": "ValueError", "UnicodeDecodeError": "ValueError",
    "UnicodeEncodeError": "ValueError",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
}

#: Known-raising operations by import-resolved dotted path.
_RAISING_DOTTED = {
    "json.dumps": ("TypeError", "ValueError"),
    "json.loads": ("ValueError",),
    "json.dump": ("TypeError", "ValueError", "OSError"),
    "json.load": ("ValueError", "OSError"),
    "os.makedirs": ("OSError",), "os.mkdir": ("OSError",),
    "os.replace": ("OSError",), "os.rename": ("OSError",),
    "os.remove": ("OSError",), "os.unlink": ("OSError",),
    "os.fsync": ("OSError",), "os.stat": ("OSError",),
    "os.kill": ("OSError",),
}

#: Known-raising builtins by bare name.
_RAISING_NAMES = {
    "open": ("OSError",),
    "print": ("OSError", "ValueError"),     # broken pipe / closed stream
}

#: Known-raising method calls by attribute name (any receiver) — file
#: and path I/O that escapes no matter what object performs it.
_RAISING_ATTRS = {
    "write": ("OSError", "ValueError"), "flush": ("OSError", "ValueError"),
    "read": ("OSError", "ValueError"), "readline": ("OSError",),
    "truncate": ("OSError", "ValueError"), "seek": ("OSError",),
    "fileno": ("OSError", "ValueError"), "tell": ("OSError",),
    "mkdir": ("OSError",), "rmdir": ("OSError",),
    "read_bytes": ("OSError",), "write_bytes": ("OSError",),
    "read_text": ("OSError",), "write_text": ("OSError",),
    "unlink": ("OSError",), "replace": ("OSError",), "touch": ("OSError",),
}

def _caught_by(exc: str, caught: frozenset[str]) -> bool:
    if "*" in caught:
        return True
    if exc == "*":
        return False
    name: str | None = exc
    while name is not None:
        if name in caught:
            return True
        name = _EXC_PARENTS.get(name)
    return False


def _handler_types(handler: ast.ExceptHandler) -> frozenset[str]:
    node = handler.type
    if node is None:
        return frozenset({"*"})
    names: set[str] = set()
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    for element in elements:
        if isinstance(element, ast.Attribute):
            names.add(element.attr)
        elif isinstance(element, ast.Name):
            names.add(element.id)
        else:
            names.add("*")              # dynamic handler type: catch-all
    if names & {"Exception", "BaseException"}:
        return frozenset({"*"})
    return frozenset(names)


class _RaisePass:
    """Escaping-exception computation for one function body."""

    def __init__(self, graph: ProjectGraph, info: FunctionInfo,
                 summaries: dict):
        self.graph = graph
        self.info = info
        self.summaries = summaries
        self.escapes: dict[str, int] = {}   # exc name -> first line

    def run(self) -> dict[str, int]:
        self._stmts(self.info.node.body, (), frozenset())
        return dict(sorted(self.escapes.items()))

    def _record(self, exc: str, line: int,
                stack: tuple[frozenset[str], ...]) -> None:
        for caught in stack:
            if _caught_by(exc, caught):
                return
        if exc not in self.escapes:
            self.escapes[exc] = line

    def _stmts(self, stmts, stack, reraise) -> None:
        for stmt in stmts:
            self._stmt(stmt, stack, reraise)

    def _stmt(self, stmt, stack, reraise) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Try):
            caught = frozenset().union(
                *(_handler_types(h) for h in stmt.handlers)) \
                if stmt.handlers else frozenset()
            self._stmts(stmt.body, stack + (caught,), reraise)
            for handler in stmt.handlers:
                self._stmts(handler.body, stack,
                            _handler_types(handler))
            self._stmts(stmt.orelse, stack, reraise)
            self._stmts(stmt.finalbody, stack, reraise)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is None:
                for exc in sorted(reraise) or ["*"]:
                    self._record(exc, stmt.lineno, stack)
            else:
                node = stmt.exc.func if isinstance(stmt.exc, ast.Call) \
                    else stmt.exc
                if isinstance(node, ast.Attribute):
                    self._record(node.attr, stmt.lineno, stack)
                elif isinstance(node, ast.Name):
                    self._record(node.id, stmt.lineno, stack)
                else:
                    self._record("*", stmt.lineno, stack)
            self._exprs(stmt, stack)
            return
        if isinstance(stmt, ast.Assert):
            self._record("AssertionError", stmt.lineno, stack)
        self._exprs(stmt, stack)
        for name in ("body", "orelse", "finalbody"):
            self._stmts(getattr(stmt, name, ()) or (), stack, reraise)
        for handler in getattr(stmt, "handlers", ()) or ():
            self._stmts(handler.body, stack, reraise)

    def _exprs(self, stmt, stack) -> None:
        """Raising calls in this statement's own expressions."""
        for node in ast.iter_child_nodes(stmt):
            if not isinstance(node, (ast.expr, ast.withitem)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    for exc in self._call_raises(sub):
                        self._record(exc, sub.lineno, stack)

    def _call_raises(self, call: ast.Call) -> list[str]:
        dotted = self.info.ctx.dotted(call.func)
        if dotted is not None and dotted in _RAISING_DOTTED:
            return sorted(_RAISING_DOTTED[dotted])
        func = call.func
        if isinstance(func, ast.Name) and func.id in _RAISING_NAMES:
            return sorted(_RAISING_NAMES[func.id])
        targets = resolve_call(self.graph, self.info, call)
        if targets:
            out: set[str] = set()
            for target in targets:
                out.update(self.summaries.get(target, {}))
            return sorted(out)
        if isinstance(func, ast.Attribute):
            receiver = _receiver_text(func.value)
            for (attr, substring) in sorted(config.EXN_CONTRACT_ATTRS):
                if func.attr == attr and substring in receiver:
                    return []           # non-raising by contract
            if func.attr in _RAISING_ATTRS:
                return sorted(_RAISING_ATTRS[func.attr])
        return []


def compute_may_raise(graph: ProjectGraph) -> dict[str, dict[str, int]]:
    """qualname -> {escaping exception name -> first origin line}."""
    order = sorted(graph.functions)
    summaries = _fixpoint(
        order,
        lambda qual, view: _RaisePass(graph, graph.functions[qual],
                                      view).run(),
        lambda old, new: old == new)
    return {qual: summaries[qual] for qual in order}


def may_raise(project: ProjectContext) -> dict[str, dict[str, int]]:
    """The (memoized) may-raise table for one ProjectContext."""
    state = project_state(project)
    if "may_raise" not in state:
        state["may_raise"] = compute_may_raise(project_graph(project))
    return state["may_raise"]
