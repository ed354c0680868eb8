"""DET: nondeterminism must never reach simulated state.

The reproduction's central guarantee (DESIGN.md, tests/chaos,
tests/obs/test_obs_equivalence.py) is that a sweep's metrics are a pure
function of its inputs and seeds — bit-identical across timing engines,
worker counts and chaos seeds.  Anything that injects ambient entropy
into ``sim/``, ``hw/``, ``kernel/`` (or the examples, which assert the
same story to users) silently voids that guarantee.
"""

from __future__ import annotations

import ast

from repro.analysis import config
from repro.analysis.core import (FUNCTION_DEFS, ModuleContext, Rule,
                                 Scope, own_nodes, register)
from repro.analysis.rules._ast_util import call_name, const_kwarg

def _scope_nodes(ctx: ModuleContext):
    """Each scope's own nodes: the module's, then every def's."""
    yield own_nodes(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, FUNCTION_DEFS):
            yield own_nodes(node)


#: numpy RNG constructors that are fine *when seeded* (flagged only when
#: called without arguments, which seeds from OS entropy).
_NUMPY_SEEDABLE = frozenset({
    "default_rng", "SeedSequence", "RandomState", "PCG64", "PCG64DXSM",
    "Philox", "SFC64", "MT19937",
})

#: numpy constructs that never draw by themselves.
_NUMPY_ALLOWED = frozenset({"Generator", "BitGenerator"})

#: Wall-clock reads (value-producing; ``time.sleep`` only spends time).
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
})

#: Ambient-entropy sources with no seeding story at all.
_ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})
_ENTROPY_PREFIXES = ("secrets.",)


@register
class UnseededRandom(Rule):
    """DET001: RNG use that draws from global or OS-entropy state."""

    id = "DET001"
    title = "unseeded or global-state RNG in simulation code"
    rationale = ("stdlib `random.*` and `numpy.random.*` module-level "
                 "functions share hidden global state; results stop being "
                 "a pure function of the configured seed")
    scope = config.DETERMINISM

    def check_module(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(ctx, node)
            if name is None:
                continue
            seeded = bool(node.args or node.keywords)
            if name == "random.Random":
                if not seeded:
                    yield ctx.finding(self, node,
                                      "random.Random() without a seed "
                                      "draws from OS entropy; pass an "
                                      "explicit seed")
            elif name.startswith("random."):
                yield ctx.finding(self, node,
                                  f"{name}() uses the interpreter-global "
                                  "RNG; thread a seeded "
                                  "numpy.random.Generator (or "
                                  "random.Random(seed)) through instead")
            elif name.startswith("numpy.random."):
                attr = name[len("numpy.random."):]
                if attr in _NUMPY_ALLOWED:
                    continue
                if attr in _NUMPY_SEEDABLE:
                    if not seeded:
                        yield ctx.finding(self, node,
                                          f"{name}() without a seed draws "
                                          "from OS entropy; pass an "
                                          "explicit seed")
                else:
                    yield ctx.finding(self, node,
                                      f"{name}() uses numpy's global RNG "
                                      "state; use a seeded "
                                      "numpy.random.default_rng(seed)")


@register
class WallClockRead(Rule):
    """DET002: wall-clock reads inside simulated state computation."""

    id = "DET002"
    title = "wall-clock read in simulation code"
    rationale = ("simulated time must come from the cycle model, never the "
                 "host clock; only the control plane (sim/runner.py, "
                 "sim/resilience.py) may read deadlines and backoff "
                 "pacing from the wall clock")
    scope = config.WALL_CLOCK

    def check_module(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = call_name(ctx, node)
                if name in _CLOCK_CALLS:
                    yield ctx.finding(self, node,
                                      f"{name}() reads the host clock "
                                      "inside simulation code; derive "
                                      "timing from the cycle model")


@register
class AmbientEntropy(Rule):
    """DET003: OS-entropy sources anywhere in the library or examples."""

    id = "DET003"
    title = "ambient OS entropy source"
    rationale = ("os.urandom/uuid4/secrets cannot be seeded, so any value "
                 "derived from them is unreproducible by construction")
    scope = config.ALL_SOURCE

    def check_module(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(ctx, node)
            if name is None:
                continue
            if name in _ENTROPY_CALLS \
                    or name.startswith(_ENTROPY_PREFIXES):
                yield ctx.finding(self, node,
                                  f"{name}() is unseedable OS entropy; "
                                  "derive randomness from the experiment "
                                  "seed instead")


@register
class UnorderedHashInput(Rule):
    """DET004: unordered/unsorted data feeding a digest."""

    id = "DET004"
    title = "unordered iteration or unsorted serialization feeding a digest"
    rationale = ("content keys (artifact cache, checkpoint, run ids) must "
                 "be stable across processes; set iteration order and "
                 "unsorted json.dumps are not")
    scope = Scope(include=("src/",))

    def check_module(self, ctx: ModuleContext):
        for nodes in _scope_nodes(ctx):
            calls = [n for n in nodes if isinstance(n, ast.Call)]
            if not any((call_name(ctx, c) or "").startswith("hashlib.")
                       for c in calls):
                continue
            for call in calls:
                if call_name(ctx, call) == "json.dumps" \
                        and const_kwarg(call, "sort_keys") is not True:
                    yield ctx.finding(self, call,
                                      "json.dumps() without sort_keys=True "
                                      "in a digest-computing function; "
                                      "dict order would leak into the hash")
            for node in nodes:
                if isinstance(node, (ast.For, ast.AsyncFor)) \
                        and self._unordered(ctx, node.iter):
                    yield ctx.finding(self, node,
                                      "iterating an unordered collection "
                                      "in a digest-computing function; "
                                      "sort before iterating")

    @staticmethod
    def _unordered(ctx: ModuleContext, expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) \
                    and func.id in ("set", "frozenset") \
                    and func.id not in ctx.imports:
                return True
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("keys", "values", "items"):
                return True
        return False


@register
class IdDerivedKey(Rule):
    """DET005: ``id()`` used as (part of) a key."""

    id = "DET005"
    title = "id()-derived key"
    rationale = ("id() is a memory address — unstable across processes and "
                 "runs; keys must be derived from content (fingerprints, "
                 "content tokens)")
    scope = config.SRC_ONLY

    def check_module(self, ctx: ModuleContext):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "id" \
                    and "id" not in ctx.imports and len(node.args) == 1:
                yield ctx.finding(self, node,
                                  "id() yields a memory address; derive "
                                  "keys from content so caches and hashes "
                                  "are stable across processes")


@register
class HashDerivedCacheKey(Rule):
    """DET006: builtin ``hash()`` feeding a cache key."""

    id = "DET006"
    title = "hash()-derived cache key"
    rationale = ("str/bytes hash() is salted per process "
                 "(PYTHONHASHSEED), so cache keys built from it differ "
                 "between sweep workers; batch and kernel caches (the "
                 "fastpath page-run batch, the native LRU kernel) must "
                 "key on content tokens so a result computed in one "
                 "process is found by every other")
    scope = config.SRC_ONLY

    def check_module(self, ctx: ModuleContext):
        for nodes in _scope_nodes(ctx):
            if not any(self._cache_ref(n) for n in nodes):
                continue
            for node in nodes:
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id == "hash" \
                        and "hash" not in ctx.imports \
                        and len(node.args) == 1:
                    yield ctx.finding(self, node,
                                      "hash() in a cache-handling function "
                                      "is process-salted for str/bytes; key "
                                      "the cache on a content token "
                                      "(content_token(), fingerprints) "
                                      "instead")

    @staticmethod
    def _cache_ref(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and "cache" in node.id.lower()) \
            or (isinstance(node, ast.Attribute)
                and "cache" in node.attr.lower())
