"""Repo-aware configuration: scopes, hot modules, protocol anchors.

Everything dvmlint knows about *this* repository lives here, so the
framework (:mod:`repro.analysis.core`, :mod:`repro.analysis.engine`)
stays generic and the rules read like a statement of the invariants:

* which directories hold *simulated* state (determinism rules apply),
* which modules are on the per-access hot path (obs guard contract),
* which package owns environment access (``common/``),
* where the configuration reference lives, and
* which functions are process-pool worker entries.
"""

from __future__ import annotations

from repro.analysis.core import Scope

#: Directories whose code computes simulated state: everything here must
#: be a pure function of its inputs and seeds.  ``sim/runner.py`` and
#: ``sim/resilience.py`` are the *control plane* (wall-clock budgets,
#: retry backoff) and are exempted from the wall-clock rule only.
SIMULATION_SCOPE = (
    "src/repro/sim/",
    "src/repro/hw/",
    "src/repro/kernel/",
    "src/repro/core/",
    "src/repro/virt/",
    "src/repro/accel/",
    "src/repro/graphs/",
    "examples/",
)

#: Control-plane modules allowed to read wall clocks (deadlines, backoff
#: pacing — never simulated state).
WALL_CLOCK_EXEMPT = (
    "src/repro/sim/runner.py",
    "src/repro/sim/resilience.py",
)

#: Modules on (or adjacent to) the per-access hot path, where PR 4's
#: zero-overhead-when-disabled contract requires every observability
#: recording call to sit behind the module-level ``ENABLED`` guard.
HOT_MODULES = (
    "src/repro/hw/",
    "src/repro/kernel/",
    "src/repro/sim/system.py",
    "src/repro/sim/fastpath.py",
    "src/repro/sim/runner.py",
)

#: The observability core module and its recording entry points.  Calls
#: resolving to these dotted paths must be ``ENABLED``-guarded in hot
#: modules; administrative calls (``merge``, ``to_dict``, ``reset``,
#: ``refresh_from_env``) are exempt.
OBS_CORE_MODULE = "repro.obs.core"
OBS_RECORDING_CALLS = (
    "repro.obs.core.counter",
    "repro.obs.core.histogram",
    "repro.obs.core.REGISTRY.counter",
    "repro.obs.core.REGISTRY.histogram",
)
OBS_RECORDING_PREFIXES = (
    "repro.obs.record.",
)

#: The one package allowed to touch ``os.environ`` directly; everything
#: else goes through ``repro.common.env`` so knobs stay enumerable.
ENV_OWNER = "src/repro/common/"

#: The configuration reference every ``REPRO_*`` knob must appear in.
CONFIG_DOC = "docs/configuration.md"

#: Environment-variable naming convention for runtime knobs.
ENV_VAR_PATTERN = r"REPRO_[A-Z0-9]+(?:_[A-Z0-9]+)*"

#: The IOMMU layer, where the recoverable-fault delivery protocol lives.
IOMMU_SCOPE = ("src/repro/hw/",)

#: Known process-pool worker entry functions (in addition to functions
#: detected as ``pool.submit(fn, ...)`` targets within a module).
WORKER_ENTRY_NAMES = frozenset({"_sweep_worker_main"})

#: The module sanctioned to create worker processes (liveness
#: supervision, retry/rebuild/merge determinism live there).
POOL_OWNER = "src/repro/sweep/scheduler.py"

#: The supervised sweep package: every potentially-blocking wait must
#: be bounded (SWP001) and durable bytes must flow through the fenced
#: journal writer or the atomic tracestore publisher (SWP002).
SWEEP_SCOPE = ("src/repro/sweep/",)
SWEEP_WRITE_OWNERS = ("src/repro/sweep/journal.py",
                      "src/repro/sweep/tracestore.py")

#: The scenario-generation package (constrained-random fuzzing).  Seed
#: discipline is absolute there: every draw must come from a passed-in
#: seeded generator, and the only RNG-construction point is
#: ``gen/seeds.py`` (so one seed maps to one scenario forever).
GEN_SCOPE = ("src/repro/gen/",)
GEN_RNG_OWNER = "src/repro/gen/seeds.py"

#: Modules the generator must never import: scenarios must stay buildable
#: without the experiment control plane (the runner imports gen/, never
#: the reverse), or fuzz repros would drag sweeps/caches into the loop.
GEN_FORBIDDEN_IMPORTS = ("repro.sim.runner", "repro.experiments")

# -- whole-program analysis anchors (graph / contexts / dataflow) -----------

#: Modules whose top-level functions and methods execute in the
#: *scheduler parent* process: the supervised scheduler itself and the
#: CLI entrypoints.  Context classification (:mod:`..contexts`) seeds
#: parent reachability here.
CONTEXT_PARENT_PATHS = (
    "src/repro/sweep/scheduler.py",
    "src/repro/__main__.py",
)

#: Attribute-call resolution hints for the call graph: a call through an
#: attribute the AST cannot type (``self.bus.emit(...)``) resolves to
#: these qualified functions when the receiver's name mentions the key's
#: second element.  Targets that don't exist in the analyzed tree are
#: ignored, so the hints are safe on partial trees (fixtures).
ATTR_CALL_HINTS = {
    ("emit", "bus"): ("repro.obs.bus.EventBus.emit",
                      "repro.obs.bus._NullBus.emit"),
    ("beat", "pulse"): ("repro.obs.progress.Pulse.beat",),
}

#: Taint sinks for the DET1xx interprocedural nondeterminism rules, by
#: import-resolved dotted-call prefix.
TAINT_SINK_PREFIXES = {
    "repro.sweep.journal.": "journal",
    "repro.sweep.tracestore.": "tracestore",
    "hashlib.": "digest",
}

#: Taint sinks matched by (attribute name, receiver-name substring):
#: ``journal.append(...)``, ``self.bus.emit(...)`` and friends, where
#: the receiver's static type is unknown but its name states its role.
TAINT_SINK_ATTRS = {
    ("append", "journal"): "journal",
    ("emit", "bus"): "bus-event",
}

#: Classes whose construction is a result sink (every argument becomes
#: simulated output): nondeterminism must never reach their fields.
TAINT_SINK_CLASSES = {
    "repro.hw.iommu.TimingStats": "timing-stats",
}

#: Functions whose arguments become cache keys / content fingerprints
#: (matched by bare-name substring).
TAINT_KEY_FUNCTIONS = ("cache_key", "fingerprint", "content_token")

#: The interprocedural taint rules inspect library code only; telemetry
#: (``obs/``) carries wall timestamps by design, and the analyzer itself
#: hashes file contents all day.
TAINT_SCOPE_EXCLUDE = ("src/repro/obs/", "src/repro/analysis/")

#: Module-level state the RACE0xx rules treat as sanctioned shared
#: state: observability registries are shipped back per task and merged
#: by the parent, ``common/`` owns the injector/env machinery that is
#: deliberately re-keyed per task, and the journal/tracestore *are* the
#: sanctioned durable protocols.
RACE_SANCTIONED_PATHS = (
    "src/repro/obs/",
    "src/repro/common/",
    "src/repro/sweep/journal.py",
    "src/repro/sweep/tracestore.py",
    "src/repro/analysis/",
)

#: Documented never-raise contracts, verified interprocedurally by the
#: EXN0xx family: (rule id, module-dotted-prefix, method bare names).
#: Prefix matching keeps ``scheduler_bad.py``-style fixture variants in
#: scope, mirroring the SCHED_TRANSITIONS glob.
NEVER_RAISE_CONTRACTS = (
    ("EXN001", "repro.obs.bus", ("emit", "close")),
    ("EXN002", "repro.obs.progress", ("update", "beat")),
    ("EXN003", "repro.sweep.scheduler", ("_emit", "_tick")),
)

#: Attribute calls assumed non-raising *by contract* rather than by
#: analysis: the EXN family verifies the definition site, so call sites
#: may rely on it (compositional checking).  Keyed like ATTR_CALL_HINTS.
EXN_CONTRACT_ATTRS = {
    ("emit", "bus"): True,
    ("close", "bus"): True,
    ("beat", "pulse"): True,
}

#: Paths never scanned, relative to the analysis root.  The fixture tree
#: under ``tests/analysis/fixtures`` is a corpus of *intentional*
#: violations (each rule's positive/negative test vectors) and is
#: analyzed by the test suite with the fixture directory as its own
#: root.
EXCLUDE = (
    "tests/analysis/fixtures/",
    "build/",
)

#: Directory names skipped during file discovery.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".pytest_cache", ".hypothesis", ".ruff_cache",
    "node_modules", ".benchmarks",
})

#: Default analysis targets, relative to the root.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")

#: Default baseline location, relative to the root.
BASELINE_FILE = ".dvmlint-baseline.json"

#: Default incremental-cache location, relative to the root (under
#: ``build/`` so ``make clean`` and the discovery excludes cover it).
CACHE_FILE = "build/dvmlint-cache.json"

#: Per-rule severity overrides (rule id -> "error" | "warning").  Rules
#: default to the severity declared on their class; entries here let the
#: repo soften or harden a rule without touching its implementation.
SEVERITY_OVERRIDES: dict[str, str] = {}

# -- scope helpers used by the rule modules ---------------------------------

DETERMINISM = Scope(include=SIMULATION_SCOPE)
WALL_CLOCK = Scope(include=SIMULATION_SCOPE, exclude=WALL_CLOCK_EXEMPT)
ALL_SOURCE = Scope(include=("src/", "examples/"))
SRC_ONLY = Scope(include=("src/",))
LIBRARY_AND_DRIVERS = Scope(include=("src/", "examples/", "benchmarks/"))
HOT_PATH = Scope(include=HOT_MODULES, exclude=("src/repro/obs/",))
ENV_READS = Scope(include=("src/",), exclude=(ENV_OWNER,))
IOMMU = Scope(include=IOMMU_SCOPE)
POOLS = Scope(include=("src/",), exclude=(POOL_OWNER,))
GEN = Scope(include=GEN_SCOPE)
GEN_DRAWS = Scope(include=GEN_SCOPE, exclude=(GEN_RNG_OWNER,))
SWEEP = Scope(include=SWEEP_SCOPE)
SWEEP_WRITES = Scope(include=SWEEP_SCOPE, exclude=SWEEP_WRITE_OWNERS)
TAINT = Scope(include=("src/",), exclude=TAINT_SCOPE_EXCLUDE)
RACES = Scope(include=("src/",), exclude=RACE_SANCTIONED_PATHS)
#: The scheduler, whose state transitions (anything bumping a
#: ``...report.<counter>``) must narrate themselves onto the event bus
#: (OBS002) — a silent transition is invisible to ``repro top`` and the
#: streaming consumers.
SCHED_TRANSITIONS = Scope(include=("src/repro/sweep/scheduler*.py",))
