"""Analysis driver: discover files, run rules, fold suppressions/baseline.

The engine is deliberately dependency-free and deterministic: files are
discovered in sorted order, rules run in id order, and findings are
sorted by location, so two runs over the same tree produce byte-equal
reports — the same property the simulator itself guarantees.

With ``use_cache`` the engine consults the content-hash incremental
cache (:mod:`repro.analysis.cache`): per-file module-rule results are
keyed by file hash, the project-rule results by a whole-tree
fingerprint, both salted with the analyzer's own source hash and the
selected ruleset.  An unchanged tree replays every finding without
parsing a single file; a partial hit re-parses the tree (project rules
need it) but skips module-rule execution on unchanged files.  Cached
findings are byte-identical to fresh ones — the cache stores exactly
what the rules produced, post-suppression, and the baseline is always
re-applied fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import baseline as baseline_mod
from repro.analysis import cache as cache_mod
from repro.analysis import config
from repro.analysis.core import (ERROR, Finding, ModuleContext,
                                 ProjectContext, ProjectRule, Rule,
                                 all_rules)
from repro.analysis.suppress import Suppressions


@dataclass
class Result:
    """Outcome of one analysis run."""

    root: Path
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    files: int = 0
    rules: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    def exit_code(self, strict: bool = False) -> int:
        if self.errors:
            return 1
        if strict and self.findings:
            return 1
        return 0


def discover_files(root: Path, paths: tuple[str, ...]) -> list[Path]:
    """Python files under ``paths`` (repo-relative), sorted, exclusions
    applied."""
    exclude = config.EXCLUDE
    found: set[Path] = set()
    for entry in paths:
        target = (root / entry).resolve()
        if target.is_file() and target.suffix == ".py":
            found.add(target)
            continue
        if not target.is_dir():
            raise FileNotFoundError(f"no such analysis target: {entry}")
        for candidate in target.rglob("*.py"):
            if any(part in config.SKIP_DIRS for part in candidate.parts):
                continue
            found.add(candidate)
    kept = []
    for path in found:
        rel = _relpath(root, path)
        if any(rel.startswith(e) if e.endswith("/") else rel == e
               for e in exclude):
            continue
        kept.append(path)
    return sorted(kept)


def _relpath(root: Path, path: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _select_rules(select: tuple[str, ...] | None,
                  ignore: tuple[str, ...] | None) -> list[Rule]:
    """Registered rules filtered by id or family prefix (``DET``)."""

    def hits(rule: Rule, names: tuple[str, ...]) -> bool:
        return any(rule.id == n or rule.id.startswith(n) for n in names)

    rules = all_rules()
    if select:
        rules = [r for r in rules if hits(r, select)]
    if ignore:
        rules = [r for r in rules if not hits(r, ignore)]
    for rule in rules:
        override = config.SEVERITY_OVERRIDES.get(rule.id)
        if override is not None:
            rule.severity = override
    return rules


def _parse_error(rel: str, exc: Exception) -> Finding:
    return Finding(rule="PARSE", severity=ERROR, path=rel,
                   line=getattr(exc, "lineno", 1) or 1, col=1,
                   message=f"unparseable module: {exc}")


def _fold(findings: list[Finding], table: Suppressions | None
          ) -> tuple[list[Finding], list[Finding]]:
    """Split sorted findings into (active, suppressed) via one module's
    inline-directive table."""
    if table is None:
        return findings, []
    active, suppressed = [], []
    for finding in findings:
        (suppressed if table.covers(finding) else active).append(finding)
    return active, suppressed


def run_analysis(root: Path | str,
                 paths: tuple[str, ...] = config.DEFAULT_PATHS,
                 *,
                 select: tuple[str, ...] | None = None,
                 ignore: tuple[str, ...] | None = None,
                 baseline_path: Path | str | None = None,
                 use_baseline: bool = True,
                 update_baseline: bool = False,
                 use_cache: bool = False) -> Result:
    """Run every selected rule over ``paths`` beneath ``root``.

    ``baseline_path`` defaults to ``<root>/.dvmlint-baseline.json``.
    With ``update_baseline`` the current findings *become* the baseline
    (written to that path) and the run reports them as baselined.
    ``use_cache`` enables the incremental cache (reads and writes
    ``<root>/build/dvmlint-cache.json``).
    """
    root = Path(root)
    rules = _select_rules(select, ignore)
    module_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    result = Result(root=root, rules=[r.id for r in rules])
    files = discover_files(root, tuple(paths))
    rels = [_relpath(root, path) for path in files]
    contents = [path.read_bytes() for path in files]
    shas = {rel: cache_mod.file_sha(data)
            for rel, data in zip(rels, contents)}

    cache = cache_mod.open_cache(root, rules) if use_cache else None
    entries: dict[str, dict | None] = {}
    project_entry = None
    if cache is not None:
        entries = {rel: cache.lookup_file(rel, shas[rel]) for rel in rels}
        # Project rules also read the configuration doc (ENV002/003).
        doc = root / config.CONFIG_DOC
        doc_sha = cache_mod.file_sha(doc.read_bytes()) \
            if doc.is_file() else None
        tree_fp = cache_mod.tree_fingerprint(
            {**shas, config.CONFIG_DOC: doc_sha}, cache.engine,
            cache.ruleset)
        project_entry = cache.lookup_project(tree_fp)

    active: list[Finding] = []
    suppressed: list[Finding] = []

    if project_entry is not None and all(
            entries[rel] is not None for rel in rels):
        # Full hit: replay everything without parsing a single file.
        for rel in rels:
            entry = entries[rel]
            if entry["parsed"]:
                result.files += 1
            active.extend(map(cache_mod.entry_to_finding,
                              entry["findings"]))
            suppressed.extend(map(cache_mod.entry_to_finding,
                                  entry["suppressed"]))
        active.extend(map(cache_mod.entry_to_finding,
                          project_entry["findings"]))
        suppressed.extend(map(cache_mod.entry_to_finding,
                              project_entry["suppressed"]))
        cache.save()
    else:
        project = ProjectContext(root=root)
        tables: dict[str, Suppressions] = {}
        for rel, path, data in zip(rels, files, contents):
            entry = entries.get(rel)
            parsed = True
            ctx = None
            error: Exception | None = None
            try:
                ctx = ModuleContext(path, rel,
                                    data.decode("utf-8"))
            except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
                parsed = False
                error = exc
            if parsed:
                result.files += 1
                project.modules.append(ctx)
                tables[rel] = Suppressions(ctx)
            if entry is not None:
                # Replay this file's module-rule results.
                active.extend(map(cache_mod.entry_to_finding,
                                  entry["findings"]))
                suppressed.extend(map(cache_mod.entry_to_finding,
                                      entry["suppressed"]))
                continue
            if not parsed:
                finding = _parse_error(rel, error)
                active.append(finding)
                if cache is not None:
                    cache.store_file(rel, shas[rel], parsed=False,
                                     findings=[finding], suppressed=[])
                continue
            raw = []
            for rule in module_rules:
                if rule.scope.matches(rel):
                    raw.extend(rule.check_module(ctx))
            raw.sort(key=Finding.sort_key)
            kept, shed = _fold(raw, tables[rel])
            active.extend(kept)
            suppressed.extend(shed)
            if cache is not None:
                cache.store_file(rel, shas[rel], parsed=True,
                                 findings=kept, suppressed=shed)

        raw = []
        for rule in project_rules:
            raw.extend(rule.check_project(project))
        raw.sort(key=Finding.sort_key)
        project_active: list[Finding] = []
        project_shed: list[Finding] = []
        for finding in raw:
            table = tables.get(finding.path)
            if table is not None and table.covers(finding):
                project_shed.append(finding)
            else:
                project_active.append(finding)
        active.extend(project_active)
        suppressed.extend(project_shed)
        if cache is not None:
            cache.store_project(tree_fp, project_active, project_shed)
            cache.save()

    active.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    result.suppressed = suppressed
    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses

    # Baseline (always applied fresh — it may change independently of
    # file contents).
    bpath = Path(baseline_path) if baseline_path is not None \
        else root / config.BASELINE_FILE
    if update_baseline:
        baseline_mod.save(bpath, active)
        result.baselined = active
        return result
    if use_baseline:
        allowed = baseline_mod.load(bpath)
        active, result.baselined = baseline_mod.partition(active, allowed)
    result.findings = active
    return result


def restrict_to_paths(result: Result, keep: set[str]) -> Result:
    """Drop findings outside ``keep`` (repo-relative paths), in place.

    Used by ``--changed``: the *analysis* always runs over the full tree
    (project rules need it — a change in one file can create a finding
    in another only via whole-program rules, whose findings anchor where
    the flow surfaces), then the report is restricted to the edited
    files.
    """
    result.findings = [f for f in result.findings if f.path in keep]
    result.suppressed = [f for f in result.suppressed if f.path in keep]
    result.baselined = [f for f in result.baselined if f.path in keep]
    return result
