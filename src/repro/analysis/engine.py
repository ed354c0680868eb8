"""Analysis driver: discover files, run rules, fold inline suppressions.

The engine is deliberately dependency-free and deterministic: files are
discovered in sorted order, rules run in id order, and findings are
sorted by location, so two runs over the same tree produce byte-equal
reports — the same property the simulator itself guarantees.

With ``use_cache`` the engine consults the one-entry result cache
(:mod:`repro.analysis.cache`): the whole result is keyed by the
analyzer's source, the selected ruleset, every discovered file and the
configuration doc.  An unchanged tree replays the result without
parsing a single file; any edit recomputes the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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
    files: int = 0
    rules: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    def exit_code(self) -> int:
        return 1 if self.errors else 0


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
    return rules


def _parse_error(rel: str, exc: Exception) -> Finding:
    return Finding(rule="PARSE", severity=ERROR, path=rel,
                   line=getattr(exc, "lineno", 1) or 1, col=1,
                   message=f"unparseable module: {exc}")


def _analyze(root: Path, rules: list[Rule], files: list[Path],
             rels: list[str], contents: list[bytes], result: Result
             ) -> None:
    """Run ``rules`` over the tree, filling ``result`` (unsorted)."""
    project = ProjectContext(root=root)
    tables: dict[str, Suppressions] = {}
    raw: list[Finding] = []
    for rel, path, data in zip(rels, files, contents):
        try:
            ctx = ModuleContext(path, rel, data.decode("utf-8"))
        except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
            result.findings.append(_parse_error(rel, exc))
            continue
        result.files += 1
        project.modules.append(ctx)
        tables[rel] = Suppressions(ctx)
        for rule in rules:
            if not isinstance(rule, ProjectRule) and rule.scope.matches(rel):
                raw.extend(rule.check_module(ctx))
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project))
    for finding in raw:
        table = tables.get(finding.path)
        if table is not None and table.covers(finding):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)


def run_analysis(root: Path | str,
                 paths: tuple[str, ...] = config.DEFAULT_PATHS,
                 *,
                 select: tuple[str, ...] | None = None,
                 ignore: tuple[str, ...] | None = None,
                 use_cache: bool = False) -> Result:
    """Run every selected rule over ``paths`` beneath ``root``.

    ``use_cache`` replays or records the whole result in
    ``<root>/build/dvmlint-cache.json``.
    """
    root = Path(root)
    rules = _select_rules(select, ignore)
    result = Result(root=root, rules=[r.id for r in rules])
    files = discover_files(root, tuple(paths))
    rels = [_relpath(root, path) for path in files]
    contents = [path.read_bytes() for path in files]

    key = cache_mod.tree_key(root, rules, rels, contents) \
        if use_cache else None
    entry = cache_mod.load(root, key) if use_cache else None
    if entry is not None:
        result.files, result.findings, result.suppressed = entry
        result.cache_hits = len(files)
        return result

    _analyze(root, rules, files, rels, contents, result)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    if use_cache:
        result.cache_misses = len(files)
        cache_mod.save(root, key, result)
    return result
