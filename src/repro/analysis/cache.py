"""One-entry result cache: the last run's whole result, keyed by tree.

Repeat ``make analyze`` runs over an unchanged tree should be
near-instant.  Every finding dvmlint produces is a pure function of

* the analyzer's own source (a rule edit must invalidate everything),
* the selected ruleset,
* every discovered file's path and bytes (project rules see the whole
  tree), and
* the configuration doc (ENV002/ENV003 read it).

So the cache holds a single entry: a key hashing all four, and the
whole post-suppression result.  A run whose key matches replays the
entry without parsing; any other run recomputes everything and
replaces the entry.

The file is JSON under ``build/`` (swept by ``make clean``, excluded
from discovery), published atomically through a per-process tmp name,
so overlapping runs never share a tmp file.  A corrupt, stale or
version-skewed cache is ignored and rebuilt, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.analysis import config
from repro.analysis.core import Finding
from repro.common.integrity import tmp_path

#: Cache format version; bump on schema changes.
CACHE_VERSION = 4

_FINDING_FIELDS = ("rule", "severity", "path", "line", "col", "message",
                   "snippet")


def tree_key(root: Path, rules, rels: list[str],
             contents: list[bytes]) -> str:
    """Hash of the engine source, the ruleset, every discovered file
    and the configuration doc."""
    digest = hashlib.sha256()

    def feed(*parts: bytes) -> None:
        for part in parts:
            digest.update(part)
            digest.update(b"\0")

    package_dir = Path(__file__).parent
    for path in sorted(package_dir.rglob("*.py")):
        feed(path.relative_to(package_dir).as_posix().encode(),
             path.read_bytes())
    feed(json.dumps([(r.id, r.severity) for r in rules],
                    sort_keys=True).encode())
    for rel, data in zip(rels, contents):
        feed(rel.encode(), data)
    doc = root / config.CONFIG_DOC
    feed(doc.read_bytes() if doc.is_file() else b"<no config doc>")
    return digest.hexdigest()


def _to_entry(finding: Finding) -> dict:
    return {name: getattr(finding, name) for name in _FINDING_FIELDS}


def _to_finding(entry: dict) -> Finding:
    return Finding(**{name: entry[name] for name in _FINDING_FIELDS})


def load(root: Path, key: str
         ) -> tuple[int, list[Finding], list[Finding]] | None:
    """``(files, findings, suppressed)`` cached under ``key``, or None."""
    try:
        doc = json.loads((root / config.CACHE_FILE).read_text())
        if doc["version"] != CACHE_VERSION or doc["key"] != key:
            return None
        return (doc["files"], [_to_finding(e) for e in doc["findings"]],
                [_to_finding(e) for e in doc["suppressed"]])
    except (OSError, ValueError, TypeError, KeyError):
        return None


def save(root: Path, key: str, result) -> None:
    """Replace the cache with ``result`` under ``key``."""
    doc = {"version": CACHE_VERSION, "key": key, "files": result.files,
           "findings": [_to_entry(f) for f in result.findings],
           "suppressed": [_to_entry(f) for f in result.suppressed]}
    path = root / config.CACHE_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = tmp_path(path)
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
