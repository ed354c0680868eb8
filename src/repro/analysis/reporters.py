"""Finding reporters: human text, GitHub annotations, SARIF 2.1.0."""

from __future__ import annotations

import json
from typing import TextIO

FORMATS = ("text", "github", "sarif")

#: SARIF schema constants.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def summary_counts(result) -> dict:
    return {
        "files": result.files,
        "errors": sum(1 for f in result.findings if f.severity == "error"),
        "warnings": sum(1 for f in result.findings
                        if f.severity == "warning"),
        "suppressed": len(result.suppressed),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
    }


def render_text(result, stream: TextIO) -> None:
    for finding in result.findings:
        stream.write(f"{finding.path}:{finding.line}:{finding.col}: "
                     f"{finding.rule} {finding.severity}: "
                     f"{finding.message}\n")
    counts = summary_counts(result)
    parts = [f"{counts['files']} files",
             f"{counts['errors']} errors",
             f"{counts['warnings']} warnings"]
    if counts["suppressed"]:
        parts.append(f"{counts['suppressed']} suppressed")
    if counts["cache_hits"] or counts["cache_misses"]:
        parts.append(f"cache {counts['cache_hits']}h/"
                     f"{counts['cache_misses']}m")
    stream.write(f"dvmlint: {', '.join(parts)}\n")


def _escape_property(value: str) -> str:
    """GitHub workflow-command *property* escaping: beyond the message
    escapes, property values must escape ``:`` and ``,`` (the command's
    own delimiters)."""
    return (value.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A").replace(":", "%3A").replace(",", "%2C"))


def render_github(result, stream: TextIO) -> None:
    """GitHub Actions workflow-command annotations, one per finding."""
    for finding in result.findings:
        level = "error" if finding.severity == "error" else "warning"
        message = finding.message.replace("%", "%25") \
            .replace("\r", "%0D").replace("\n", "%0A")
        path = _escape_property(finding.path)
        title = _escape_property(finding.rule)
        stream.write(f"::{level} file={path},line={finding.line},"
                     f"col={finding.col},title={title}::{message}\n")
    counts = summary_counts(result)
    stream.write(f"dvmlint: {counts['errors']} errors, "
                 f"{counts['warnings']} warnings across "
                 f"{counts['files']} files\n")


def _sarif_rules(result) -> list[dict]:
    from repro.analysis.core import all_rules
    catalog = {rule.id: rule for rule in all_rules()}
    descriptors = []
    for rule_id in result.rules:
        rule = catalog.get(rule_id)
        descriptor = {"id": rule_id}
        if rule is not None:
            descriptor["shortDescription"] = {"text": rule.title}
            if rule.rationale:
                descriptor["fullDescription"] = {"text": rule.rationale}
            descriptor["defaultConfiguration"] = {
                "level": "error" if rule.severity == "error"
                else "warning"}
        descriptors.append(descriptor)
    return descriptors


def _sarif_result(finding, suppressions: list[dict] | None = None) -> dict:
    entry = {
        "ruleId": finding.rule,
        "level": "error" if finding.severity == "error" else "warning",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {"startLine": finding.line,
                           "startColumn": finding.col},
            },
        }],
        "partialFingerprints": {
            "dvmlint/v1": finding.fingerprint,
        },
    }
    if suppressions is not None:
        entry["suppressions"] = suppressions
    return entry


def render_sarif(result, stream: TextIO) -> None:
    """SARIF 2.1.0: one run, rule metadata, suppressed results carried
    with explicit ``suppressions`` so code-scanning shows them as
    resolved rather than dropping them."""
    results = [_sarif_result(f) for f in result.findings]
    results += [_sarif_result(f, [{"kind": "inSource"}])
                for f in result.suppressed]
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "dvmlint",
                "rules": _sarif_rules(result),
            }},
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }
    json.dump(doc, stream, indent=1, sort_keys=True)
    stream.write("\n")


RENDERERS = {
    "text": render_text,
    "github": render_github,
    "sarif": render_sarif,
}
