"""Reporter formats: text lines, GitHub annotations, SARIF, and the
line-independent finding fingerprint SARIF carries."""

import io
import json
import re

from repro.analysis.core import ERROR, Finding
from repro.analysis.reporters import (SARIF_SCHEMA, SARIF_VERSION,
                                      render_github, render_sarif,
                                      render_text)

from tests.analysis.conftest import analyze_fixtures

_TEXT_LINE = re.compile(
    r"^[\w/.-]+:\d+:\d+: [A-Z]+\d+ (error|warning): .+$")
_GITHUB_LINE = re.compile(
    r"^::(error|warning) file=[\w/.-]+,line=\d+,col=\d+,"
    r"title=[A-Z]+\d+::.+$")

def render(renderer, result) -> str:
    stream = io.StringIO()
    renderer(result, stream)
    return stream.getvalue()


class TestText:
    def test_line_format_and_summary(self, fixture_result):
        lines = render(render_text, fixture_result).splitlines()
        assert lines, "expected findings in the fixture corpus"
        for line in lines[:-1]:
            assert _TEXT_LINE.match(line), line
        assert lines[-1].startswith("dvmlint: ")
        assert "suppressed" in lines[-1]


class TestGithub:
    def test_annotation_format(self, fixture_result):
        lines = render(render_github, fixture_result).splitlines()
        for line in lines[:-1]:
            assert _GITHUB_LINE.match(line), line
        assert lines[-1].startswith("dvmlint: ")

    def test_workflow_command_escaping(self, fixture_result):
        from dataclasses import replace
        noisy = replace(fixture_result.findings[0],
                        message="100% broken\nsecond line")
        result = type(fixture_result)(root=fixture_result.root,
                                      findings=[noisy])
        out = render(render_github, result)
        assert "100%25 broken%0Asecond line" in out

    def test_property_value_escaping(self, fixture_result):
        """``,`` and ``:`` inside property values must not terminate the
        workflow command's own key=value list."""
        from dataclasses import replace
        noisy = replace(fixture_result.findings[0],
                        path="src/a,b::c.py", message="fine")
        result = type(fixture_result)(root=fixture_result.root,
                                      findings=[noisy])
        out = render(render_github, result)
        assert "file=src/a%2Cb%3A%3Ac.py,line=" in out


class TestSarif:
    def test_document_shape(self, fixture_result):
        doc = json.loads(render(render_sarif, fixture_result))
        assert doc["version"] == SARIF_VERSION
        assert doc["$schema"] == SARIF_SCHEMA
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "dvmlint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == list(fixture_result.rules)
        expected = (len(fixture_result.findings)
                    + len(fixture_result.suppressed))
        assert len(run["results"]) == expected

    def test_results_reference_catalog_and_fingerprints(
            self, fixture_result):
        doc = json.loads(render(render_sarif, fixture_result))
        (run,) = doc["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        for entry in run["results"]:
            assert entry["ruleId"] in rule_ids
            assert re.fullmatch(
                r"[0-9a-f]{16}",
                entry["partialFingerprints"]["dvmlint/v1"])
            region = entry["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1

    def test_suppressions_marked(self, fixture_result):
        assert fixture_result.suppressed, "corpus has inline suppressions"
        doc = json.loads(render(render_sarif, fixture_result))
        (run,) = doc["runs"]
        kinds = [s["kind"] for entry in run["results"]
                 for s in entry.get("suppressions", ())]
        assert kinds and set(kinds) == {"inSource"}

    def test_output_deterministic(self):
        """Two runs over the same tree render byte-identical reports."""
        first = render(render_sarif, analyze_fixtures())
        second = render(render_sarif, analyze_fixtures())
        assert first == second


def make_finding(line=10, snippet="x = id(y)", path="src/a.py",
                 rule="DET005"):
    return Finding(rule=rule, severity=ERROR, path=path, line=line,
                   col=1, message="m", snippet=snippet)


class TestFingerprint:
    def test_line_number_independent(self):
        """Unrelated edits that shift a file keep a finding's identity."""
        assert make_finding(line=10).fingerprint \
            == make_finding(line=99).fingerprint

    def test_sensitive_to_rule_path_and_snippet(self):
        base = make_finding().fingerprint
        assert make_finding(rule="DET001").fingerprint != base
        assert make_finding(path="src/b.py").fingerprint != base
        assert make_finding(snippet="x = id(z)").fingerprint != base

    def test_snippet_whitespace_normalized(self):
        assert make_finding(snippet="  x = id(y)  ").fingerprint \
            == make_finding(snippet="x = id(y)").fingerprint
