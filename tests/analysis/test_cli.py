"""The ``python -m repro.analysis`` command line, end to end."""

import ast
import json

from repro.analysis.cli import main
from repro.analysis.reporters import SARIF_VERSION

from tests.analysis.conftest import FIXTURE_ROOT, REPO_ROOT

FIXTURE_ARGS = ["--root", str(FIXTURE_ROOT), "src", "examples"]


class TestCli:
    def test_corpus_fails(self, capsys):
        assert main(FIXTURE_ARGS) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "\ndvmlint: " in out

    def test_select_family(self, capsys):
        assert main([*FIXTURE_ARGS, "--select", "FAULT"]) == 1
        out = capsys.readouterr().out
        assert "FAULT001" in out and "DET001" not in out

    def test_warning_only_passes(self, capsys):
        assert main([*FIXTURE_ARGS, "--select", "MP002"]) == 0
        assert "MP002 warning" in capsys.readouterr().out

    def test_ignore_everything_passes(self, capsys):
        assert main([*FIXTURE_ARGS, "--ignore",
                     "DET,FAULT,OBS,ENV,MP,GEN,SWP,RACE,EXN,PARSE"]) == 0

    def test_sarif_format(self, capsys):
        assert main([*FIXTURE_ARGS, "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == SARIF_VERSION and doc["runs"][0]["results"]

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET005", "FAULT001", "FAULT002",
                        "OBS001", "ENV001", "ENV002", "ENV003",
                        "MP001", "MP002", "GEN001", "GEN002", "GEN003",
                        "DET101", "DET102", "DET103", "DET104",
                        "RACE001", "RACE002", "RACE003",
                        "EXN001", "EXN002", "EXN003"):
            assert rule_id in out

    def test_missing_target_exits_2(self, capsys):
        assert main(["--root", str(FIXTURE_ROOT), "no-such-dir"]) == 2


def _imported_modules(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            yield node.module


class TestRealRepository:
    def test_repo_is_clean(self, capsys):
        """`make analyze` exits 0: the tree satisfies its own invariants."""
        assert main(["--root", str(REPO_ROOT)]) == 0

    def test_src_imports_nothing_outside_src(self):
        """The whole-program graph indexes src/ only; that loses no edge
        a rule follows because no src/ module imports tests, benchmarks
        or examples."""
        # The packages themselves, plus the scripts and directories
        # directly inside benchmarks/ and examples/ (importable by bare
        # name when their directory is on sys.path).
        outside = {"tests", "benchmarks", "examples"}
        for top in ("benchmarks", "examples"):
            outside |= {child.stem for child in (REPO_ROOT / top).iterdir()
                        if child.suffix == ".py" or child.is_dir()}
        offenders = sorted(
            (path.relative_to(REPO_ROOT).as_posix(), name)
            for path in (REPO_ROOT / "src").rglob("*.py")
            for name in _imported_modules(path)
            if name.split(".")[0] in outside)
        assert offenders == []
