"""The one-entry result cache and engine-level determinism guarantees.

These tests run over a throwaway copy of the fixture tree so cache
files never leak into the checked-in corpus, and compare *rendered
bytes* (text/sarif), which is the actual contract: a cached run must
be indistinguishable from a fresh one.
"""

import io
import json
import shutil
import time

import pytest

from repro.analysis import cache, config, engine
from repro.analysis.cache import CACHE_VERSION
from repro.analysis.engine import run_analysis
from repro.analysis.reporters import render_sarif, render_text

from tests.analysis.conftest import FIXTURE_PATHS, FIXTURE_ROOT


def render_all(result) -> str:
    out = io.StringIO()
    for renderer in (render_text, render_sarif):
        renderer(result, out)
    return out.getvalue()


@pytest.fixture()
def tree(tmp_path):
    """A private copy of the fixture corpus (no cache)."""
    root = tmp_path / "tree"
    shutil.copytree(FIXTURE_ROOT, root)
    shutil.rmtree(root / "build", ignore_errors=True)
    return root


def analyze(root, **kwargs):
    kwargs.setdefault("use_cache", True)
    return run_analysis(root, FIXTURE_PATHS, **kwargs)


class TestIncrementalCache:
    def test_cold_then_warm_is_byte_identical(self, tree):
        cold = analyze(tree)
        assert cold.cache_hits == 0 and cold.cache_misses == cold.files
        warm = analyze(tree)
        assert warm.cache_misses == 0 and warm.cache_hits == cold.files
        # Renders differ only in the summary's hit/miss counters; the
        # findings themselves must be identical objects field-for-field.
        assert cold.findings == warm.findings
        assert cold.suppressed == warm.suppressed
        warm2 = analyze(tree)
        assert render_all(warm) == render_all(warm2)

    def test_warm_run_is_fast(self, tree):
        """Acceptance: a warm incremental run takes <25% of the cold
        wall clock (measured at ~5% in development; the bound leaves
        room for CI noise)."""
        t0 = time.perf_counter()
        analyze(tree)
        t1 = time.perf_counter()
        analyze(tree)
        t2 = time.perf_counter()
        assert (t2 - t1) < 0.25 * (t1 - t0)

    def test_edited_file_recomputes_the_tree(self, tree):
        cold = analyze(tree)
        target = tree / "src" / "repro" / "sweep" / "workers.py"
        target.write_text(target.read_text() + "\n# trailing comment\n")
        warm = analyze(tree)
        assert warm.cache_hits == 0 and warm.cache_misses == cold.files
        assert cold.findings == warm.findings
        assert cold.suppressed == warm.suppressed

    def test_edit_that_adds_a_violation_is_seen(self, tree):
        def det002_count(result):
            return sum(1 for f in result.findings
                       if f.rule == "DET002"
                       and f.path == "src/repro/sim/det_bad.py")

        before = det002_count(analyze(tree))
        target = tree / "src" / "repro" / "sim" / "det_bad.py"
        target.write_text(target.read_text()
                          + "\n\ndef fresh():\n"
                            "    import time\n"
                            "    return time.time()\n")
        after = det002_count(analyze(tree))
        assert after == before + 1

    def test_config_doc_edit_invalidates_project_findings(self, tree):
        def env003(result):
            return [f for f in result.findings if f.rule == "ENV003"]

        (dead,) = env003(analyze(tree))
        doc = tree / config.CONFIG_DOC
        lines = doc.read_text().splitlines(keepends=True)
        del lines[dead.line - 1]            # drop the dead row
        doc.write_text("".join(lines))
        assert env003(analyze(tree)) == []

    def test_corrupt_cache_is_rebuilt(self, tree):
        analyze(tree)
        cache_file = tree / config.CACHE_FILE
        assert cache_file.is_file()
        cache_file.write_text("{not json")
        run = analyze(tree)
        assert run.cache_misses == run.files
        assert json.loads(cache_file.read_text())["version"] \
            == CACHE_VERSION

    def test_ruleset_change_invalidates(self, tree):
        analyze(tree)
        narrowed = analyze(tree, select=("DET",))
        assert narrowed.cache_misses == narrowed.files

    def test_cache_holds_one_entry(self, tree):
        """A run under another ruleset replaces the entry rather than
        adding a second one beside it."""
        analyze(tree)
        analyze(tree, select=("DET",))
        doc = json.loads((tree / config.CACHE_FILE).read_text())
        assert set(doc) == {"version", "key", "files", "findings",
                            "suppressed"}
        rerun = analyze(tree)
        assert rerun.cache_hits == 0 and rerun.cache_misses == rerun.files

    def test_no_cache_leaves_no_file(self, tree):
        analyze(tree, use_cache=False)
        assert not (tree / config.CACHE_FILE).exists()


class TestEngineDeterminism:
    def test_shuffled_discovery_renders_identical_bytes(
            self, tree, monkeypatch):
        ordered_render = render_all(analyze(tree, use_cache=False))
        original = engine.discover_files

        def reversed_discovery(root, paths):
            return list(reversed(original(root, paths)))

        monkeypatch.setattr(engine, "discover_files", reversed_discovery)
        shuffled_render = render_all(analyze(tree, use_cache=False))
        assert shuffled_render == ordered_render

    def test_repeated_runs_render_identical_bytes(self, tree):
        first = render_all(analyze(tree, use_cache=False))
        second = render_all(analyze(tree, use_cache=False))
        assert first == second


class TestCacheSave:
    def test_overlapping_saves_leave_a_valid_cache(self, tree,
                                                   monkeypatch):
        """A second run saving while the first is between writing its
        tmp file and publishing it (a developer's `make analyze` beside
        the test suite's run) must not make either save fail."""
        result = analyze(tree, use_cache=False)
        real_replace = cache.os.replace
        nested = []

        def overlapping_replace(src, dst):
            if not nested:
                nested.append(src)
                cache.save(tree, "second", result)
            real_replace(src, dst)

        monkeypatch.setattr(cache.os, "replace", overlapping_replace)
        cache.save(tree, "first", result)
        monkeypatch.undo()
        assert nested, "the second save ran inside the first"
        files, findings, suppressed = cache.load(tree, "first")
        assert (files, findings, suppressed) \
            == (result.files, result.findings, result.suppressed)
        assert sorted(p.name for p in (tree / "build").iterdir()) \
            == ["dvmlint-cache.json"]
