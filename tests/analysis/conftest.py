"""Shared fixtures for the dvmlint test suite.

``tests/analysis/fixtures`` is a miniature repository of *intentional*
violations — one positive and one negative vector per rule variant —
analyzed with the fixture directory as its own root so path-scoped
rules (``src/repro/hw/`` vs ``src/repro/common/`` …) apply exactly as
they do on the real tree.  The real analyzer run excludes the fixture
tree (:data:`repro.analysis.config.EXCLUDE`).
"""

from pathlib import Path

import pytest

from repro.analysis.engine import run_analysis

#: The fixture mini-repo and the real repository root.
FIXTURE_ROOT = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]

#: The fixture tree has no tests/ or benchmarks/ directories.
FIXTURE_PATHS = ("src", "examples")


def analyze_fixtures(paths=FIXTURE_PATHS, **kwargs):
    return run_analysis(FIXTURE_ROOT, paths, **kwargs)


@pytest.fixture(scope="session")
def fixture_result():
    """One shared uncached run over the fixture corpus."""
    return analyze_fixtures()
