"""The CLI entry point and the quickstart example path."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestCLI:
    def test_list(self):
        from repro.__main__ import main
        assert main(["list"]) == 0

    def test_unknown_artifact(self):
        from repro.__main__ import main
        assert main(["figure99"]) == 1

    def test_table5_runs(self, capsys):
        from repro.__main__ import main
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out

    def test_artifact_registry_covers_paper(self):
        from repro.__main__ import ARTIFACTS
        for artifact in ("figure2", "figure8", "figure9", "figure10",
                         "table1", "table4", "table5"):
            assert artifact in ARTIFACTS

    def test_obs_subcommand_usage(self, capsys):
        from repro.__main__ import main
        assert main(["obs"]) == 1
        assert "usage" in capsys.readouterr().out

    def test_obs_subcommand_renders_report(self, tmp_path, capsys):
        from repro import obs
        from repro.obs import core
        from repro.__main__ import main
        enabled, override = core.ENABLED, core._out_dir_override
        try:
            core.configure(enabled=True, out_dir=str(tmp_path))
            obs.reset()
            core.REGISTRY.counter("iommu.walks", config="dvm_pe").inc(7)
            obs.flush(tag="clitest")
            assert main(["obs", str(tmp_path)]) == 0
        finally:
            core.ENABLED, core._out_dir_override = enabled, override
            obs.reset()
        out = capsys.readouterr().out
        assert "Observability report" in out
        assert "iommu.walks|config=dvm_pe" in out


class TestExamples:
    def test_all_examples_exist(self):
        examples = {p.name for p in (REPO / "examples").glob("*.py")}
        assert {"quickstart.py", "graph_accelerator.py", "cpu_cdvm.py",
                "fragmentation_study.py", "virtualization.py",
                "trace_diagnostics.py"} <= examples

    @pytest.mark.parametrize("name", [
        "quickstart", "graph_accelerator", "cpu_cdvm",
        "fragmentation_study", "virtualization", "trace_diagnostics",
    ])
    def test_examples_compile(self, name):
        path = REPO / "examples" / f"{name}.py"
        compile(path.read_text(), str(path), "exec")

    def test_quickstart_runs_end_to_end(self):
        # The example imports the package like a user would; hand the
        # child the same source tree the tests import.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, str(REPO / "examples" / "quickstart.py")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "identity mapped (VA == PA): True" in result.stdout
        assert "outcome=fault" in result.stdout
