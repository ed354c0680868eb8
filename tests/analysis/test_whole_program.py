"""The whole-program layer: module/call graph, execution contexts,
taint flows and may-raise summaries, exercised over the fixture tree."""

import pytest

from repro.analysis.contexts import (BOTH, LIBRARY, PARENT, WORKER,
                                     context_labels)
from repro.analysis.core import ModuleContext, ProjectContext
from repro.analysis.dataflow import may_raise, taint_flows
from repro.analysis.engine import _relpath, discover_files
from repro.analysis.graph import module_name, project_graph

from tests.analysis.conftest import FIXTURE_PATHS, FIXTURE_ROOT


def build_project() -> ProjectContext:
    project = ProjectContext(root=FIXTURE_ROOT)
    for path in discover_files(FIXTURE_ROOT, FIXTURE_PATHS):
        rel = _relpath(FIXTURE_ROOT, path)
        project.modules.append(
            ModuleContext(path, rel, path.read_text()))
    return project


@pytest.fixture(scope="module")
def project():
    return build_project()


class TestGraph:
    def test_module_names(self):
        assert module_name("src/repro/sweep/workers.py") \
            == "repro.sweep.workers"
        assert module_name("src/repro/sweep/__init__.py") == "repro.sweep"

    def test_functions_indexed_by_qualname(self, project):
        graph = project_graph(project)
        assert "repro.sweep.workers.drain" in graph.functions
        assert "repro.sweep.workers._note" in graph.functions
        info = graph.functions["repro.obs.bus_bad.FragileBus.emit"]
        assert info.cls == "FragileBus" and info.name == "emit"

    def test_cross_module_call_resolution(self, project):
        graph = project_graph(project)
        assert "repro.sweep.workers.drain" \
            in graph.callees("repro.__main__.status")

    def test_local_call_resolution(self, project):
        graph = project_graph(project)
        callees = graph.callees("repro.sweep.workers._sweep_worker_main")
        assert "repro.sweep.workers._note" in callees
        assert "repro.sweep.workers._stash" in callees

    def test_method_call_resolution(self, project):
        graph = project_graph(project)
        assert "repro.sweep.scheduler_exn.NarratingService._emit" \
            in graph.callees(
                "repro.sweep.scheduler_exn.NarratingService._tick")

    def test_graph_is_memoized(self, project):
        assert project_graph(project) is project_graph(project)

    def test_modules_outside_src_add_no_function(self, project):
        """The whole-program layer covers src/ only: an examples/ or
        tests/ module is parsed for the module rules but contributes no
        function, call edge or spawn target to the graph."""
        extended = build_project()
        source = ("from multiprocessing import Process\n\n"
                  "def helper():\n"
                  "    Process(target=helper).start()\n")
        extended.modules.append(ModuleContext(
            FIXTURE_ROOT / "tests" / "test_helper.py",
            "tests/test_helper.py", source))
        assert "examples/example_bad.py" \
            in {ctx.relpath for ctx in extended.modules}
        graph = project_graph(extended)
        assert set(graph.functions) == set(project_graph(project).functions)
        assert all(info.relpath.startswith("src/")
                   for info in graph.functions.values())
        assert graph.spawn_targets == project_graph(project).spawn_targets


class TestContexts:
    def test_labels(self, project):
        labels = context_labels(project)
        assert labels["repro.sweep.workers.drain"] == PARENT
        assert labels["repro.sweep.workers._note"] == WORKER
        assert labels["repro.sweep.workers._sweep_worker_main"] == WORKER
        assert labels["repro.sweep.workers.format_task"] == LIBRARY

    def test_every_function_labeled(self, project):
        graph = project_graph(project)
        labels = context_labels(project)
        assert set(labels) == set(graph.functions)
        assert set(labels.values()) <= {PARENT, WORKER, BOTH, LIBRARY}


class TestTaint:
    def test_direct_flow_into_journal(self, project):
        flows = taint_flows(project)
        assert any(f.sink == "journal" and f.label == "wall-clock"
                   and f.qualname.endswith("record_completion")
                   for f in flows)

    def test_interprocedural_flow_reports_caller(self, project):
        flows = taint_flows(project)
        hits = [f for f in flows
                if f.qualname.endswith("log_result")]
        assert hits and all(f.via.endswith("_publish") for f in hits)

    def test_laundered_and_seeded_flows_stay_quiet(self, project):
        """The engine may record the sanctioned wall-clock->bus flow
        (the DET103 rule allows that label); everything else in the
        negative-vector module must be laundered or seeded away."""
        flows = [f for f in taint_flows(project)
                 if f.relpath == "src/repro/sweep/taint_ok.py"]
        assert all(f.sink == "bus-event" and f.label == "wall-clock"
                   for f in flows)

    def test_flows_sorted_and_deduplicated(self, project):
        flows = taint_flows(project)
        keys = [f.sort_key() for f in flows]
        assert keys == sorted(keys)
        assert len(flows) == len(set(flows))


class TestMayRaise:
    def test_known_risky_operations_escape(self, project):
        escapes = may_raise(project)
        raised = escapes["repro.obs.bus_bad.FragileBus.emit"]
        assert "OSError" in raised

    def test_guarded_paths_are_clean(self, project):
        escapes = may_raise(project)
        assert not escapes.get("repro.obs.bus_ok.GuardedBus.emit")

    def test_composition_through_resolved_calls(self, project):
        escapes = may_raise(project)
        emit = escapes["repro.sweep.scheduler_exn.NarratingService._emit"]
        assert {"TypeError", "ValueError"} <= set(emit)
        # _tick catches exactly what the resolved _emit can raise.
        assert not escapes.get(
            "repro.sweep.scheduler_exn.NarratingService._tick")

    def test_explicit_raise_tracked(self, project):
        escapes = may_raise(project)
        raised = escapes["repro.obs.bus_bad.FragileBus.close"]
        assert "RuntimeError" in raised


class TestDeterminism:
    def test_rebuilt_project_yields_identical_results(self, project):
        fresh = build_project()
        assert [f for f in taint_flows(project)] \
            == [f for f in taint_flows(fresh)]
        assert may_raise(project) == may_raise(fresh)
        assert context_labels(project) == context_labels(fresh)
