"""Tests for the public API surface and exception hierarchy."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro import exceptions

SUBPACKAGES = [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]

# Each entry is (module, name): a deleted module when name is None,
# otherwise a name deleted from that module.
REMOVED = [
    ("repro.community", None),
    ("repro.core.directed", None),
    ("repro.graph.digraph", None),
    ("repro.graph", "DiGraph"),
    ("repro.core", "mine_directed"),
    ("repro.graph", "block_cut_tree"),
    ("repro.graph", "BlockCutTree"),
    ("repro.graph.biconnectivity", "block_cut_tree"),
    ("repro.graph.biconnectivity", "BlockCutTree"),
    ("repro.graph", "quotient_graph"),
    ("repro.graph.contraction", "quotient_graph"),
    ("repro.graph", "watts_strogatz_graph"),
    ("repro.graph", "random_geometric_graph"),
    ("repro.graph.generators", "watts_strogatz_graph"),
    ("repro.graph.generators", "random_geometric_graph"),
]


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_docstring_example_runs(self):
        """The __init__ docstring example must stay true."""
        from repro import DiscreteLabeling, Graph, mine, uniform_probabilities

        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        labels = DiscreteLabeling(
            uniform_probabilities(2), {0: 1, 1: 1, 2: 0, 3: 1}
        )
        result = mine(g, labels)
        assert sorted(result.best.vertices) == [0, 1, 3]

    @pytest.mark.parametrize("subpackage", SUBPACKAGES)
    def test_subpackage_all_resolves(self, subpackage):
        module = importlib.import_module(subpackage)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{subpackage}.{name}"

    @pytest.mark.parametrize(
        ("module", "name"),
        REMOVED,
        ids=[f"{m}.{n}" if n else m for m, n in REMOVED],
    )
    def test_removed_name_is_gone(self, module, name):
        """The §6 extensions and uncalled graph helpers stay deleted."""
        if name is None:
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        else:
            assert not hasattr(importlib.import_module(module), name)


class TestExceptionHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not exceptions.ReproError:
                    assert issubclass(obj, exceptions.ReproError), name

    def test_lookup_errors_are_key_errors(self):
        assert issubclass(exceptions.VertexNotFoundError, KeyError)
        assert issubclass(exceptions.EdgeNotFoundError, KeyError)

    def test_value_style_errors_are_value_errors(self):
        for cls in (
            exceptions.DuplicateVertexError,
            exceptions.SelfLoopError,
            exceptions.NotConnectedError,
            exceptions.LabelingError,
            exceptions.ProbabilityError,
            exceptions.DatasetError,
        ):
            assert issubclass(cls, ValueError), cls

    def test_messages_carry_context(self):
        err = exceptions.VertexNotFoundError("spam")
        assert "spam" in str(err)
        assert err.vertex == "spam"
        err = exceptions.EdgeNotFoundError(1, 2)
        assert err.u == 1 and err.v == 2
        err = exceptions.EnumerationLimitError(42)
        assert err.limit == 42
        assert "42" in str(err)

    def test_single_except_catches_everything(self):
        from repro.graph.graph import Graph

        with pytest.raises(exceptions.ReproError):
            Graph().remove_vertex("missing")


class TestExamplesAreRunnable:
    def test_quickstart_example(self, capsys):
        """The quickstart example must execute end to end."""
        import runpy
        from pathlib import Path

        path = Path(__file__).parent.parent / "examples" / "quickstart.py"
        runpy.run_path(str(path), run_name="__main__")
        out = capsys.readouterr().out
        assert "most significant connected subgraph" in out
        assert "pipeline:" in out

    @pytest.mark.parametrize(
        "script",
        [
            "colocation_mining.py",
            "outlier_regions.py",
            "scalability.py",
            "significance_analysis.py",
        ],
    )
    def test_other_examples_compile(self, script):
        """The heavier examples at least parse and import-check."""
        import py_compile
        from pathlib import Path

        path = Path(__file__).parent.parent / "examples" / script
        py_compile.compile(str(path), doraise=True)
