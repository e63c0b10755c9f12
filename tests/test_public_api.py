"""Tests for the public API surface and exception hierarchy."""

from __future__ import annotations

import importlib
import inspect
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
# otherwise a name deleted from that module (dotted for a class member).
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
    ("repro.enumerate", "budget_limited_size"),
    ("repro.enumerate.bounds", "budget_limited_size"),
    ("repro.telemetry.names", "SEARCH_PRUNED_SIZE_CAP"),
    ("repro.telemetry.names", "SEARCH_FRONTIER_EXHAUSTED"),
    ("repro.enumerate.search", "resolve_backend"),
    ("repro.enumerate.search", "AUTO_BOUNDS_PYTHON_MAX_VERTICES"),
    ("repro.enumerate", "ChiSquareAccumulator"),
    ("repro.enumerate.accumulators", "ChiSquareAccumulator"),
    ("repro.enumerate.accumulators", "ContinuousAccumulator.z_vector"),
    ("repro.core.reduce", "DEFAULT_COMPACTION_FACTOR"),
]

# Each entry is (module, callable, parameter): a parameter (or, for a
# dataclass, a field) deleted from that callable.  The search takes one
# size constraint, ``min_mass``; its super-vertex size cap, the budget
# that cap fed into the bounds, and the counters only the cap moved are
# gone.
REMOVED_PARAMETERS = [
    ("repro.enumerate.search", "exhaustive_best_mask", "min_size"),
    ("repro.enumerate.search", "exhaustive_best_mask", "max_size"),
    ("repro.enumerate.search", "SearchOutcome", "pruned_size_cap"),
    ("repro.enumerate.search", "SearchOutcome", "frontier_exhausted"),
    ("repro.enumerate.bounds", "discrete_upper_bound", "budget_size"),
    ("repro.enumerate.accumulators", "DiscreteAccumulator.upper_bound",
     "remaining_budget"),
    ("repro.enumerate.accumulators", "ContinuousAccumulator.upper_bound",
     "remaining_budget"),
    ("repro.enumerate.connected", "connected_subgraph_masks", "min_size"),
    ("repro.enumerate.connected", "connected_subgraph_masks", "max_size"),
    ("repro.enumerate.connected", "enumerate_connected_subsets", "min_size"),
    ("repro.enumerate.connected", "enumerate_connected_subsets", "max_size"),
    ("repro.enumerate.connected", "count_connected_subgraphs", "min_size"),
    ("repro.enumerate.connected", "count_connected_subgraphs", "max_size"),
    ("repro.core.reduce", "reduce_supergraph", "compaction_factor"),
    ("repro.core.solver", "_CorrectionContext", "counts_mode"),
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
        """Deleted modules and names (the §6 extensions, uncalled graph
        helpers, the super-vertex budget and its counters, the backend
        crossover, uncalled search surface) stay deleted."""
        if name is None:
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        else:
            owner = importlib.import_module(module)
            *path, last = name.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert not hasattr(owner, last)

    @pytest.mark.parametrize(
        ("module", "qualname", "parameter"),
        REMOVED_PARAMETERS,
        ids=[f"{m}.{q}.{p}" for m, q, p in REMOVED_PARAMETERS],
    )
    def test_removed_parameter_is_gone(self, module, qualname, parameter):
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert parameter not in inspect.signature(obj).parameters


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
