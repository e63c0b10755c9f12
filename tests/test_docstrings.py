"""Quality gate: every public item in the library carries a docstring."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro


def _public(name):
    return not name.rpartition(".")[2].startswith("_")  # __main__ runs the CLI


def iter_modules():
    """Yield each package of ``repro``, then the modules directly inside it.

    A subpackage is yielded once as a child of its parent and once at the head
    of its own group, so pytest ids it with a suffix: ``[repro.graph0]`` and
    ``[repro.graph1]``.
    """
    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg and _public(info.name)
    ]
    seen = set()
    for package in packages:
        yield package
        prefix = package.__name__ + "."
        for info in pkgutil.iter_modules(package.__path__, prefix):
            if _public(info.name) and info.name not in seen:
                seen.add(info.name)
                yield importlib.import_module(info.name)


ALL_MODULES = list(iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__, f"{module.__name__} lacks a module docstring"


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_callables_have_docstrings(module):
    missing = []
    public = getattr(module, "__all__", None)
    names = public if public is not None else [
        n for n in dir(module) if not n.startswith("_")
    ]
    for name in names:
        obj = getattr(module, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", "").startswith("repro") is False:
            continue
        if not inspect.getdoc(obj):
            missing.append(name)
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and not inspect.getdoc(attr):
                    missing.append(f"{name}.{attr_name}")
    assert not missing, (
        f"{module.__name__}: public items without docstrings: {missing}"
    )
