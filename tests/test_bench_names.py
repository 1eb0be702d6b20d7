"""The benchmark's tracer (bench/spans.py) patches library functions by
name, and its reference builder (bench/make_references.py), workloads
(bench/workloads.py) and runner (bench/run.py) import them by name; a
rename in the library would break the benchmark.  Every name they use must
still resolve."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

# the benchmark files that import library names
_IMPORTERS = ("make_references.py", "workloads.py", "run.py")


def _is_submodule(module, name):
    return (importlib.util.find_spec(module).submodule_search_locations is not None
            and importlib.util.find_spec(f"{module}.{name}") is not None)


def _reference_names():
    """(module, name) of every `from bayescomp... import name` in the
    benchmark's importers, plus (module, "Class.attr") for each attribute
    they read off an imported class.  A submodule imported by name, as in
    `from bayescomp import cli`, is itself the module of the attributes
    read off it."""
    names = set()
    for file in _IMPORTERS:
        tree = ast.parse((BENCH / file).read_text(encoding="utf-8"))
        imported = {}  # local name -> (module, prefix of the attributes read off it)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bayescomp"):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if _is_submodule(node.module, alias.name):
                        imported[local] = (f"{node.module}.{alias.name}", "")
                    else:
                        imported[local] = (node.module, f"{alias.name}.")
                        names.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in imported):
                module, prefix = imported[node.value.id]
                names.add((module, prefix + node.attr))
    return sorted(names)


def _resolve(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module", spans.MODULES)
def test_traced_module_imports(module):
    importlib.import_module(f"bayescomp.{module}")


@pytest.mark.parametrize("module,name", sorted(spans.FUNCTIONS))
def test_traced_function_resolves(module, name):
    assert callable(_resolve(f"bayescomp.{module}", name))


@pytest.mark.parametrize("module,cls,attr", sorted(spans.METHODS))
def test_traced_method_resolves(module, cls, attr):
    # the tracer patches the method in the class's own namespace
    assert attr in vars(_resolve(f"bayescomp.{module}", cls))


@pytest.mark.parametrize("module,name", _reference_names())
def test_reference_builder_name_resolves(module, name):
    _resolve(module, name)
